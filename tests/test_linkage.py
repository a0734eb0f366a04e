"""Assignments, splits, edit-log replay, and maintenance-cost accounting."""

import dataclasses
import json
import random

import pytest

import oracles
from conftest import NOW, build_sampled_repo, random_repo, repo_model
from taxtrace import linkage, store
from taxtrace.cost import EditCount, ScenarioArtifact, load_scenario, maintenance_cost
from taxtrace.errors import (
    ArchivedArtifact,
    DuplicateAssignment,
    DuplicateId,
    InvalidCategory,
    MalformedScenario,
    TooFewParts,
    UnknownAssignment,
    UnknownCode,
    UnknownId,
)
from taxtrace.linkage import (
    active_codes,
    assign,
    mark_unclassifiable,
    replay_edit_log,
    split_artifact,
    unassign,
    unclassifiable_reason,
    utc_now,
)
from taxtrace.query import POLICIES, RelationFilter, coverage, trace
from taxtrace.store import Artifact, add_artifact, new_repository, serialize_repository
from taxtrace.taxonomy import parse_taxonomy


def fresh_repo(canon_tax, *ids_and_kinds):
    repo = new_repository(canon_tax)
    for artifact_id, kind in ids_and_kinds:
        add_artifact(repo, Artifact(id=artifact_id, kind=kind, title=artifact_id))
    return repo


def active_pairs(repo):
    return {
        (a.artifact_id, a.code)
        for a in repo.assignments
        if a.status != linkage.REJECTED and a.code is not None
    }


CANONICAL_SPLIT_SCENARIO = """{
  "artifacts": [
    {"id": "REQ1", "kind": "requirement", "codes": ["32QG"]},
    {"id": "SRC1", "kind": "source-unit", "codes": ["32QG"]},
    {"id": "SRC2", "kind": "source-unit", "codes": ["32QG"]},
    {"id": "TEST1", "kind": "test-case", "codes": ["32QG"]},
    {"id": "TEST2", "kind": "test-case", "codes": ["32QG"]}
  ],
  "mutation": {
    "type": "split",
    "id": "REQ1",
    "parts": [
      {"id": "REQ1A", "codes": ["32QG"]},
      {"id": "REQ1B", "codes": ["32QG"]}
    ]
  }
}"""


class TestAssign:
    def test_two_codes_on_one_requirement(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R6", "requirement"))
        assign(repo, "R6", "18B", now=NOW)
        assign(repo, "R6", "63FH", now=NOW)
        assert active_codes(repo, "R6") == {"18B", "63FH"}

    def test_unknown_code(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        with pytest.raises(UnknownCode):
            assign(repo, "R1", "ZZZ", now=NOW)

    def test_same_pair_twice(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        assign(repo, "R1", "18B", now=NOW)
        with pytest.raises(DuplicateAssignment):
            assign(repo, "R1", "18B", now=NOW)

    def test_unknown_artifact(self, canon_tax):
        with pytest.raises(UnknownId):
            assign(new_repository(canon_tax), "GHOST", "18B", now=NOW)

    def test_code_is_normalized_on_the_way_in(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        a = assign(repo, "R1", " 18b-- ", now=NOW)
        assert a.code == "18B"

    def test_suggested_provenance_starts_proposed(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        a = assign(repo, "R1", "18B", provenance=linkage.SUGGESTED, now=NOW)
        assert a.status == linkage.PROPOSED

    def test_manual_and_imported_start_confirmed(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"), ("R2", "requirement"))
        assert assign(repo, "R1", "18B", now=NOW).status == linkage.CONFIRMED
        assert assign(repo, "R2", "18B", provenance=linkage.IMPORTED, now=NOW).status \
            == linkage.CONFIRMED


class TestUnassign:
    def test_assign_then_unassign_restores_pair_set(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        before = active_pairs(repo)
        assign(repo, "R1", "18B", now=NOW)
        unassign(repo, "R1", "18B", now=NOW)
        assert active_pairs(repo) == before

    def test_record_is_kept_as_rejected(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        assign(repo, "R1", "18B", now=NOW)
        unassign(repo, "R1", "18B", now=NOW)
        assert [a.status for a in repo.assignments] == [linkage.REJECTED]

    def test_absent_pair(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        with pytest.raises(UnknownAssignment):
            unassign(repo, "R1", "18B", now=NOW)

    def test_log_holds_exactly_one_add_and_one_delete(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        assign(repo, "R1", "18B", now=NOW)
        unassign(repo, "R1", "18B", now=NOW)
        ops = [(e.op, e.endpoints) for e in repo.edit_log]
        assert ops == [("add", ("R1", "18B")), ("delete", ("R1", "18B"))]

    def test_reassign_after_rejection_is_allowed(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        assign(repo, "R1", "18B", now=NOW)
        unassign(repo, "R1", "18B", now=NOW)
        assign(repo, "R1", "18B", now=NOW)
        assert active_codes(repo, "R1") == {"18B"}


class TestMarkUnclassifiable:
    def test_marking_keeps_artifact_without_codes(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        a = mark_unclassifiable(repo, "R1", "vagueness", now=NOW)
        assert a.code is None
        assert a.status == linkage.UNCLASSIFIABLE
        assert active_codes(repo, "R1") == set()

    def test_marking_twice_updates_instead_of_duplicating(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        mark_unclassifiable(repo, "R1", "vagueness", now=NOW)
        mark_unclassifiable(repo, "R1", "compound", note="two asks in one", now=NOW)
        markers = [a for a in repo.assignments if a.status == linkage.UNCLASSIFIABLE]
        assert len(markers) == 1
        assert markers[0].note == "compound: two asks in one"
        assert unclassifiable_reason(markers[0]) == "compound"

    def test_invalid_category(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        with pytest.raises(InvalidCategory):
            mark_unclassifiable(repo, "R1", "bored", now=NOW)

    def test_unknown_artifact(self, canon_tax):
        with pytest.raises(UnknownId):
            mark_unclassifiable(new_repository(canon_tax), "GHOST", "vagueness", now=NOW)

    def test_writes_no_edit_log_entry(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        mark_unclassifiable(repo, "R1", "vagueness", now=NOW)
        assert repo.edit_log == []


class TestSplit:
    def two_part_split(self, repo):
        parts = [
            Artifact(id="R1A", kind="requirement", title="R1A"),
            Artifact(id="R1B", kind="requirement", title="R1B"),
        ]
        return split_artifact(repo, "R1", parts,
                              {"R1A": {"32QG"}, "R1B": {"32QG"}}, now=NOW)

    def test_one_code_into_two_parts_is_one_delete_two_adds(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        assign(repo, "R1", "32QG", now=NOW)
        outcome = self.two_part_split(repo)
        assert (outcome.deletes, outcome.adds) == (1, 2)
        assert outcome.warnings == []

    def test_original_is_archived_but_kept(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        assign(repo, "R1", "32QG", now=NOW)
        self.two_part_split(repo)
        assert repo.artifacts["R1"].archived is True
        assert active_codes(repo, "R1") == set()
        assert active_codes(repo, "R1A") == {"32QG"}

    def test_an_archived_artifact_is_not_split_again(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        assign(repo, "R1", "32QG", now=NOW)
        self.two_part_split(repo)
        before = serialize_repository(repo)
        parts = [Artifact(id=f"R1{s}", kind="requirement", title=s) for s in "CD"]
        with pytest.raises(ArchivedArtifact) as info:
            split_artifact(repo, "R1", parts, {"R1C": {"32QG"}}, now=NOW)
        assert str(info.value) == "artifact 'R1' is archived"
        assert serialize_repository(repo) == before

    def test_fewer_than_two_parts(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        assign(repo, "R1", "32QG", now=NOW)
        with pytest.raises(TooFewParts):
            split_artifact(repo, "R1",
                           [Artifact(id="R1A", kind="requirement", title="R1A")],
                           {"R1A": {"32QG"}}, now=NOW)

    def test_unallocated_codes_warn(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        assign(repo, "R1", "32QG", now=NOW)
        assign(repo, "R1", "18B", now=NOW)
        parts = [
            Artifact(id="R1A", kind="requirement", title="R1A"),
            Artifact(id="R1B", kind="requirement", title="R1B"),
        ]
        outcome = split_artifact(repo, "R1", parts, {"R1A": {"32QG"}}, now=NOW)
        assert len(outcome.warnings) == 1
        assert "18B" in outcome.warnings[0]

    def test_unknown_allocation_code(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        assign(repo, "R1", "32QG", now=NOW)
        parts = [
            Artifact(id="R1A", kind="requirement", title="R1A"),
            Artifact(id="R1B", kind="requirement", title="R1B"),
        ]
        with pytest.raises(UnknownCode):
            split_artifact(repo, "R1", parts, {"R1A": {"ZZZ"}}, now=NOW)

    @pytest.mark.parametrize("second, error", [
        (Artifact(id="R2", kind="requirement", title="R2"), DuplicateId),
        (Artifact(id="R1B", kind="sculpture", title="R1B"), ValueError),
    ], ids=["existing-id", "unknown-kind"])
    def test_rejected_second_part_changes_nothing(self, canon_tax, second, error):
        repo = fresh_repo(canon_tax, ("R1", "requirement"), ("R2", "requirement"))
        assign(repo, "R1", "32QG", now=NOW)
        before = serialize_repository(repo)
        parts = [Artifact(id="P1", kind="requirement", title="P1"), second]
        with pytest.raises(error):
            split_artifact(repo, "R1", parts, {"P1": {"32QG"}}, now=NOW)
        assert serialize_repository(repo) == before

    def test_random_splits_match_set_difference_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            repo = random_repo(rng, max_artifacts=25, max_assignments=60)
            with_codes = sorted({
                a.artifact_id for a in repo.assignments
                if a.status != linkage.REJECTED and a.code is not None
            })
            if not with_codes:
                continue
            original = with_codes[rng.randrange(len(with_codes))]
            codes = sorted(repo.taxonomy.nodes)
            part_count = rng.randint(2, 4)
            parts = [
                Artifact(id=f"P{i}", kind=repo.artifacts[original].kind, title=f"P{i}")
                for i in range(part_count)
            ]
            allocation = {
                p.id: {codes[rng.randrange(len(codes))] for _ in range(rng.randint(0, 3))}
                for p in parts
            }
            before = active_pairs(repo)
            outcome = split_artifact(repo, original, parts, allocation, now=NOW)
            after = active_pairs(repo)
            assert outcome.deletes == len(before - after)
            assert outcome.adds == len(after - before)


def index_by_scan(repo):
    """The link index by a literal scan, as identities: (by artifact, by code, markers)."""
    by_artifact, by_code, markers = {}, {}, {}
    for a in repo.assignments:
        if a.status == linkage.UNCLASSIFIABLE:
            markers.setdefault(a.artifact_id, id(a))
        elif a.status != linkage.REJECTED:
            by_artifact.setdefault(a.artifact_id, []).append(id(a))
            by_code.setdefault(a.code, []).append(id(a))
    return by_artifact, by_code, markers


def index_ids(index):
    return (
        {k: [id(a) for a in v] for k, v in index.by_artifact.items()},
        {k: [id(a) for a in v] for k, v in index.by_code.items()},
        {k: id(a) for k, a in index.markers.items()},
    )


class TestLinkIndex:
    def test_built_lazily_once(self, sampled_repo):
        repo = store.deserialize_repository(serialize_repository(sampled_repo))
        assert repo.links is None
        index = linkage.links(repo)
        assert linkage.links(repo) is index
        assert index_ids(index) == index_by_scan(repo)

    def test_first_of_two_active_records_wins(self, canon_tax):
        repo = fresh_repo(canon_tax, ("R1", "requirement"))
        first = assign(repo, "R1", "32QG", now=NOW)
        repo.links = None
        repo.assignments.append(dataclasses.replace(first))
        with pytest.raises(DuplicateAssignment):
            assign(repo, "R1", "32QG", now=NOW)
        unassign(repo, "R1", "32QG", now=NOW)
        assert [a.status for a in repo.assignments] == [linkage.REJECTED, linkage.CONFIRMED]
        assert active_codes(repo, "R1") == {"32QG"}

    def test_maintained_index_matches_a_rebuild_and_the_trace_oracle(self):
        """Random edits keep the index equal to a scan of the assignments."""
        rng = random.Random(83)
        provenances = sorted(linkage.PROVENANCES)
        for round_no in range(16):
            repo = store.deserialize_repository(serialize_repository(
                random_repo(rng, max_artifacts=20, max_assignments=40, taxonomy_nodes=15)))
            actives = [a for a in repo.assignments if a.status == linkage.CONFIRMED]
            if round_no % 4 == 0 and actives:
                # A hand-edited file may hold two active records for one pair.
                repo.assignments.append(dataclasses.replace(actives[0]))
            codes = sorted(repo.taxonomy.nodes)
            parents, _, _ = repo_model(repo)
            dist = oracles.all_pairs_distances(parents)
            new_ids = iter(f"S{i:03d}" for i in range(1000))
            for _ in range(60):
                ids = sorted(repo.artifacts)
                artifact_id = rng.choice(ids)
                step = rng.randrange(7)
                if step == 0:
                    try:
                        assign(repo, artifact_id, rng.choice(codes),
                               provenance=rng.choice(provenances), now=NOW)
                    except DuplicateAssignment:
                        pass
                elif step == 1:
                    held = sorted(linkage.links(repo).by_artifact.get(artifact_id, []),
                                  key=lambda a: a.code)
                    code = rng.choice(held).code if held else rng.choice(codes)
                    try:
                        unassign(repo, artifact_id, code, now=NOW)
                    except UnknownAssignment:
                        assert not held
                elif step == 2:
                    mark_unclassifiable(repo, artifact_id, rng.choice(linkage.REASON_CATEGORIES),
                                        note=f"n{rng.randrange(3)}", now=NOW)
                elif step == 3:
                    parts = [Artifact(id=next(new_ids), kind=repo.artifacts[artifact_id].kind,
                                      title="part") for _ in range(2)]
                    if rng.random() < 0.3:
                        parts[1] = Artifact(id=rng.choice(ids), kind="requirement", title="dup")
                    allocation = {p.id: {rng.choice(codes)} for p in parts}
                    try:
                        split_artifact(repo, artifact_id, parts, allocation, now=NOW)
                    except (DuplicateId, ArchivedArtifact):
                        pass
                elif step == 4:
                    # A batch of imports, as ``import model`` does.
                    for target in rng.sample(ids, min(5, len(ids))):
                        try:
                            assign(repo, target, rng.choice(codes),
                                   provenance=linkage.IMPORTED, now=NOW)
                        except DuplicateAssignment:
                            pass
                else:
                    proposed = rng.random() < 0.5
                    kind, k = rng.choice(oracles.FILTER_SPECS)
                    f = RelationFilter(kind, k)
                    target_kind = rng.choice([None, *sorted(store.ARTIFACT_KINDS)])
                    _, artifacts, codes_by_artifact = repo_model(repo, proposed)
                    if step == 5 and codes_by_artifact.get(artifact_id):
                        want = oracles.trace_oracle(parents, dist, artifacts, codes_by_artifact,
                                                    artifact_id, target_kind, kind, k)
                        got = trace(repo, artifact_id, target_kind, f, proposed)
                        assert {h.target for h in got} == want
                    else:
                        coverage(repo, rng.choice(sorted(store.ARTIFACT_KINDS)), target_kind, f,
                                 policy=rng.choice(POLICIES), include_proposed=proposed)
                if repo.links is not None:
                    assert index_ids(repo.links) == index_by_scan(repo)
            assert repo.links is not None


class TestReplay:
    def test_replay_reconstructs_fixture_assignments(self, sampled_repo):
        assert replay_edit_log(sampled_repo.edit_log) == active_pairs(sampled_repo)

    def test_replay_after_random_operations(self):
        rng = random.Random(17)
        for _ in range(10):
            repo = random_repo(rng, max_artifacts=30, max_assignments=80)
            assert replay_edit_log(repo.edit_log) == active_pairs(repo)

    def test_replay_rejects_corrupt_log(self):
        record = linkage.EditRecord("delete", "taxonomic", ("A", "18B"), cause="x")
        with pytest.raises(UnknownAssignment):
            replay_edit_log([record])


SCENARIO_ARTIFACTS = [{"id": "R1", "kind": "requirement", "codes": ["A"]},
                      {"id": "T1", "kind": "test-case", "codes": ["A"]}]


def scenario(mutation=None, artifacts=None, **more):
    """Scenario text: two artifacts, ``R1`` deleted, unless replaced."""
    return json.dumps({
        "artifacts": SCENARIO_ARTIFACTS if artifacts is None else artifacts,
        "mutation": {"type": "delete-artifact", "id": "R1"} if mutation is None else mutation,
        **more,
    })


SCENARIO_REJECTS = [
    ("nope", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[]", "expected an object with an 'artifacts' list"),
    ('{"artifacts": {}}', "expected an object with an 'artifacts' list"),
    (scenario(links={"R1": "T1"}), "links must be a list of pairs"),
    (scenario(links=[["R1", "T1"], ["R1"]]), "links[1]: expected a pair"),
    (scenario(links=[["R1", "R1"]]), "links[0]: invalid endpoints ['R1', 'R1']"),
    (scenario(links=[["R1", "GHOST"]]), "links[0]: invalid endpoints ['R1', 'GHOST']"),
    (scenario(mutation=["delete-artifact"]), "expected a 'mutation' object"),
    (scenario(mutation={"type": "explode"}), "unknown mutation type 'explode'"),
    (scenario(mutation={"type": "delete-artifact", "id": "GHOST"}),
     "mutation deletes unknown artifact 'GHOST'"),
    (scenario(mutation={"type": "split", "id": "GHOST"}),
     "mutation splits unknown artifact 'GHOST'"),
    (scenario(mutation={"type": "split", "id": "R1", "parts": [{"id": "P1"}]}),
     "split mutation needs at least 2 parts"),
    (scenario(mutation={"type": "change-codes", "id": "GHOST", "codes": []}),
     "mutation recodes unknown artifact 'GHOST'"),
    (scenario(mutation={"type": "change-codes", "id": "R1", "codes": "A"}),
     "change-codes mutation needs a 'codes' list"),
    (scenario(mutation={"type": "change-codes", "id": "R1", "codes": ["--"]}),
     "mutation codes: code '--' is empty after normalization"),
    (scenario(artifacts=["R1"]), "artifacts[0]: expected an object"),
    (scenario(artifacts=[{"id": "", "kind": "requirement"}]), "artifacts[0]: missing id"),
    (scenario(artifacts=SCENARIO_ARTIFACTS + [{"id": "R1", "kind": "test-case"}]),
     "artifacts[2]: duplicate id 'R1'"),
    (scenario(artifacts=[{"id": "R1", "kind": ""}]), "artifacts[0]: missing kind for 'R1'"),
    (scenario(artifacts=[{"id": "R1", "kind": "requirement", "codes": "A"}]),
     "artifacts[0]: codes must be a list"),
    (scenario(artifacts=[{"id": "R1", "kind": "requirement", "codes": ["-"]}]),
     "artifacts[0]: bad code (code '-' is empty after normalization)"),
    (scenario(mutation={"type": "add-artifact"}), "mutation.artifact: expected an object"),
    (scenario(mutation={"type": "split", "id": "R1", "parts": [{"id": "P1"}, {"id": "T1"}]}),
     "mutation.parts[1]: duplicate id 'T1'"),
]


class TestScenarioParsing:
    def test_canonical_scenario_parses(self):
        scenario = load_scenario(CANONICAL_SPLIT_SCENARIO)
        assert len(scenario.artifacts) == 5
        parts = [a for a in scenario.after if a.id in ("REQ1A", "REQ1B")]
        assert [p.id for p in parts] == ["REQ1A", "REQ1B"]
        # Parts inherit the original's kind when not stated.
        assert {p.kind for p in parts} == {"requirement"}
        assert scenario.affected == {"REQ1", "REQ1A", "REQ1B"}

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("mutation"),
            lambda d: d["mutation"].update(type="explode"),
            lambda d: d["artifacts"].append({"id": "REQ1", "kind": "requirement"}),
            lambda d: d["mutation"].update(id="GHOST"),
            lambda d: d["mutation"].update(parts=d["mutation"]["parts"][:1]),
            lambda d: d["artifacts"][0].pop("kind"),
        ],
    )
    def test_malformed_scenarios(self, mangle):
        doc = json.loads(CANONICAL_SPLIT_SCENARIO)
        mangle(doc)
        with pytest.raises(MalformedScenario):
            load_scenario(json.dumps(doc))

    def test_bad_links(self):
        doc = json.loads(CANONICAL_SPLIT_SCENARIO)
        doc["links"] = [["REQ1", "GHOST"]]
        with pytest.raises(MalformedScenario):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("text, message", SCENARIO_REJECTS,
                             ids=[message for _, message in SCENARIO_REJECTS])
    def test_reject(self, text, message):
        with pytest.raises(MalformedScenario) as info:
            load_scenario(text)
        assert str(info.value) == message


class TestMaintenanceCost:
    def test_canonical_split_taxonomic(self):
        count = maintenance_cost(load_scenario(CANONICAL_SPLIT_SCENARIO), "taxonomic")
        assert (count.deletes, count.adds, count.touched) == (1, 2, 3)

    def test_canonical_split_direct(self):
        count = maintenance_cost(load_scenario(CANONICAL_SPLIT_SCENARIO), "direct")
        # Four old links go; each of the two parts re-links to the four
        # related artifacts, reported separately from the deletes.
        assert count.deletes == 4
        assert count.adds == 8
        assert count.touched == 12

    def test_add_test_case_referencing_one_entity(self):
        scenario = load_scenario(json.dumps({
            "artifacts": [
                {"id": "REQ1", "kind": "requirement", "codes": ["63N"]},
            ],
            "mutation": {"type": "add-artifact",
                         "artifact": {"id": "TCX", "kind": "test-case", "codes": ["63N"]}},
        }))
        assert maintenance_cost(scenario, "direct") == EditCount(adds=1, deletes=0)
        assert maintenance_cost(scenario, "taxonomic") == EditCount(adds=1, deletes=0)

    def test_add_test_case_referencing_three_classes(self):
        scenario = load_scenario(json.dumps({
            "artifacts": [
                {"id": "REQ1", "kind": "requirement", "codes": ["18B", "63N"]},
                {"id": "REQ2", "kind": "requirement", "codes": ["63FH"]},
                {"id": "REQ3", "kind": "requirement", "codes": ["32QD"]},
            ],
            "mutation": {"type": "add-artifact",
                         "artifact": {"id": "TCX", "kind": "test-case",
                                      "codes": ["18B", "63N", "63FH"]}},
        }))
        assert maintenance_cost(scenario, "taxonomic").adds == 3
        # Direct adds equal the requirements sharing an entity: REQ1, REQ2.
        direct = maintenance_cost(scenario, "direct")
        assert (direct.adds, direct.deletes) == (2, 0)
        before = scenario.artifacts
        after = before + [ScenarioArtifact("TCX", "test-case", {"18B", "63N", "63FH"})]
        assert (direct.adds, direct.deletes) == oracles.cost_oracle(before, after, "direct")

    def test_explicit_links_stand_in_for_the_before_state(self):
        scenario = load_scenario(json.dumps({
            "artifacts": [
                {"id": "REQ1", "kind": "requirement", "codes": ["18B"]},
                {"id": "SRC1", "kind": "source-unit", "codes": ["18B"]},
                {"id": "SRC2", "kind": "source-unit", "codes": ["18B"]},
            ],
            "links": [["REQ1", "SRC1"]],
            "mutation": {"type": "delete-artifact", "id": "REQ1"},
        }))
        count = maintenance_cost(scenario, "direct")
        # Only the one recorded link existed, so only it is deleted.
        assert (count.deletes, count.adds) == (1, 0)

    def test_change_codes_counts_symmetric_difference(self):
        scenario = load_scenario(json.dumps({
            "artifacts": [
                {"id": "REQ1", "kind": "requirement", "codes": ["18B", "63N"]},
            ],
            "mutation": {"type": "change-codes", "id": "REQ1",
                         "codes": ["63N", "63FH"]},
        }))
        count = maintenance_cost(scenario, "taxonomic")
        assert (count.deletes, count.adds) == (1, 1)

    def test_random_scenarios_match_full_state_oracle(self):
        rng = random.Random(47)
        kinds = ["requirement", "test-case", "source-unit", "design-object"]
        code_pool = ["18B", "63N", "63FH", "32QD", "32QG", "31B"]
        for _ in range(60):
            n = rng.randint(1, 12)
            artifacts = [
                {
                    "id": f"A{i}",
                    "kind": kinds[rng.randrange(len(kinds))],
                    "codes": rng.sample(code_pool, rng.randint(0, 3)),
                }
                for i in range(n)
            ]
            which = rng.randrange(4)
            if which == 0:
                mutation = {"type": "add-artifact",
                            "artifact": {"id": "NEW", "kind": kinds[rng.randrange(len(kinds))],
                                         "codes": rng.sample(code_pool, rng.randint(0, 3))}}
            elif which == 1:
                mutation = {"type": "delete-artifact", "id": f"A{rng.randrange(n)}"}
            elif which == 2:
                mutation = {"type": "change-codes", "id": f"A{rng.randrange(n)}",
                            "codes": rng.sample(code_pool, rng.randint(0, 3))}
            else:
                mutation = {"type": "split", "id": f"A{rng.randrange(n)}",
                            "parts": [
                                {"id": f"P{j}", "codes": rng.sample(code_pool, rng.randint(0, 2))}
                                for j in range(rng.randint(2, 3))
                            ]}
            scenario = load_scenario(json.dumps({"artifacts": artifacts, "mutation": mutation}))
            for strategy in ("taxonomic", "direct"):
                got = maintenance_cost(scenario, strategy)
                adds, deletes = oracles.cost_oracle(scenario.artifacts, scenario.after, strategy)
                assert (got.adds, got.deletes) == (adds, deletes), (strategy, artifacts, mutation)

    def test_taxonomic_cost_ignores_unrelated_artifact_count(self):
        def scenario_with_bystanders(count):
            artifacts = [{"id": "REQ1", "kind": "requirement", "codes": ["32QG"]}]
            artifacts += [
                {"id": f"B{i}", "kind": "source-unit", "codes": ["32QG"]}
                for i in range(count)
            ]
            return load_scenario(json.dumps({
                "artifacts": artifacts,
                "mutation": {"type": "split", "id": "REQ1",
                             "parts": [{"id": "REQ1A", "codes": ["32QG"]},
                                       {"id": "REQ1B", "codes": ["32QG"]}]},
            }))

        small = maintenance_cost(scenario_with_bystanders(3), "taxonomic")
        large = maintenance_cost(scenario_with_bystanders(300), "taxonomic")
        assert small == large == EditCount(adds=2, deletes=1)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            maintenance_cost(load_scenario(CANONICAL_SPLIT_SCENARIO), "psychic")


class TestEditCount:
    def test_touched_is_adds_plus_deletes(self):
        assert EditCount(adds=2, deletes=1).touched == 3


class TestClock:
    def test_override_passes_through(self):
        assert utc_now("2020-01-01T00:00:00+00:00") == "2020-01-01T00:00:00+00:00"

    def test_default_is_parseable_utc(self):
        from datetime import datetime
        stamp = utc_now()
        assert datetime.fromisoformat(stamp).utcoffset().total_seconds() == 0


def test_fixture_replay_is_internally_consistent():
    repo = build_sampled_repo()
    assert len([a for a in repo.assignments if a.status == linkage.UNCLASSIFIABLE]) == 1
    assert replay_edit_log(repo.edit_log) == active_pairs(repo)
