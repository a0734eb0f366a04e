"""Acceptance gate: the eight headline behaviours, each printed as one line.

Every test here checks a stated budget or an exact value against an
independent oracle; none of them may be loosened to pass.
"""

import json
import random
import time
from fractions import Fraction

import pytest

import oracles
from conftest import (
    ALL_KINDS,
    NOW,
    OBJECT_CODES,
    build_sampled_repo,
    clone_object,
    make_object,
    random_repo,
    repo_model,
    tax_from_parents,
)
from taxtrace import audit, cli, linkage, query, store
from taxtrace.cost import load_scenario, maintenance_cost
from taxtrace.errors import DuplicateAssignment, EmptyClassification
from taxtrace.linkage import assign, replay_edit_log
from taxtrace.query import RelationFilter, coverage, impact, trace
from taxtrace.store import Artifact
from taxtrace.taxonomy import ancestors, descendants, neighborhood, relation


def split_scenario_text(bystanders: int = 0) -> str:
    artifacts = [{"id": "REQ1", "kind": "requirement", "codes": ["32QG"]}]
    artifacts += [
        {"id": "SRC1", "kind": "source-unit", "codes": ["32QG"]},
        {"id": "SRC2", "kind": "source-unit", "codes": ["32QG"]},
        {"id": "TEST1", "kind": "test-case", "codes": ["32QG"]},
        {"id": "TEST2", "kind": "test-case", "codes": ["32QG"]},
    ]
    artifacts += [
        {"id": f"BYS{i}", "kind": "source-unit", "codes": ["18B"]}
        for i in range(bystanders)
    ]
    return json.dumps({
        "artifacts": artifacts,
        "mutation": {
            "type": "split",
            "id": "REQ1",
            "parts": [
                {"id": "REQ1A", "codes": ["32QG"]},
                {"id": "REQ1B", "codes": ["32QG"]},
            ],
        },
    })


def test_criterion_1_split_scenario_costs(tmp_path, monkeypatch, capsys):
    started = time.perf_counter()
    monkeypatch.delenv("TTL_REPO", raising=False)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(split_scenario_text(), encoding="utf-8")

    results = {}
    for strategy in ("taxonomic", "direct"):
        code = cli.main(["--format", "json", "cost",
                         "--scenario", str(scenario), "--strategy", strategy])
        assert code == 0
        results[strategy] = json.loads(capsys.readouterr().out)

    assert results["taxonomic"]["deletes"] == 1
    assert results["taxonomic"]["adds"] == 2
    assert results["direct"]["deletes"] == 4
    assert results["direct"]["adds"] == 8

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: split scenario costs taxonomic(del=1,add=2) "
          f"direct(del=4,add=8) in {elapsed:.3f}s")


EXPECTED_EQUAL_TRACE = {
    "R2": ["D01", "D02", "D03", "D04", "D05", "D06", "D07", "D08"],
    "R3": ["D05", "D06", "D07", "D08"],
    "R4": ["D09", "D10", "D11"],
    "R5": ["D12", "D13", "D14"],
    "R6": ["D01", "D02", "D03", "D04", "D15", "D16", "D17"],
}


def test_criterion_2_sampled_requirements_fixture():
    started = time.perf_counter()
    repo = build_sampled_repo()

    f = RelationFilter(query.EQUAL)
    for source_id, expected in EXPECTED_EQUAL_TRACE.items():
        hits = trace(repo, source_id, store.DESIGN_OBJECT, f)
        assert [h.target for h in hits] == expected, source_id
    with pytest.raises(EmptyClassification):
        trace(repo, "R1", store.DESIGN_OBJECT, f)

    report = coverage(repo, store.REQUIREMENT, None)
    assert report.rate == Fraction(26, 27)
    assert report.uncovered == ["R1"]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: sampled-requirement traces exact and "
          f"classification rate 26/27 in {elapsed:.3f}s")


def test_criterion_3_taxonomy_relations_against_bfs_oracle():
    started = time.perf_counter()
    rng = random.Random(2026)
    checked = 0
    for _ in range(100):
        parents = oracles.random_forest(rng, max_nodes=200)
        t = tax_from_parents(parents)
        dist = oracles.all_pairs_distances(parents)
        nodes = sorted(parents)
        for a in nodes:
            assert ancestors(t, a) == oracles.ancestors_oracle(parents, a)
            assert set(descendants(t, a)) == oracles.descendants_oracle(parents, a)
            for k in range(5):
                assert set(neighborhood(t, a, k)) == \
                    oracles.neighborhood_oracle(dist, a, k)
            for b in nodes:
                got = relation(t, a, b)
                want_kind, want_distance = oracles.relation_oracle(parents, dist, a, b)
                assert (got.kind, got.distance) == (want_kind, want_distance), (a, b)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: {checked} node-pair relations across 100 forests "
          f"match the BFS oracle in {elapsed:.1f}s")


def test_criterion_4_queries_against_nested_loop_oracle():
    started = time.perf_counter()
    rng = random.Random(4050)
    kind_cycle = ALL_KINDS + ALL_KINDS
    trace_checks = coverage_checks = impact_checks = 0
    for round_no in range(50):
        repo = random_repo(rng, max_artifacts=100, max_assignments=300)
        parents, artifacts, codes_by_artifact = repo_model(repo)
        dist = oracles.all_pairs_distances(parents)
        sources = sorted(a for a, codes in codes_by_artifact.items() if codes)

        for source_id in sources:
            for kind, k in oracles.FILTER_SPECS:
                want = oracles.trace_oracle(
                    parents, dist, artifacts, codes_by_artifact,
                    source_id, None, kind, k)
                got = trace(repo, source_id, None, RelationFilter(kind, k))
                assert {h.target for h in got} == want, (source_id, kind, k)
                trace_checks += 1

        for spec_no, (kind, k) in enumerate(oracles.FILTER_SPECS):
            f = RelationFilter(kind, k)
            pairs = [(from_kind, to_kind)
                     for from_kind in ALL_KINDS for to_kind in ALL_KINDS] \
                if kind == "equal" else \
                [(kind_cycle[round_no % 4], kind_cycle[(round_no + spec_no) % 4 + 1])]
            for from_kind, to_kind in pairs:
                report = coverage(repo, from_kind, to_kind, f)
                for artifact_id in report.covered:
                    want = oracles.trace_oracle(
                        parents, dist, artifacts, codes_by_artifact,
                        artifact_id, to_kind, kind, k)
                    assert want, (artifact_id, kind, k)
                for artifact_id in report.uncovered:
                    if codes_by_artifact.get(artifact_id):
                        want = oracles.trace_oracle(
                            parents, dist, artifacts, codes_by_artifact,
                            artifact_id, to_kind, kind, k)
                        assert not want, (artifact_id, kind, k)
                population = {
                    a for a, (akind, archived) in artifacts.items()
                    if akind == from_kind and not archived
                }
                assert set(report.covered) | set(report.uncovered) == population
                coverage_checks += 1

        for source_id in sources[:5]:
            for kind, k in oracles.FILTER_SPECS:
                report = impact(repo, source_id, RelationFilter(kind, k))
                flat = {h.target for hits in report.groups.values() for h in hits}
                want = oracles.trace_oracle(
                    parents, dist, artifacts, codes_by_artifact,
                    source_id, None, kind, k)
                assert flat == want, (source_id, kind, k)
                for group_kind, hits in report.groups.items():
                    assert all(artifacts[h.target][0] == group_kind for h in hits)
                impact_checks += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion 4: {trace_checks} trace, {coverage_checks} coverage, "
          f"{impact_checks} impact queries match the nested-loop oracle "
          f"in {elapsed:.1f}s")


def test_criterion_5_seeded_audit_faults(canon_tax):
    rng = random.Random(777)
    valid_codes = sorted(canon_tax.nodes)
    for draw in range(20):
        f1 = rng.randint(0, 5)
        f2 = rng.randint(0, 5)
        f3 = rng.randint(0, 4)

        objects = []
        for i in range(f1):
            obj = make_object(f"M{draw}-{i}", None, salt=draw)
            objects.append(obj)
        for i in range(f2):
            typo = f"{valid_codes[i % len(valid_codes)]}X{i}"
            objects.append(make_object(f"U{draw}-{i}", typo, salt=draw))
        for i in range(6):
            objects.append(make_object(f"G{draw}-{i}",
                                       valid_codes[i % len(valid_codes)],
                                       salt=draw))
        report = audit.check_comprehensiveness(objects, canon_tax)
        assert len(report.findings) == f1 + f2, (draw, f1, f2)

        conflicted = valid_codes[:f3]
        agreed = valid_codes[f3:f3 + 3]
        side_a = [make_object(f"A{draw}-{code}", code, type_label=f"only-a-{code}")
                  for code in conflicted]
        side_b = [make_object(f"B{draw}-{code}", code, type_label=f"only-b-{code}")
                  for code in conflicted]
        for code in agreed:
            side_a.append(make_object(f"A{draw}-{code}", code, type_label="shared"))
            side_b.append(make_object(f"B{draw}-{code}", code, type_label="shared"))
        inter = audit.inter_reliability(
            side_a, side_b, set(conflicted) | set(agreed), "type", canon_tax)
        assert len(inter.findings) == f3, (draw, f3)
    print("\nPASS criterion 5: 20 seeded fault draws produce exactly "
          "f1+f2 comprehensiveness and f3 inter-reliability findings")


def test_criterion_6_thirty_percent_fingerprint_survival():
    v1 = [make_object(object_id, code) for object_id, code in OBJECT_CODES.items()]
    preserved = v1[:6]
    perturbed = v1[6:]
    assert len(preserved) / len(v1) == 0.3

    v2 = [clone_object(obj, f"v2-{obj.id}") for obj in preserved]
    v2 += [
        clone_object(obj, f"v2-{obj.id}", volume=obj.attrs["volume"] + "1")
        for obj in perturbed
    ]
    report = audit.match_versions(v1, v2)
    assert report.match_ratio == Fraction(3, 10)
    assert report.code_changes == []
    assert len(report.matched_pairs) == 6
    assert report.ambiguous_fingerprints == []
    print("\nPASS criterion 6: 30%-preserved fixture matches at exactly 3/10 "
          "with zero code changes")


def test_criterion_7_persistence_and_replay_at_scale(tmp_path):
    rng = random.Random(9090)
    taxonomy = tax_from_parents(oracles.random_forest(rng, max_nodes=60))
    repo = store.new_repository(taxonomy)
    for i in range(1000):
        store.add_artifact(repo, Artifact(
            id=f"A{i:04d}",
            kind=ALL_KINDS[rng.randrange(len(ALL_KINDS))],
            title=f"Artifact {i}",
        ))
    codes = sorted(taxonomy.nodes)
    live = [a.id for a in repo.artifacts.values()]
    split_serial = 0

    def active_of(artifact_id):
        return sorted(linkage.active_codes(repo, artifact_id))

    performed = 0
    while performed < 500:
        choice = rng.random()
        artifact_id = live[rng.randrange(len(live))]
        if choice < 0.60:
            candidates = [c for c in codes if c not in active_of(artifact_id)]
            if not candidates:
                continue
            assign(repo, artifact_id, candidates[rng.randrange(len(candidates))],
                   provenance=linkage.MANUAL, now=NOW)
        elif choice < 0.90:
            held = active_of(artifact_id)
            if not held:
                continue
            linkage.unassign(repo, artifact_id, held[rng.randrange(len(held))],
                             now=NOW)
        else:
            held = active_of(artifact_id)
            if not held:
                continue
            split_serial += 1
            part_ids = [f"S{split_serial:03d}-{j}" for j in range(2)]
            parts = [Artifact(id=part_id, kind=repo.artifacts[artifact_id].kind,
                              title=part_id) for part_id in part_ids]
            allocation = {part_id: set(held) for part_id in part_ids}
            linkage.split_artifact(repo, artifact_id, parts, allocation, now=NOW)
            live.remove(artifact_id)
            live.extend(part_ids)
        performed += 1

    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    store.save_repository(repo, str(first))
    reloaded = store.load_repository(str(first))
    store.save_repository(reloaded, str(second))
    assert first.read_bytes() == second.read_bytes()

    expected_pairs = {
        (a.artifact_id, a.code) for a in repo.assignments
        if a.status != linkage.REJECTED and a.code is not None
    }
    assert replay_edit_log(reloaded.edit_log) == expected_pairs
    print(f"\nPASS criterion 7: 1000-artifact repository with {performed} edits "
          f"round-trips byte-identically and replays its edit log")


def test_criterion_8_taxonomic_cost_is_local():
    small = maintenance_cost(load_scenario(split_scenario_text(10)), "taxonomic")
    large = maintenance_cost(load_scenario(split_scenario_text(1000)), "taxonomic")
    assert small == large
    assert (small.deletes, small.adds) == (1, 2)
    print("\nPASS criterion 8: taxonomic edit counts identical with 10 and 1000 "
          "unrelated artifacts (del=1, add=2)")
