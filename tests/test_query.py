"""Trace, coverage, and impact queries over classified artifacts."""

import dataclasses
import random
from fractions import Fraction

import pytest

import oracles
from conftest import ALL_KINDS, NOW, random_repo, repo_model, tax_from_parents
from taxtrace import linkage, store
from taxtrace.errors import EmptyClassification, UnknownId
from taxtrace.linkage import assign, unassign
from taxtrace.query import (
    COUNT_UNCLASSIFIABLE,
    EXCLUDE_UNCLASSIFIABLE,
    RelationFilter,
    coverage,
    impact,
    parse_filter_spec,
    require_filter,
    trace,
)
from taxtrace.store import Artifact, add_artifact, new_repository, serialize_repository
from taxtrace.taxonomy import relation


def ids(hits):
    return [h.target for h in hits]


@pytest.fixture
def fences_repo(fences_tax):
    repo = new_repository(fences_tax)
    add_artifact(repo, Artifact(id="REQ1", kind="requirement", title="fence req"))
    for object_id, code in [("D1", "32QD1"), ("D2", "32QD2"), ("D3", "32QD")]:
        add_artifact(repo, Artifact(id=object_id, kind="design-object", title=object_id))
        assign(repo, object_id, code, provenance=linkage.IMPORTED, now=NOW)
    assign(repo, "REQ1", "32QD", now=NOW)
    return repo


class TestFilters:
    def test_parse_plain_names(self):
        for name in ("equal", "ancestor", "descendant", "equal-or-descendant", "sibling"):
            f = parse_filter_spec(name)
            assert (f.kind, f.k) == (name, None)
            assert f.spec() == name

    def test_parse_neighborhood(self):
        f = parse_filter_spec("neighborhood:2")
        assert (f.kind, f.k) == ("neighborhood", 2)
        assert f.spec() == "neighborhood:2"

    @pytest.mark.parametrize("spec", ["equal:1", "neighborhood:x", "near", "neighborhood:"])
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_filter_spec(spec)

    def test_constructor_guards(self):
        with pytest.raises(ValueError):
            RelationFilter("neighborhood")
        with pytest.raises(ValueError):
            RelationFilter("neighborhood", -1)
        with pytest.raises(ValueError):
            RelationFilter("equal", 2)

    def test_require_filter_defaults_to_equal(self):
        assert require_filter(None).kind == "equal"
        f = RelationFilter("sibling")
        assert require_filter(f) is f


class TestTrace:
    def test_equal_on_shared_code(self, sampled_repo):
        hits = trace(sampled_repo, "R3", "design-object", RelationFilter("equal"))
        assert ids(hits) == ["D05", "D06", "D07", "D08"]

    def test_via_records_the_code_pair(self, sampled_repo):
        hits = trace(sampled_repo, "R3", "design-object", RelationFilter("equal"))
        (source_code, target_code, rel) = hits[0].via[0]
        assert (source_code, target_code) == ("32QG", "32QG")
        assert (rel.kind, rel.distance) == ("same", 0)

    def test_descendant_codes_are_reached(self, fences_repo):
        down = trace(fences_repo, "REQ1", "design-object", RelationFilter("descendant"))
        assert ids(down) == ["D1", "D2"]
        both = trace(fences_repo, "REQ1", "design-object",
                     RelationFilter("equal-or-descendant"))
        assert ids(both) == ["D1", "D2", "D3"]
        same = trace(fences_repo, "REQ1", "design-object", RelationFilter("equal"))
        assert ids(same) == ["D3"]

    def test_filter_applies_to_target_relative_to_source(self, fences_repo):
        # From a leaf-coded object upward: the requirement's code is the
        # ancestor, so only the ancestor filter finds it.
        up = trace(fences_repo, "D1", "requirement", RelationFilter("ancestor"))
        assert ids(up) == ["REQ1"]
        down = trace(fences_repo, "D1", "requirement", RelationFilter("descendant"))
        assert ids(down) == []

    def test_disjoint_codes_yield_nothing(self, sampled_repo):
        hits = trace(sampled_repo, "R5", "design-object", RelationFilter("equal"))
        assert ids(hits) == ["D12", "D13", "D14"]
        none = trace(sampled_repo, "R5", "test-case", RelationFilter("equal"))
        assert none == []

    def test_unknown_source(self, sampled_repo):
        with pytest.raises(UnknownId):
            trace(sampled_repo, "GHOST", "design-object", RelationFilter("equal"))

    def test_unclassified_source_is_an_error(self, sampled_repo):
        with pytest.raises(EmptyClassification):
            trace(sampled_repo, "R1", "design-object", RelationFilter("equal"))

    def test_rejected_assignments_do_not_trace(self, fences_repo):
        unassign(fences_repo, "D3", "32QD", now=NOW)
        hits = trace(fences_repo, "REQ1", "design-object",
                     RelationFilter("equal-or-descendant"))
        assert ids(hits) == ["D1", "D2"]

    def test_proposed_assignments_are_opt_in(self, fences_repo):
        add_artifact(fences_repo, Artifact(id="D4", kind="design-object", title="D4"))
        assign(fences_repo, "D4", "32QD", provenance=linkage.SUGGESTED, now=NOW)
        without = trace(fences_repo, "REQ1", "design-object", RelationFilter("equal"))
        assert ids(without) == ["D3"]
        with_proposed = trace(fences_repo, "REQ1", "design-object",
                              RelationFilter("equal"), include_proposed=True)
        assert ids(with_proposed) == ["D3", "D4"]

    def test_proposed_source_needs_the_flag_too(self, fences_repo):
        add_artifact(fences_repo, Artifact(id="R9", kind="requirement", title="R9"))
        assign(fences_repo, "R9", "32QD", provenance=linkage.SUGGESTED, now=NOW)
        with pytest.raises(EmptyClassification):
            trace(fences_repo, "R9", "design-object", RelationFilter("equal"))
        hits = trace(fences_repo, "R9", "design-object", RelationFilter("equal"),
                     include_proposed=True)
        assert ids(hits) == ["D3"]

    def test_archived_targets_are_skipped(self, fences_repo):
        fences_repo.artifacts["D3"].archived = True
        hits = trace(fences_repo, "REQ1", "design-object", RelationFilter("equal"))
        assert hits == []

    def test_neighborhood_zero_equals_equal(self, sampled_repo):
        for source in ("R2", "R3", "R4"):
            a = trace(sampled_repo, source, "design-object", RelationFilter("equal"))
            b = trace(sampled_repo, source, "design-object",
                      RelationFilter("neighborhood", 0))
            assert ids(a) == ids(b)

    def test_growing_neighborhood_only_gains_targets(self, fences_repo):
        seen = set()
        for k in range(4):
            now = set(ids(trace(fences_repo, "REQ1", "design-object",
                                RelationFilter("neighborhood", k))))
            assert seen <= now
            seen = now

    def test_queries_leave_the_repository_untouched(self, sampled_repo):
        before = serialize_repository(sampled_repo)
        trace(sampled_repo, "R3", "design-object", RelationFilter("equal"))
        coverage(sampled_repo, "requirement", None)
        impact(sampled_repo, "R3", RelationFilter("equal"))
        assert serialize_repository(sampled_repo) == before


class TestCoverage:
    def test_classification_coverage_of_the_fixture(self, sampled_repo):
        report = coverage(sampled_repo, "requirement", None)
        assert report.rate == Fraction(26, 27)
        assert report.uncovered == ["R1"]
        assert len(report.covered) == 26

    def test_exclude_policy_drops_marked_artifacts(self, sampled_repo):
        report = coverage(sampled_repo, "requirement", None,
                          policy=EXCLUDE_UNCLASSIFIABLE)
        assert report.rate == Fraction(1)
        assert report.uncovered == []
        assert "R1" not in report.covered

    def test_marked_but_unmarked_gap_stays_uncovered(self, canon_tax):
        repo = new_repository(canon_tax)
        add_artifact(repo, Artifact(id="R1", kind="requirement", title="R1"))
        add_artifact(repo, Artifact(id="R2", kind="requirement", title="R2"))
        report = coverage(repo, "requirement", None, policy=EXCLUDE_UNCLASSIFIABLE)
        assert report.uncovered == ["R1", "R2"]
        assert report.rate == Fraction(0)

    def test_usable_code_supersedes_an_unclassifiable_marker(self):
        repo = new_repository(tax_from_parents({"A": None}))
        for artifact_id, kind in [("R1", "requirement"), ("R2", "requirement"),
                                  ("D1", "design-object")]:
            add_artifact(repo, Artifact(id=artifact_id, kind=kind, title=artifact_id))
        linkage.mark_unclassifiable(repo, "R1", "vagueness", now=NOW)
        linkage.mark_unclassifiable(repo, "R2", "compound", now=NOW)
        assign(repo, "R1", "A", now=NOW)
        assign(repo, "D1", "A", now=NOW)
        assign(repo, "R2", "A", provenance=linkage.SUGGESTED, now=NOW)
        for to_kind in ("design-object", None):
            report = coverage(repo, "requirement", to_kind, policy=EXCLUDE_UNCLASSIFIABLE)
            assert (report.covered, report.uncovered) == (["R1"], [])
            report = coverage(repo, "requirement", to_kind, policy=EXCLUDE_UNCLASSIFIABLE,
                              include_proposed=True)
            assert (report.covered, report.uncovered) == (["R1", "R2"], [])

    def test_trace_coverage_against_a_target_kind(self, sampled_repo):
        report = coverage(sampled_repo, "requirement", "design-object",
                          RelationFilter("equal"))
        assert set(report.covered) >= {"R2", "R3", "R4", "R5", "R6"}
        assert "R1" in report.uncovered

    def test_empty_population_rate_is_one(self, canon_tax):
        report = coverage(new_repository(canon_tax), "requirement", None)
        assert report.rate == Fraction(1)
        assert report.covered == [] and report.uncovered == []

    def test_unknown_policy(self, sampled_repo):
        with pytest.raises(ValueError):
            coverage(sampled_repo, "requirement", None, policy="hope")

    def test_rate_is_exact(self, sampled_repo):
        report = coverage(sampled_repo, "requirement", None)
        assert isinstance(report.rate, Fraction)

    def test_rate_is_the_exact_fraction(self, sampled_repo):
        assert coverage(sampled_repo, "requirement", None).rate == Fraction(26, 27)

    def test_unknown_kinds_are_rejected(self, sampled_repo):
        f = RelationFilter("equal")
        with pytest.raises(ValueError, match="unknown artifact kind 'requirment'"):
            coverage(sampled_repo, "requirment", "design-object", f)
        with pytest.raises(ValueError, match="unknown artifact kind 'design-objct'"):
            coverage(sampled_repo, "requirement", "design-objct", f)
        with pytest.raises(ValueError, match="unknown artifact kind 'design-objct'"):
            trace(sampled_repo, "R3", "design-objct", f)


def linked_repo(links, archived=()):
    """Artifacts named by kind letter (R requirement, D design object), linked
    in the order given; a link is ``(id, code)`` or ``(id, code, provenance)``."""
    kinds = {"R": "requirement", "D": "design-object"}
    repo = new_repository(tax_from_parents({"A": None, "B": None, "C": None}))
    for link in links:
        artifact_id, code, *provenance = link
        if artifact_id not in repo.artifacts:
            add_artifact(repo, Artifact(id=artifact_id, kind=kinds[artifact_id[0]],
                                        title=artifact_id, archived=artifact_id in archived))
        assign(repo, artifact_id, code, *provenance, now=NOW)
    return repo


class TestCoverageEdgeCases:
    """Each source code's memo keeps at most two targets; these pin it.

    Every case checks the lists and that each classified source's
    ``trace`` is non-empty exactly when it is covered."""

    def check(self, repo, from_kind, to_kind, covered, uncovered, proposed=False):
        report = coverage(repo, from_kind, to_kind, RelationFilter("equal"),
                          include_proposed=proposed)
        assert (report.covered, report.uncovered) == (covered, uncovered)
        for source_id in covered + uncovered:
            hits = trace(repo, source_id, to_kind, RelationFilter("equal"), proposed)
            assert bool(hits) == (source_id in covered), source_id

    def test_from_kind_records_before_the_first_target(self):
        repo = linked_repo([(f"R{i}", "A") for i in range(1, 6)] + [("R6", "B"), ("D1", "A")])
        self.check(repo, "requirement", "design-object",
                   ["R1", "R2", "R3", "R4", "R5"], ["R6"])

    def test_a_source_does_not_cover_itself(self):
        # R1 is the only requirement under A; R2 and R3 share B; the memo of
        # C stops at R4 and R5, and still covers R6.
        repo = linked_repo([("R1", "A"), ("R2", "B"), ("R3", "B"),
                            ("R4", "C"), ("R5", "C"), ("R6", "C")])
        self.check(repo, "requirement", "requirement",
                   ["R2", "R3", "R4", "R5", "R6"], ["R1"])

    def test_a_duplicate_record_of_the_source_is_one_target(self):
        # A hand-edited file may hold two active records for one pair.  R1's
        # are all there is under A; R2's come before R3's under B.
        repo = linked_repo([("R1", "A"), ("R2", "B")])
        repo.assignments += [dataclasses.replace(a) for a in repo.assignments]
        repo = store.deserialize_repository(serialize_repository(repo))
        add_artifact(repo, Artifact(id="R3", kind="requirement", title="R3"))
        assign(repo, "R3", "B", now=NOW)
        assert [a.artifact_id for a in linkage.links(repo).by_code["B"]] == ["R2", "R2", "R3"]
        self.check(repo, "requirement", "requirement", ["R2", "R3"], ["R1"])

    def test_archived_and_proposed_targets(self):
        repo = linked_repo([("R1", "A"), ("D1", "A"), ("D2", "A", linkage.SUGGESTED),
                            ("R2", "B"), ("D3", "B"), ("R3", "C"), ("D4", "C")],
                           archived={"D1", "D3"})
        unassign(repo, "D4", "C", now=NOW)
        self.check(repo, "requirement", "design-object", [], ["R1", "R2", "R3"])
        self.check(repo, "requirement", "design-object", ["R1"], ["R2", "R3"], proposed=True)


class TestImpact:
    def test_groups_only_reached_kinds(self, canon_tax):
        repo = new_repository(canon_tax)
        add_artifact(repo, Artifact(id="REQ1", kind="requirement", title="r"))
        add_artifact(repo, Artifact(id="D1", kind="design-object", title="d"))
        add_artifact(repo, Artifact(id="T1", kind="test-case", title="t"))
        assign(repo, "REQ1", "18B", now=NOW)
        assign(repo, "D1", "18B", provenance=linkage.IMPORTED, now=NOW)
        assign(repo, "T1", "63FH", now=NOW)
        report = impact(repo, "REQ1", RelationFilter("equal"))
        assert set(report.groups) == {"design-object"}
        assert ids(report.groups["design-object"]) == ["D1"]

    def test_no_neighbours_no_groups(self, canon_tax):
        repo = new_repository(canon_tax)
        add_artifact(repo, Artifact(id="REQ1", kind="requirement", title="r"))
        assign(repo, "REQ1", "18B", now=NOW)
        assert impact(repo, "REQ1", RelationFilter("equal")).groups == {}

    def test_fixture_impact_spans_kinds(self, sampled_repo):
        report = impact(sampled_repo, "R6", RelationFilter("equal"))
        assert "design-object" in report.groups
        assert ids(report.groups["design-object"]) == [
            "D01", "D02", "D03", "D04", "D15", "D16", "D17",
        ]
        assert "requirement" in report.groups

    def test_unknown_artifact(self, sampled_repo):
        with pytest.raises(UnknownId):
            impact(sampled_repo, "GHOST", RelationFilter("equal"))


class TestAgainstOracle:
    def test_random_repositories_match_nested_loop_trace(self):
        rng = random.Random(59)
        for _ in range(12):
            repo = random_repo(rng, max_artifacts=40, max_assignments=120)
            parents, artifacts, codes_by_artifact = repo_model(repo)
            dist = oracles.all_pairs_distances(parents)
            sources = [a for a, codes in codes_by_artifact.items() if codes]
            rng.shuffle(sources)
            for source_id in sources[:8]:
                for kind, k in oracles.FILTER_SPECS:
                    f = RelationFilter(kind, k)
                    for target_kind in ALL_KINDS:
                        want = oracles.trace_oracle(
                            parents, dist, artifacts, codes_by_artifact,
                            source_id, target_kind, kind, k)
                        got = trace(repo, source_id, target_kind, f)
                        assert set(ids(got)) == want, (source_id, kind, k, target_kind)
                        assert ids(got) == sorted(ids(got))

    def test_random_repositories_match_nested_loop_via(self):
        """Every hit's ``via`` is each admitted code pair, in order, with its relation."""
        rng = random.Random(97)
        for round_no in range(12):
            repo = store.deserialize_repository(serialize_repository(
                random_repo(rng, max_artifacts=30, max_assignments=90, taxonomy_nodes=20)))
            actives = [a for a in repo.assignments if a.status == linkage.CONFIRMED]
            if round_no % 3 == 0 and actives:
                # A hand-edited file may hold two active records for one pair.
                repo.assignments.append(dataclasses.replace(rng.choice(actives)))
            parents, _, _ = repo_model(repo)
            dist = oracles.all_pairs_distances(parents)
            for proposed in (False, True):
                _, artifacts, codes_by_artifact = repo_model(repo, proposed)
                sources = sorted(a for a, codes in codes_by_artifact.items() if codes)
                for source_id in rng.sample(sources, min(6, len(sources))):
                    for kind, k in oracles.FILTER_SPECS:
                        want = {}
                        for target_id, (_, archived) in artifacts.items():
                            if target_id == source_id or archived:
                                continue
                            via = [
                                (s, c, oracles.relation_oracle(parents, dist, c, s))
                                for s in sorted(codes_by_artifact[source_id])
                                for c in sorted(codes_by_artifact.get(target_id, ()))
                                if oracles.pair_matches(parents, dist, kind, k, s, c)
                            ]
                            if via:
                                want[target_id] = via
                        got = trace(repo, source_id, None, RelationFilter(kind, k), proposed)
                        assert {
                            hit.target: [(s, c, (r.kind, r.distance)) for s, c, r in hit.via]
                            for hit in got
                        } == want, (source_id, kind, k, proposed)

    def test_coverage_agrees_with_per_artifact_trace(self):
        rng = random.Random(61)
        for _ in range(8):
            repo = random_repo(rng, max_artifacts=30, max_assignments=90)
            for proposed in (False, True):
                _, artifacts, codes_by_artifact = repo_model(repo, proposed)
                for kind, k in oracles.FILTER_SPECS:
                    f = RelationFilter(kind, k)
                    for from_kind in ALL_KINDS:
                        for to_kind in ALL_KINDS:
                            report = coverage(repo, from_kind, to_kind, f,
                                              include_proposed=proposed)
                            population = {
                                a for a, (akind, archived) in artifacts.items()
                                if akind == from_kind and not archived
                            }
                            assert set(report.covered) | set(report.uncovered) == population
                            for artifact_id in report.covered:
                                assert codes_by_artifact.get(artifact_id)
                                assert trace(repo, artifact_id, to_kind, f, proposed)
                            for artifact_id in report.uncovered:
                                if codes_by_artifact.get(artifact_id):
                                    assert trace(repo, artifact_id, to_kind, f, proposed) == []

    def test_sibling_filter_matches_relation_on_a_forest(self):
        rng = random.Random(71)
        for _ in range(8):
            parents = oracles.random_forest(rng, 30)
            # N0 is always a root; two more make the forest several trees.
            parents.update({"X1": None, "X2": None})
            repo = new_repository(tax_from_parents(parents))
            for code in parents:
                add_artifact(repo, Artifact(id=f"R-{code}", kind="requirement", title=code))
                add_artifact(repo, Artifact(id=f"D-{code}", kind="design-object", title=code))
                assign(repo, f"R-{code}", code, now=NOW)
                assign(repo, f"D-{code}", code, now=NOW)
            for code in parents:
                want = [
                    f"D-{c}" for c in sorted(parents)
                    if c != code and relation(repo.taxonomy, c, code).kind == "sibling"
                ]
                got = trace(repo, f"R-{code}", "design-object", RelationFilter("sibling"))
                assert sorted(ids(got)) == sorted(want), code

    def test_impact_is_trace_without_a_kind_restriction(self):
        rng = random.Random(67)
        for _ in range(8):
            repo = random_repo(rng, max_artifacts=30, max_assignments=90)
            _, _, codes_by_artifact = repo_model(repo)
            sources = sorted(a for a, codes in codes_by_artifact.items() if codes)
            if not sources:
                continue
            source_id = sources[rng.randrange(len(sources))]
            f = RelationFilter("neighborhood", 2)
            report = impact(repo, source_id, f)
            flat = sorted(h.target for hits in report.groups.values() for h in hits)
            assert flat == ids(trace(repo, source_id, None, f))
            for kind, hits in report.groups.items():
                assert all(repo.artifacts[h.target].kind == kind for h in hits)
