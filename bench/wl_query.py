"""``query``: a tool holds one repository in memory and answers trace and impact calls.

Sources are drawn with a Zipf skew, so popular artifacts repeat; the
filters cover all six kinds.  The bulk operation is a requirement to
design-object coverage report, which visits every requirement once.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

import gen
import harness
import oracles
from taxtrace import linkage, query, store

SIZES = {
    "full": {"classes": 500, "ops": 300, "sample": 60,
             "kinds": {store.REQUIREMENT: 500, store.DESIGN_OBJECT: 1000,
                       store.TEST_CASE: 300, store.SOURCE_UNIT: 200}},
    "tiny": {"classes": 40, "ops": 40, "sample": 40,
             "kinds": {store.REQUIREMENT: 30, store.DESIGN_OBJECT: 60,
                       store.TEST_CASE: 20, store.SOURCE_UNIT: 10}},
}

FILTERS = ("equal", "ancestor", "descendant", "equal-or-descendant", "sibling",
           "neighborhood:1", "neighborhood:2")
TARGET_KINDS = (None, None, store.DESIGN_OBJECT, store.TEST_CASE, store.SOURCE_UNIT,
                store.REQUIREMENT)
COVERAGE = (store.REQUIREMENT, store.DESIGN_OBJECT, "equal")


def repo_model(repo, include_proposed: bool = False):
    """Plain-data view of a repository for the nested-loop oracles."""
    parents = {code: node.parent for code, node in repo.taxonomy.nodes.items()}
    artifacts = {a.id: (a.kind, a.archived) for a in repo.artifacts.values()}
    wanted = {linkage.CONFIRMED, linkage.PROPOSED} if include_proposed else {linkage.CONFIRMED}
    codes_by_artifact: dict[str, set[str]] = {}
    for a in repo.assignments:
        if a.status in wanted and a.code is not None:
            codes_by_artifact.setdefault(a.artifact_id, set()).add(a.code)
    return parents, artifacts, codes_by_artifact


def _hits(hits) -> tuple:
    return tuple(
        (h.target, tuple((s, c, r.kind, r.distance) for s, c, r in h.via)) for h in hits
    )


def _coverage(report) -> tuple:
    return tuple(report.covered), tuple(report.uncovered), report.rate


def _digest(op, result) -> tuple:
    if op[0] == "trace":
        return _hits(result)
    return tuple((kind, _hits(hits)) for kind, hits in sorted(result.groups.items()))


class Query:
    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed, self.size = seed, SIZES[size]
        self.repo_path = os.path.join(workdir, "query.json")
        self.first_hashes: list | None = None
        self.coverage_hashes: list = []

    def setup(self) -> None:
        # Neither the previous set-up's repository nor the generated one is
        # held while the program loads, so the peak RSS is the program's.
        self.repo = None
        rng = random.Random(self.seed)
        generated = gen.link_repository(rng, self.size["classes"], self.size["kinds"],
                                        proposed_every=20)
        harness.save_apart(generated, self.repo_path)
        del generated
        self.repo = store.load_repository(self.repo_path)
        self.ops = self._plan(rng, self.repo)
        self.sample = set(rng.sample(range(len(self.ops)),
                                     min(self.size["sample"], len(self.ops))))

    def _plan(self, rng, repo) -> list[tuple]:
        """(call, source, target kind, filter, include proposed), skewed towards popular sources."""
        classified = sorted({a.artifact_id for a in repo.assignments
                             if a.status == linkage.CONFIRMED
                             and not repo.artifacts[a.artifact_id].archived})
        rng.shuffle(classified)
        requirements = [a for a in classified if repo.artifacts[a].kind == store.REQUIREMENT]
        req_weights = gen.zipf_weights(len(requirements), s=1.0)
        all_weights = gen.zipf_weights(len(classified), s=1.0)
        ops = []
        # Filters, target kinds and the trace/impact split cycle with the
        # op's position, so only sources and order depend on the seed.
        for i in range(self.size["ops"]):
            spec = FILTERS[i % len(FILTERS)]
            proposed = i % 10 == 9
            if i % 10 < 7:
                pool, weights = ((requirements, req_weights) if i % 5 else
                                 (classified, all_weights))
                source = rng.choices(pool, cum_weights=weights)[0]
                ops.append(("trace", source, TARGET_KINDS[i % len(TARGET_KINDS)], spec, proposed))
            else:
                source = rng.choices(classified, cum_weights=all_weights)[0]
                ops.append(("impact", source, None, spec, proposed))
        rng.shuffle(ops)
        return ops

    def _call(self, op):
        call, source, target_kind, spec, proposed = op
        f = query.parse_filter_spec(spec)
        if call == "trace":
            return query.trace(self.repo, source, target_kind, f, proposed)
        return query.impact(self.repo, source, f, proposed)

    def _coverage(self):
        from_kind, to_kind, spec = COVERAGE
        return query.coverage(self.repo, from_kind, to_kind, query.parse_filter_spec(spec))

    def warm_up(self) -> None:
        for op in self.ops[:5]:
            self._call(op)

    def round(self, rec: harness.Recorder) -> list[str]:
        hashes = []
        for op in self.ops:
            result = rec.op(self._call, op)
            # Only a hash of each result is kept, so that the peak RSS is
            # the program's; ``check`` calls the sampled operations again.
            hashes.append(None if result is None else hash(_digest(op, result)))
        if self.first_hashes is None:
            self.first_hashes = hashes
            return []
        return [f"op {i} {self.ops[i]} differs from the first round"
                for i, (a, b) in enumerate(zip(hashes, self.first_hashes)) if a != b]

    def bulk(self, rec: harness.Recorder) -> list[str]:
        report = rec.op(self._coverage, bulk=True)
        self.coverage_hashes.append(None if report is None else hash(_coverage(report)))
        if self.coverage_hashes[-1] == self.coverage_hashes[0]:
            return []
        return ["coverage differs from the first report"]

    def check(self) -> list[str]:
        errors = []
        models = {flag: repo_model(self.repo, flag) for flag in (False, True)}
        parents = models[False][0]
        dist = oracles.all_pairs_distances(parents)
        for i in sorted(self.sample):
            op = self.ops[i]
            if self.first_hashes[i] is None:
                continue
            digest = _digest(op, self._call(op))
            if hash(digest) != self.first_hashes[i]:
                errors.append(f"op {i} {op}: called again, it gives another result")
                continue
            call, source, target_kind, spec, proposed = op
            name, _, k = spec.partition(":")
            k = int(k) if k else None
            _, artifacts, codes = models[proposed]
            expected = oracles.trace_oracle(parents, dist, artifacts, codes, source,
                                            target_kind, name, k)
            if call == "trace":
                hits = digest
            else:
                hits = [hit for kind, group in digest for hit in group]
                if any(artifacts[t][0] != kind for kind, group in digest for t, _ in group):
                    errors.append(f"op {i} {op}: impact groups a target under the wrong kind")
            if {t for t, _ in hits} != expected:
                errors.append(f"op {i} {op}: hits differ from trace_oracle")
            for target, via in hits:
                pairs = {(s, c) for s in codes[source] for c in codes.get(target, ())
                         if oracles.pair_matches(parents, dist, name, k, s, c)}
                if {(s, c) for s, c, _, _ in via} != pairs:
                    errors.append(f"op {i} {op}: via pairs of {target} differ from the oracle")
                for s, c, kind, distance in via:
                    if (kind, distance) != oracles.relation_oracle(parents, dist, c, s):
                        errors.append(f"op {i} {op}: relation {c} from {s} differs from relation_oracle")
        errors += self._check_coverage(parents, dist, models[False])
        return errors

    def _check_coverage(self, parents, dist, model) -> list[str]:
        if self.coverage_hashes[0] is None:
            return []
        digest = _coverage(self._coverage())
        if hash(digest) != self.coverage_hashes[0]:
            return ["coverage, run again, gives another report"]
        covered, uncovered, rate = digest
        from_kind, to_kind, spec = COVERAGE
        _, artifacts, codes = model
        want_covered, want_uncovered = [], []
        for artifact_id in sorted(artifacts):
            kind, archived = artifacts[artifact_id]
            if kind != from_kind or archived:
                continue
            hit = codes.get(artifact_id) and oracles.trace_oracle(
                parents, dist, artifacts, codes, artifact_id, to_kind, spec, None)
            (want_covered if hit else want_uncovered).append(artifact_id)
        errors = []
        if list(covered) != want_covered or list(uncovered) != want_uncovered:
            errors.append("coverage splits covered from uncovered unlike the oracle")
        if rate != Fraction(len(covered), len(covered) + len(uncovered)):
            errors.append(f"coverage rate {rate} is not covered/total")
        return errors
