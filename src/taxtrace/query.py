"""Trace retrieval, coverage, and change-impact over assigned classes.

A trace between two artifacts is never stored; it is computed by joining
their class assignments through a taxonomy relation filter.  The filter
describes where the target's code may sit relative to the source's code:
equal, above (ancestor), below (descendant), equal-or-descendant, sibling,
or within a breadth-first neighborhood of radius k.

Only human-confirmed assignments count by default; proposed ones join in
behind an explicit flag.  Rejected assignments and archived artifacts
never participate.  Everything here is read-only.

Both read the repository's link index (``linkage.links``): codes per
artifact and artifacts per code.  A trace reads only the artifacts under
its admissible codes and computes each code pair's relation once;
coverage runs no trace, but memoizes up to two targets per source code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EmptyClassification, UnknownId
from .linkage import links
from .store import CONFIRMED, Repository, check_kind, get_artifact
from .taxonomy import (
    Relation,
    Taxonomy,
    ancestors,
    descendants,
    neighborhood,
    relation,
)

EQUAL = "equal"
ANCESTOR_OF = "ancestor"
DESCENDANT_OF = "descendant"
EQUAL_OR_DESCENDANT = "equal-or-descendant"
SIBLING_OF = "sibling"
NEIGHBORHOOD = "neighborhood"

FILTER_KINDS = (
    EQUAL,
    ANCESTOR_OF,
    DESCENDANT_OF,
    EQUAL_OR_DESCENDANT,
    SIBLING_OF,
    NEIGHBORHOOD,
)

COUNT_UNCLASSIFIABLE = "count-unclassifiable"
EXCLUDE_UNCLASSIFIABLE = "exclude-unclassifiable"
POLICIES = (COUNT_UNCLASSIFIABLE, EXCLUDE_UNCLASSIFIABLE)


@dataclass
class RelationFilter:
    """Admissible relation between a target code and a source code."""

    kind: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == NEIGHBORHOOD:
            if self.k is None or self.k < 0:
                raise ValueError("neighborhood filter needs a non-negative k")
        elif self.k is not None:
            raise ValueError(f"filter {self.kind!r} takes no k")

    def spec(self) -> str:
        return f"{self.kind}:{self.k}" if self.kind == NEIGHBORHOOD else self.kind


def parse_filter_spec(spec: str) -> RelationFilter:
    """Parse the shell-friendly grammar `name` or `neighborhood:k`."""
    name, sep, rest = spec.partition(":")
    if not sep:
        return RelationFilter(name)
    if name != NEIGHBORHOOD:
        raise ValueError(f"only the neighborhood filter takes a parameter, not {name!r}")
    try:
        k = int(rest)
    except ValueError:
        raise ValueError(f"neighborhood radius {rest!r} is not an integer") from None
    return RelationFilter(name, k)


def _admissible_codes(t: Taxonomy, f: RelationFilter, source_code: str) -> set[str]:
    """Target codes satisfying the filter for one source code."""
    if f.kind == EQUAL:
        return {source_code}
    if f.kind == DESCENDANT_OF:
        return set(descendants(t, source_code))
    if f.kind == ANCESTOR_OF:
        return set(ancestors(t, source_code))
    if f.kind == EQUAL_OR_DESCENDANT:
        return {source_code} | set(descendants(t, source_code))
    if f.kind == SIBLING_OF:
        # Classes sharing the source's parent; roots share the absent parent.
        code = t.resolve(source_code)
        parent = t.nodes[code].parent
        return set(t.roots if parent is None else t.children[parent]) - {code}
    assert f.k is not None
    return set(neighborhood(t, source_code, f.k))


@dataclass
class TraceHit:
    """One traced target with every code pair that justified it."""

    target: str
    via: list[tuple[str, str, Relation]]


def _is_target(repo: Repository, target_id: str, source_id: str, target_kind: str | None) -> bool:
    target = repo.artifacts[target_id]
    return (
        target_id != source_id
        and not target.archived
        and (target_kind is None or target.kind == target_kind)
    )


def trace(
    repo: Repository,
    source_id: str,
    target_kind: str | None,
    f: RelationFilter,
    include_proposed: bool = False,
) -> list[TraceHit]:
    """Targets whose codes relate to the source's codes per the filter.

    Raises EmptyClassification when the source carries no usable
    assignment: an unclassified artifact cannot be traced from, and
    ValueError for a target kind that no artifact can have.
    """
    if target_kind is not None:
        check_kind(target_kind)
    get_artifact(repo, source_id)
    index = links(repo)
    source_codes = index.codes(source_id, include_proposed)
    if not source_codes:
        raise EmptyClassification(f"artifact {source_id!r} has no confirmed classification")
    t = repo.taxonomy
    via: dict[str, list[tuple[str, str, Relation]]] = {}
    for s in sorted(source_codes):
        for c in sorted(index.by_code.keys() & _admissible_codes(t, f, s)):
            pair = (s, c, relation(t, c, s))
            for a in index.by_code[c]:
                if not (include_proposed or a.status == CONFIRMED):
                    continue
                if not _is_target(repo, a.artifact_id, source_id, target_kind):
                    continue
                hits = via.setdefault(a.artifact_id, [])
                # A second active record of the same target under c adds nothing.
                if not hits or hits[-1] is not pair:
                    hits.append(pair)
    return [TraceHit(target=target_id, via=via[target_id]) for target_id in sorted(via)]


def _two_targets(repo: Repository, f: RelationFilter, source_code: str, kind: str,
                 include_proposed: bool) -> list[str]:
    """Up to two distinct unarchived targets of ``kind`` usably linked to an admissible code."""
    index = links(repo)
    found: list[str] = []
    for c in index.by_code.keys() & _admissible_codes(repo.taxonomy, f, source_code):
        for a in index.by_code[c]:
            target_id = a.artifact_id
            if (include_proposed or a.status == CONFIRMED) and target_id not in found:
                target = repo.artifacts[target_id]
                if target.kind == kind and not target.archived:
                    found.append(target_id)
                    if len(found) == 2:
                        return found
    return found


@dataclass
class CoverageReport:
    covered: list[str]
    uncovered: list[str]
    rate: Fraction
    policy: str


def coverage(
    repo: Repository,
    from_kind: str,
    to_kind: str | None,
    f: RelationFilter | None = None,
    policy: str = COUNT_UNCLASSIFIABLE,
    include_proposed: bool = False,
) -> CoverageReport:
    """Which from-kind artifacts reach any to-kind artifact under the filter.

    With ``to_kind`` None the question degenerates to classification
    coverage: an artifact is covered as soon as it carries a usable
    assignment.  The exclude-unclassifiable policy drops artifacts that
    were explicitly marked unclassifiable and carry no usable code from
    both lists and from the denominator; the default counts them as
    uncovered.  A marked artifact that was classified since is judged
    like any other.

    Each source code is looked up once, on first use: its memo holds up
    to two distinct usable targets under its admissible codes.  Two are
    enough, because a source must not cover itself when ``from_kind ==
    to_kind``: with two, one is another artifact; with one, it is the only
    target there is.  A source's remaining links go unread once one covers it.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown coverage policy {policy!r}")
    check_kind(from_kind)
    if to_kind is not None:
        check_kind(to_kind)
        f = require_filter(f)
    index = links(repo)
    reach: dict[str, list[str]] = {}
    covered: list[str] = []
    uncovered: list[str] = []
    for artifact_id in sorted(key for key, a in repo.artifacts.items()
                              if a.kind == from_kind and not a.archived):
        usable = False
        for a in index.by_artifact.get(artifact_id, ()):
            if include_proposed or a.status == CONFIRMED:
                usable = True
                if to_kind is None:
                    break
                targets = reach.get(a.code)
                if targets is None:
                    targets = reach[a.code] = _two_targets(repo, f, a.code, to_kind,
                                                           include_proposed)
                # Distinct targets: another artifact is there unless the source is alone.
                if targets and targets != [artifact_id]:
                    break
        else:
            if usable or policy != EXCLUDE_UNCLASSIFIABLE or artifact_id not in index.markers:
                uncovered.append(artifact_id)
            continue
        covered.append(artifact_id)
    total = len(covered) + len(uncovered)
    rate = Fraction(len(covered), total) if total else Fraction(1)
    return CoverageReport(covered=covered, uncovered=uncovered, rate=rate, policy=policy)


@dataclass
class ImpactReport:
    changed: str
    groups: dict[str, list[TraceHit]] = field(default_factory=dict)


def impact(
    repo: Repository,
    changed_id: str,
    f: RelationFilter,
    include_proposed: bool = False,
) -> ImpactReport:
    """Artifacts of every kind traced from the changed one, grouped by kind."""
    hits = trace(repo, changed_id, None, f, include_proposed)
    groups: dict[str, list[TraceHit]] = {}
    for hit in hits:
        groups.setdefault(repo.artifacts[hit.target].kind, []).append(hit)
    return ImpactReport(changed=changed_id, groups=groups)


def require_filter(f: RelationFilter | None) -> RelationFilter:
    """Default to class equality when no filter was given."""
    return f if f is not None else RelationFilter(EQUAL)
