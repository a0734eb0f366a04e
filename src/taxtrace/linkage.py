"""Assignment edits, artifact splits, and edit-log replay.

An assignment is one half-link: it ties an artifact to a taxonomy class.
``store`` declares the assignment and edit-log records and owns their file
format; this module edits them, and keeps the link index over them.
Traces between artifacts arise later by joining two half-links through a
taxonomy relation; the repository itself never stores artifact-to-artifact
links.  Every assignment change is logged, and replaying the log must
reconstruct the active assignment set exactly.

Rejected assignments are kept with flipped status rather than deleted, so
the history of who linked what (and why it was undone) stays auditable.
A split archives the original, and an archived artifact is not split
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

from .errors import (
    ArchivedArtifact,
    DuplicateAssignment,
    DuplicateId,
    InvalidCategory,
    TooFewParts,
    UnknownAssignment,
    UnknownId,
)
# IMPORTED and DIRECT are unused here, but importable from here with their kin.
from .store import (ADD, CONFIRMED, DELETE, DIRECT, IMPORTED, MANUAL, PROPOSED, PROVENANCES,
                    REJECTED, SUGGESTED, TAXONOMIC, UNCLASSIFIABLE, Artifact, Assignment,
                    EditRecord, Repository, check_kind, get_artifact)
from .taxonomy import normalize_code

# Reasons an artifact can resist classification.
REASON_CATEGORIES = (
    "vagueness",
    "compound",
    "context-dependency",
    "similar-classes",
    "varying-terminology",
    "low-specificity",
)


def utc_now(override: str | None = None) -> str:
    """Clock seam: callers inject a timestamp to keep outputs reproducible."""
    if override is not None:
        return override
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _position(items: list, record) -> int:
    """The index of ``record`` in ``items``, found by identity."""
    return next(i for i, x in enumerate(items) if x is record)


@dataclass
class LinkIndex:
    """Active half-links per artifact and per code, and each artifact's marker.

    Entries are the repository's own ``Assignment`` objects, in file
    order, so the first of two active records for one pair wins, as in a
    scan.  Only confirmed and proposed assignments are listed; ``markers``
    holds each artifact's first unclassifiable marker.
    """

    by_artifact: dict[str, list[Assignment]] = field(default_factory=dict)
    by_code: dict[str, list[Assignment]] = field(default_factory=dict)
    markers: dict[str, Assignment] = field(default_factory=dict)

    def add(self, a: Assignment) -> None:
        if a.status == UNCLASSIFIABLE:
            self.markers.setdefault(a.artifact_id, a)
        elif a.status != REJECTED:
            self.by_artifact.setdefault(a.artifact_id, []).append(a)
            self.by_code.setdefault(a.code, []).append(a)

    def remove(self, a: Assignment) -> None:
        """Drop an active assignment, found by identity."""
        for entries, key in ((self.by_artifact, a.artifact_id), (self.by_code, a.code)):
            items = entries[key]
            del items[_position(items, a)]
            if not items:
                del entries[key]

    def find(self, artifact_id: str, code: str) -> Assignment | None:
        """The first active assignment of ``code`` to the artifact, if any."""
        for a in self.by_artifact.get(artifact_id, ()):
            if a.code == code:
                return a
        return None

    def codes(self, artifact_id: str, include_proposed: bool = False) -> set[str]:
        """Codes of an artifact: confirmed, optionally proposed."""
        return {
            a.code
            for a in self.by_artifact.get(artifact_id, ())
            if include_proposed or a.status == CONFIRMED
        }


def links(repo: Repository) -> LinkIndex:
    """The repository's link index, built in one pass on first use.

    From then on ``assign``, ``unassign`` and ``mark_unclassifiable``
    keep it up to date; nothing else may change ``repo.assignments``.
    """
    if repo.links is None:
        index = LinkIndex()
        for a in repo.assignments:
            index.add(a)
        repo.links = index
    return repo.links


def active_codes(repo: Repository, artifact_id: str, include_proposed: bool = False) -> set[str]:
    """Codes currently assigned to an artifact (confirmed, optionally proposed)."""
    return links(repo).codes(artifact_id, include_proposed)


def assign(
    repo: Repository,
    artifact_id: str,
    code: str,
    provenance: str = MANUAL,
    now: str | None = None,
) -> Assignment:
    """Create a half-link from an artifact to a taxonomy class.

    Manual and imported assignments count as human-confirmed; suggested
    ones start as proposed until someone confirms them.  Re-assigning a
    previously rejected pair creates a fresh record.
    """
    if provenance not in PROVENANCES:
        raise ValueError(f"unknown provenance {provenance!r}")
    if artifact_id not in repo.artifacts:
        raise UnknownId(f"no artifact with id {artifact_id!r}")
    normalized = repo.taxonomy.resolve(code)
    index = links(repo)
    if index.find(artifact_id, normalized) is not None:
        raise DuplicateAssignment(
            f"artifact {artifact_id!r} is already assigned code {normalized!r}"
        )
    assignment = Assignment(
        artifact_id=artifact_id,
        code=normalized,
        provenance=provenance,
        status=PROPOSED if provenance == SUGGESTED else CONFIRMED,
        created_at=utc_now(now),
    )
    repo.assignments.append(assignment)
    index.add(assignment)
    repo.edit_log.append(
        EditRecord(ADD, TAXONOMIC, (artifact_id, normalized), cause="assign")
    )
    return assignment


def unassign(repo: Repository, artifact_id: str, code: str, now: str | None = None) -> Assignment:
    """Retire a half-link: a rejected copy takes its place, and is returned; history stays."""
    normalized = normalize_code(code)
    index = links(repo)
    a = index.find(artifact_id, normalized)
    if a is None:
        raise UnknownAssignment(
            f"artifact {artifact_id!r} has no active assignment to code {normalized!r}"
        )
    index.remove(a)
    rejected = replace(a, status=REJECTED)
    repo.assignments[_position(repo.assignments, a)] = rejected
    repo.edit_log.append(
        EditRecord(DELETE, TAXONOMIC, (artifact_id, normalized), cause="unassign")
    )
    return rejected


def mark_unclassifiable(
    repo: Repository,
    artifact_id: str,
    reason_category: str,
    note: str | None = None,
    now: str | None = None,
) -> Assignment:
    """Record that no class fits an artifact, with the reason why.

    Idempotent per artifact: marking again replaces the existing marker
    with one of the new note, in its place, and returns it.  No edit-log
    entry is written because no link changes.
    """
    if artifact_id not in repo.artifacts:
        raise UnknownId(f"no artifact with id {artifact_id!r}")
    if reason_category not in REASON_CATEGORIES:
        raise InvalidCategory(
            f"reason {reason_category!r} is not one of {', '.join(REASON_CATEGORIES)}"
        )
    text = f"{reason_category}: {note}" if note else reason_category
    index = links(repo)
    marker = index.markers.get(artifact_id)
    if marker is not None:
        remarked = replace(marker, note=text)
        repo.assignments[_position(repo.assignments, marker)] = remarked
        index.markers[artifact_id] = remarked
        return remarked
    assignment = Assignment(
        artifact_id=artifact_id,
        code=None,
        provenance=MANUAL,
        status=UNCLASSIFIABLE,
        note=text,
        created_at=utc_now(now),
    )
    repo.assignments.append(assignment)
    index.add(assignment)
    return assignment


def unclassifiable_reason(assignment: Assignment) -> str | None:
    """Extract the reason category from an unclassifiable marker's note."""
    if assignment.status != UNCLASSIFIABLE or not assignment.note:
        return None
    return assignment.note.split(":", 1)[0].strip()


@dataclass
class SplitOutcome:
    original_id: str
    part_ids: list[str]
    deletes: int
    adds: int
    warnings: list[str] = field(default_factory=list)


def split_artifact(
    repo: Repository,
    artifact_id: str,
    parts: list[Artifact],
    code_allocation: dict[str, set[str]],
    now: str | None = None,
) -> SplitOutcome:
    """Replace an artifact by two or more parts, reallocating its codes.

    The original stays on record: an archived copy takes its place.  Its
    half-links are retired and each part receives the codes allocated to
    it; every change lands in the edit log.  A warning (not an error) is
    returned when the parts do not jointly cover the original's codes.
    Every part is checked before any is added, so a rejected split
    changes nothing; so is a split of an archived artifact.
    """
    original = get_artifact(repo, artifact_id)
    if original.archived:
        raise ArchivedArtifact(f"artifact {artifact_id!r} is archived")
    if len(parts) < 2:
        raise TooFewParts(f"split of {artifact_id!r} needs at least 2 parts, got {len(parts)}")
    part_ids = [p.id for p in parts]
    if len(set(part_ids)) != len(part_ids):
        raise ValueError("split parts must have distinct ids")
    for part in parts:
        check_kind(part.kind)
        if part.id in repo.artifacts:
            raise DuplicateId(f"artifact id {part.id!r} already exists")
    unknown_targets = set(code_allocation) - set(part_ids)
    if unknown_targets:
        raise ValueError(f"code_allocation names unknown parts {sorted(unknown_targets)}")
    allocation = {
        part_id: {repo.taxonomy.resolve(c) for c in codes}
        for part_id, codes in code_allocation.items()
    }
    original_codes = active_codes(repo, artifact_id, include_proposed=True)
    allocated_union = set().union(*allocation.values()) if allocation else set()
    warnings = []
    uncovered = original_codes - allocated_union
    if uncovered:
        warnings.append(
            f"codes {sorted(uncovered)} of {artifact_id!r} are not allocated to any part"
        )
    for part in parts:
        repo.artifacts[part.id] = part
    deletes = 0
    for code in sorted(original_codes):
        unassign(repo, artifact_id, code, now=now)
        deletes += 1
    adds = 0
    for part_id in part_ids:
        for code in sorted(allocation.get(part_id, set())):
            assign(repo, part_id, code, provenance=MANUAL, now=now)
            adds += 1
    repo.artifacts[artifact_id] = replace(original, archived=True)
    return SplitOutcome(artifact_id, part_ids, deletes, adds, warnings)


def replay_edit_log(edit_log: list[EditRecord]) -> set[tuple[str, str]]:
    """Fold the log into the set of active (artifact, code) half-links."""
    state: set[tuple[str, str]] = set()
    for record in edit_log:
        if record.link_kind != TAXONOMIC:
            continue
        pair = record.endpoints
        if record.op == ADD:
            if pair in state:
                raise UnknownAssignment(f"log adds already-present pair {pair!r}")
            state.add(pair)
        else:
            if pair not in state:
                raise UnknownAssignment(f"log deletes absent pair {pair!r}")
            state.remove(pair)
    return state

