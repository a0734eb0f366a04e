"""Artifact-to-class assignments, splits, and maintenance-cost accounting.

An assignment is one half-link: it ties an artifact to a taxonomy class.
Traces between artifacts arise later by joining two half-links through a
taxonomy relation; the repository itself never stores artifact-to-artifact
links.  Every assignment change is logged, and replaying the log must
reconstruct the active assignment set exactly.

Rejected assignments are kept with flipped status rather than deleted, so
the history of who linked what (and why it was undone) stays auditable.

``maintenance_cost`` compares the bookkeeping burden of the taxonomic
strategy against classic direct artifact-to-artifact linking on small
declarative scenarios.  The direct strategy exists only inside that
simulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import TYPE_CHECKING

from .errors import (
    DuplicateAssignment,
    DuplicateId,
    EmptyCode,
    InvalidCategory,
    MalformedRecord,
    MalformedScenario,
    TooFewParts,
    UnknownAssignment,
    UnknownId,
)
from .taxonomy import normalize_code

if TYPE_CHECKING:
    from .store import Artifact, Repository

MANUAL = "manual"
SUGGESTED = "suggested"
IMPORTED = "imported"
PROVENANCES = frozenset({MANUAL, SUGGESTED, IMPORTED})

CONFIRMED = "confirmed"
PROPOSED = "proposed"
REJECTED = "rejected"
UNCLASSIFIABLE = "unclassifiable"
STATUSES = frozenset({CONFIRMED, PROPOSED, REJECTED, UNCLASSIFIABLE})

ADD = "add"
DELETE = "delete"
TAXONOMIC = "taxonomic"
DIRECT = "direct"

# Reasons an artifact can resist classification.
REASON_CATEGORIES = (
    "vagueness",
    "compound",
    "context-dependency",
    "similar-classes",
    "varying-terminology",
    "low-specificity",
)


_STR_OR_NONE = (str, type(None))


def utc_now(override: str | None = None) -> str:
    """Clock seam: callers inject a timestamp to keep outputs reproducible."""
    if override is not None:
        return override
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class Assignment:
    """One artifact-to-class half-link, or an unclassifiable marker.

    ``code`` is None exactly when status is unclassifiable; the note then
    starts with the reason category.
    """

    artifact_id: str
    code: str | None
    provenance: str
    status: str
    note: str | None = None
    created_at: str = ""

    def to_dict(self) -> dict:
        return {
            "artifact_id": self.artifact_id,
            "code": self.code,
            "provenance": self.provenance,
            "status": self.status,
            "note": self.note,
            "created_at": self.created_at,
        }

    @staticmethod
    def from_dict(doc: dict, where: str) -> "Assignment":
        if not isinstance(doc, dict):
            raise MalformedRecord(f"{where}: expected an object")
        get = doc.get
        artifact_id = get("artifact_id")
        if not isinstance(artifact_id, str):
            raise MalformedRecord(f"{where}: missing artifact_id")
        # The str check first: a list or an object is not hashable.
        provenance = get("provenance")
        if not isinstance(provenance, str) or provenance not in PROVENANCES:
            raise MalformedRecord(f"{where}: unknown provenance {provenance!r}")
        status = get("status")
        if not isinstance(status, str) or status not in STATUSES:
            raise MalformedRecord(f"{where}: unknown status {status!r}")
        code = get("code")
        if code is not None and not isinstance(code, str):
            raise MalformedRecord(f"{where}: code must be a string or null")
        if (code is None) != (status == UNCLASSIFIABLE):
            raise MalformedRecord(f"{where}: code must be null exactly for unclassifiable status")
        note, created_at = get("note"), get("created_at")
        if not (isinstance(note, _STR_OR_NONE) and isinstance(created_at, _STR_OR_NONE)):
            key = "note" if not isinstance(note, _STR_OR_NONE) else "created_at"
            raise MalformedRecord(f"{where}: {key} must be a string or null")
        return Assignment(artifact_id, code, provenance, status, note, created_at or "")


@dataclass
class EditRecord:
    """One entry of the append-only link edit log."""

    op: str
    link_kind: str
    endpoints: tuple[str, str]
    cause: str

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "link_kind": self.link_kind,
            "endpoints": list(self.endpoints),
            "cause": self.cause,
        }

    @staticmethod
    def from_dict(doc: dict, where: str) -> "EditRecord":
        if not isinstance(doc, dict):
            raise MalformedRecord(f"{where}: expected an object")
        get = doc.get
        op, link_kind, endpoints = get("op"), get("link_kind"), get("endpoints")
        if op not in (ADD, DELETE):
            raise MalformedRecord(f"{where}: unknown op {op!r}")
        if link_kind not in (TAXONOMIC, DIRECT):
            raise MalformedRecord(f"{where}: unknown link_kind {link_kind!r}")
        if not (
            isinstance(endpoints, list)
            and len(endpoints) == 2
            and isinstance(endpoints[0], str)
            and isinstance(endpoints[1], str)
        ):
            raise MalformedRecord(f"{where}: endpoints must be a pair of strings")
        cause = get("cause")
        if not isinstance(cause, _STR_OR_NONE):
            raise MalformedRecord(f"{where}: cause must be a string or null")
        return EditRecord(op, link_kind, tuple(endpoints), cause or "")


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
            del items[next(i for i, x in enumerate(items) if x is a)]
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


def links(repo: "Repository") -> LinkIndex:
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


def active_codes(repo: "Repository", artifact_id: str, include_proposed: bool = False) -> set[str]:
    """Codes currently assigned to an artifact (confirmed, optionally proposed)."""
    return links(repo).codes(artifact_id, include_proposed)


def assign(
    repo: "Repository",
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


def unassign(repo: "Repository", artifact_id: str, code: str, now: str | None = None) -> Assignment:
    """Retire a half-link and return it: status flips to rejected, history stays."""
    normalized = normalize_code(code)
    index = links(repo)
    a = index.find(artifact_id, normalized)
    if a is None:
        raise UnknownAssignment(
            f"artifact {artifact_id!r} has no active assignment to code {normalized!r}"
        )
    index.remove(a)
    a.status = REJECTED
    repo.edit_log.append(
        EditRecord(DELETE, TAXONOMIC, (artifact_id, normalized), cause="unassign")
    )
    return a


def mark_unclassifiable(
    repo: "Repository",
    artifact_id: str,
    reason_category: str,
    note: str | None = None,
    now: str | None = None,
) -> Assignment:
    """Record that no class fits an artifact, with the reason why.

    Idempotent per artifact: marking again updates the existing record.
    No edit-log entry is written because no link changes.
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
        marker.note = text
        return marker
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

    def to_dict(self) -> dict:
        return {
            "original_id": self.original_id,
            "part_ids": list(self.part_ids),
            "deletes": self.deletes,
            "adds": self.adds,
            "warnings": list(self.warnings),
        }


def split_artifact(
    repo: "Repository",
    artifact_id: str,
    parts: list["Artifact"],
    code_allocation: dict[str, set[str]],
    now: str | None = None,
) -> SplitOutcome:
    """Replace an artifact by two or more parts, reallocating its codes.

    The original stays on record as archived.  Its half-links are retired
    and each part receives the codes allocated to it; every change lands
    in the edit log.  A warning (not an error) is returned when the parts
    do not jointly cover the original's codes.  Every part is checked
    before any is added, so a rejected split changes nothing.
    """
    from .store import check_kind, get_artifact

    original = get_artifact(repo, artifact_id)
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
    original.archived = True
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


# --- maintenance-cost scenarios ---

ADD_ARTIFACT = "add-artifact"
DELETE_ARTIFACT = "delete-artifact"
SPLIT = "split"
CHANGE_CODES = "change-codes"
MUTATION_TYPES = (ADD_ARTIFACT, DELETE_ARTIFACT, SPLIT, CHANGE_CODES)


@dataclass
class ScenarioArtifact:
    id: str
    kind: str
    codes: set[str] = field(default_factory=set)


@dataclass
class Mutation:
    type: str
    artifact: ScenarioArtifact | None = None
    id: str | None = None
    parts: list[ScenarioArtifact] = field(default_factory=list)
    codes: set[str] | None = None


@dataclass
class Scenario:
    """Declarative before-state plus one mutation, for cost comparison."""

    artifacts: list[ScenarioArtifact]
    mutation: Mutation
    links: list[tuple[str, str]] | None = None


@dataclass
class EditCount:
    adds: int
    deletes: int

    @property
    def touched(self) -> int:
        return self.adds + self.deletes

    def to_dict(self) -> dict:
        return {"adds": self.adds, "deletes": self.deletes, "touched": self.touched}


def _scenario_artifact(doc, where: str, seen_ids: set[str]) -> ScenarioArtifact:
    if not isinstance(doc, dict):
        raise MalformedScenario(f"{where}: expected an object")
    artifact_id = doc.get("id")
    if not isinstance(artifact_id, str) or not artifact_id:
        raise MalformedScenario(f"{where}: missing id")
    if artifact_id in seen_ids:
        raise MalformedScenario(f"{where}: duplicate id {artifact_id!r}")
    seen_ids.add(artifact_id)
    kind = doc.get("kind")
    if not isinstance(kind, str) or not kind:
        raise MalformedScenario(f"{where}: missing kind for {artifact_id!r}")
    raw_codes = doc.get("codes", [])
    if not isinstance(raw_codes, list):
        raise MalformedScenario(f"{where}: codes must be a list")
    try:
        codes = {normalize_code(str(c)) for c in raw_codes}
    except EmptyCode as exc:
        raise MalformedScenario(f"{where}: bad code ({exc})") from exc
    return ScenarioArtifact(id=artifact_id, kind=kind, codes=codes)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedScenario(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("artifacts"), list):
        raise MalformedScenario("expected an object with an 'artifacts' list")
    seen: set[str] = set()
    artifacts = [
        _scenario_artifact(item, f"artifacts[{i}]", seen)
        for i, item in enumerate(doc["artifacts"])
    ]
    known = {a.id for a in artifacts}
    links = None
    if doc.get("links") is not None:
        if not isinstance(doc["links"], list):
            raise MalformedScenario("links must be a list of pairs")
        links = []
        for i, pair in enumerate(doc["links"]):
            if not isinstance(pair, list) or len(pair) != 2:
                raise MalformedScenario(f"links[{i}]: expected a pair")
            a, b = str(pair[0]), str(pair[1])
            if a == b or a not in known or b not in known:
                raise MalformedScenario(f"links[{i}]: invalid endpoints {pair!r}")
            links.append((a, b))
    raw_mutation = doc.get("mutation")
    if not isinstance(raw_mutation, dict):
        raise MalformedScenario("expected a 'mutation' object")
    mtype = raw_mutation.get("type")
    if mtype not in MUTATION_TYPES:
        raise MalformedScenario(f"unknown mutation type {mtype!r}")
    mutation = Mutation(type=mtype)
    if mtype == ADD_ARTIFACT:
        mutation.artifact = _scenario_artifact(raw_mutation.get("artifact"), "mutation.artifact", seen)
    elif mtype == DELETE_ARTIFACT:
        mutation.id = raw_mutation.get("id")
        if mutation.id not in known:
            raise MalformedScenario(f"mutation deletes unknown artifact {mutation.id!r}")
    elif mtype == SPLIT:
        mutation.id = raw_mutation.get("id")
        if mutation.id not in known:
            raise MalformedScenario(f"mutation splits unknown artifact {mutation.id!r}")
        raw_parts = raw_mutation.get("parts")
        if not isinstance(raw_parts, list) or len(raw_parts) < 2:
            raise MalformedScenario("split mutation needs at least 2 parts")
        original_kind = next(a.kind for a in artifacts if a.id == mutation.id)
        for i, item in enumerate(raw_parts):
            if isinstance(item, dict) and "kind" not in item:
                item = dict(item, kind=original_kind)
            mutation.parts.append(_scenario_artifact(item, f"mutation.parts[{i}]", seen))
    else:
        mutation.id = raw_mutation.get("id")
        if mutation.id not in known:
            raise MalformedScenario(f"mutation recodes unknown artifact {mutation.id!r}")
        raw_codes = raw_mutation.get("codes")
        if not isinstance(raw_codes, list):
            raise MalformedScenario("change-codes mutation needs a 'codes' list")
        try:
            mutation.codes = {normalize_code(str(c)) for c in raw_codes}
        except EmptyCode as exc:
            raise MalformedScenario(f"mutation codes: {exc}") from exc
    return Scenario(artifacts=artifacts, mutation=mutation, links=links)


def _apply_mutation(scenario: Scenario) -> tuple[list[ScenarioArtifact], set[str]]:
    """Final artifact list plus the ids whose links the mutation touches."""
    m = scenario.mutation
    if m.type == ADD_ARTIFACT:
        assert m.artifact is not None
        return scenario.artifacts + [m.artifact], {m.artifact.id}
    if m.type == DELETE_ARTIFACT:
        return [a for a in scenario.artifacts if a.id != m.id], {m.id}
    if m.type == SPLIT:
        remaining = [a for a in scenario.artifacts if a.id != m.id]
        affected = {m.id} | {p.id for p in m.parts}
        return remaining + m.parts, affected
    after = []
    for a in scenario.artifacts:
        if a.id == m.id:
            assert m.codes is not None
            after.append(ScenarioArtifact(a.id, a.kind, set(m.codes)))
        else:
            after.append(a)
    return after, {m.id}


def _taxonomic_pairs(artifacts: list[ScenarioArtifact], ids: set[str]) -> set[tuple[str, str]]:
    return {(a.id, code) for a in artifacts if a.id in ids for code in a.codes}


def _direct_pairs(artifacts: list[ScenarioArtifact], ids: set[str]) -> set[frozenset]:
    """Required direct links touching ``ids``.

    Two artifacts need a direct link when they concern shared domain
    entities, which the scenario expresses as intersecting code sets, and
    they are of different kinds (a requirement and its tests, not two
    requirements).
    """
    pairs: set[frozenset] = set()
    for i, a in enumerate(artifacts):
        for b in artifacts[i + 1 :]:
            if a.id not in ids and b.id not in ids:
                continue
            if a.kind != b.kind and a.codes & b.codes:
                pairs.add(frozenset((a.id, b.id)))
    return pairs


def maintenance_cost(scenario: Scenario, strategy: str) -> EditCount:
    """Edits needed to keep links correct after the scenario's mutation.

    Under the taxonomic strategy only the mutated artifacts' class
    assignments change, so the cost never depends on how many other
    artifacts exist.  Under the direct strategy every related pair must
    be linked, so the cost scales with the artifacts the change touches.
    Explicit ``links`` in the scenario, when present, stand in for the
    derived before-state of the direct strategy.
    """
    if strategy not in (TAXONOMIC, DIRECT):
        raise ValueError(f"unknown strategy {strategy!r}")
    after_artifacts, affected = _apply_mutation(scenario)
    if strategy == TAXONOMIC:
        before = _taxonomic_pairs(scenario.artifacts, affected)
        after = _taxonomic_pairs(after_artifacts, affected)
    else:
        if scenario.links is not None:
            before = {
                frozenset(pair)
                for pair in scenario.links
                if set(pair) & affected
            }
        else:
            before = _direct_pairs(scenario.artifacts, affected)
        after = _direct_pairs(after_artifacts, affected)
    return EditCount(adds=len(after - before), deletes=len(before - after))
