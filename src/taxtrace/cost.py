"""Maintenance cost of trace links: taxonomic against direct linking.

A scenario declares artifacts, each with a kind and codes, and one
mutation: add an artifact, delete one, split one, or change its codes.
``maintenance_cost`` counts the link edits the mutation needs: class
assignments of the touched artifacts under the taxonomic strategy, or
direct artifact-to-artifact links, which exist only in this simulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import EmptyCode, MalformedScenario
from .store import DIRECT, TAXONOMIC
from .taxonomy import normalize_code

ADD_ARTIFACT = "add-artifact"
DELETE_ARTIFACT = "delete-artifact"
SPLIT = "split"
CHANGE_CODES = "change-codes"
MUTATION_TYPES = (ADD_ARTIFACT, DELETE_ARTIFACT, SPLIT, CHANGE_CODES)

# What a mutation of an existing artifact does to it, for its refusal.
_VERBS = {DELETE_ARTIFACT: "deletes", SPLIT: "splits", CHANGE_CODES: "recodes"}


@dataclass
class ScenarioArtifact:
    id: str
    kind: str
    codes: set[str] = field(default_factory=set)


@dataclass
class Scenario:
    """A before-state, the after-state its one mutation leaves, and the ids it touches."""

    artifacts: list[ScenarioArtifact]
    after: list[ScenarioArtifact]
    affected: set[str]
    links: list[tuple[str, str]] | None = None


@dataclass
class EditCount:
    adds: int
    deletes: int

    @property
    def touched(self) -> int:
        return self.adds + self.deletes


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
    """Parse and validate a scenario document from JSON text, and apply its mutation."""
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
    if mtype == ADD_ARTIFACT:
        added = _scenario_artifact(raw_mutation.get("artifact"), "mutation.artifact", seen)
        return Scenario(artifacts, artifacts + [added], {added.id}, links)
    target = raw_mutation.get("id")
    if target not in known:
        raise MalformedScenario(f"mutation {_VERBS[mtype]} unknown artifact {target!r}")
    rest = [a for a in artifacts if a.id != target]
    if mtype == DELETE_ARTIFACT:
        return Scenario(artifacts, rest, {target}, links)
    original = next(a for a in artifacts if a.id == target)
    if mtype == SPLIT:
        raw_parts = raw_mutation.get("parts")
        if not isinstance(raw_parts, list) or len(raw_parts) < 2:
            raise MalformedScenario("split mutation needs at least 2 parts")
        parts = []
        for i, item in enumerate(raw_parts):
            if isinstance(item, dict) and "kind" not in item:
                item = dict(item, kind=original.kind)
            parts.append(_scenario_artifact(item, f"mutation.parts[{i}]", seen))
        return Scenario(artifacts, rest + parts, {target} | {p.id for p in parts}, links)
    raw_codes = raw_mutation.get("codes")
    if not isinstance(raw_codes, list):
        raise MalformedScenario("change-codes mutation needs a 'codes' list")
    try:
        codes = {normalize_code(str(c)) for c in raw_codes}
    except EmptyCode as exc:
        raise MalformedScenario(f"mutation codes: {exc}") from exc
    after = [ScenarioArtifact(a.id, a.kind, codes) if a is original else a for a in artifacts]
    return Scenario(artifacts, after, {target}, links)


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
    affected = scenario.affected
    pairs = _taxonomic_pairs if strategy == TAXONOMIC else _direct_pairs
    if strategy == DIRECT and scenario.links is not None:
        before = {frozenset(pair) for pair in scenario.links if set(pair) & affected}
    else:
        before = pairs(scenario.artifacts, affected)
    after = pairs(scenario.after, affected)
    return EditCount(adds=len(after - before), deletes=len(before - after))
