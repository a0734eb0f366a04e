"""Shared fixtures: the 11-class taxonomy sample, repos built on it, and
seeded random generators used by the oracle-comparison tests."""

import hashlib
import json

import pytest

from taxtrace import linkage, store
from taxtrace.errors import DuplicateAssignment
from taxtrace.store import Artifact
from taxtrace.taxonomy import Taxonomy, TaxonomyNode, parse_taxonomy

import oracles

NOW = "2026-01-15T09:00:00+00:00"

# Eleven SB11-style classes: three one-digit roots with their nested
# superstructure codes, fence-related codes, power and lighting codes,
# and a tunnel code.  Parents follow the hierarchy, not code prefixes:
# the fence codes stand alone at top level here.
CANONICAL_TAXONOMY_CSV = """\
code,parent,title,description,synonyms
1,,Compound building components,,
2,,Support structures,,
3,,Superstructures and ancillary structures,,
31,3,Superstructures,,
31B,31,Superstructure for roads and flat areas,,
32QD,,Fences,Wild and game fences along transport routes,
32QG,,"Gates, gateways",Opening and closing devices in fences,
32GDC,,Fencing for road facilities,,
63N,,"Backup, uninterruptible or emergency power",,auxiliary power
63FH,,Emergency lighting,,
18B,1,Concrete tunnels,Tunnels of concrete for service and access,
"""

# The same node set with two leaf classes below the fences code, for
# equal-or-descendant queries.
FENCES_TAXONOMY_CSV = CANONICAL_TAXONOMY_CSV + """\
32QD1,32QD,Wildlife fences,,
32QD2,32QD,Game fences,,
"""


@pytest.fixture
def canon_tax():
    return parse_taxonomy(CANONICAL_TAXONOMY_CSV)


@pytest.fixture
def fences_tax():
    return parse_taxonomy(FENCES_TAXONOMY_CSV)


# Codes of the six sampled requirements, plus the round-robin pool for
# the rest of the 27-requirement fixture.
SAMPLED_CODES = {
    "R1": set(),
    "R2": {"18B", "32QG"},
    "R3": {"32QG"},
    "R4": {"32GDC"},
    "R5": {"63N"},
    "R6": {"18B", "63FH"},
}
EXTRA_CODE_POOL = ["18B", "32QG", "32GDC", "63N", "63FH", "32QD", "31B"]

SAMPLED_BODIES = {
    "R1": "The facility shall be of generally good quality.",
    "R2": "Tunnel access points shall be closable with gates.",
    "R3": "width of at least 25m",
    "R5": "An auxiliary power supply shall be available.",
    "R6": "Emergency lighting shall be provided in service and access tunnels",
}

# Twenty design objects and their classification codes.
OBJECT_CODES = {
    **{f"D{i:02d}": "18B" for i in range(1, 5)},
    **{f"D{i:02d}": "32QG" for i in range(5, 9)},
    **{f"D{i:02d}": "32GDC" for i in range(9, 12)},
    **{f"D{i:02d}": "63N" for i in range(12, 15)},
    **{f"D{i:02d}": "63FH" for i in range(15, 18)},
    **{f"D{i:02d}": "32QD" for i in range(18, 21)},
}


def make_object(object_id: str, code: str | None, version: str = "v1",
                type_label: str = "thing", salt: int = 0, **extra) -> Artifact:
    """A design object with a full, distinct set of fingerprint attributes."""
    digest = hashlib.sha1(f"{object_id}|{salt}".encode()).hexdigest()
    base = int(digest[:8], 16)
    attrs = {
        "surface_area": f"{base}.10",
        "base_area": f"{base}.20",
        "top_area": f"{base}.30",
        "lateral_area": f"{base}.40",
        "volume": f"{base}.50",
        "center_of_gravity": f"{base}.1;{base}.2;{base}.3",
        "type": type_label,
    }
    if code is not None:
        attrs["sb11_code"] = code
    attrs.update(extra)
    return Artifact(id=object_id, kind=store.DESIGN_OBJECT, title=object_id,
                    attrs=attrs, version=version)


def clone_object(obj: Artifact, new_id: str, version: str = "v2",
                 **attr_overrides) -> Artifact:
    """The same shape under a new export identifier."""
    attrs = dict(obj.attrs)
    attrs.update(attr_overrides)
    return Artifact(id=new_id, kind=obj.kind, title=new_id,
                    attrs=attrs, version=version)


def build_sampled_repo() -> store.Repository:
    """27 requirements (one unclassifiable) and 20 coded design objects."""
    repo = store.new_repository(parse_taxonomy(CANONICAL_TAXONOMY_CSV))
    for rid, codes in SAMPLED_CODES.items():
        store.add_artifact(repo, Artifact(
            id=rid, kind=store.REQUIREMENT, title=f"Requirement {rid}",
            body=SAMPLED_BODIES.get(rid),
        ))
        for code in sorted(codes):
            linkage.assign(repo, rid, code, now=NOW)
    linkage.mark_unclassifiable(repo, "R1", "vagueness", now=NOW)
    for i in range(7, 28):
        rid = f"R{i}"
        store.add_artifact(repo, Artifact(
            id=rid, kind=store.REQUIREMENT, title=f"Requirement {rid}",
        ))
        linkage.assign(repo, rid, EXTRA_CODE_POOL[(i - 7) % len(EXTRA_CODE_POOL)], now=NOW)
    for object_id in sorted(OBJECT_CODES):
        obj = make_object(object_id, OBJECT_CODES[object_id])
        store.add_artifact(repo, obj)
        linkage.assign(repo, object_id, OBJECT_CODES[object_id],
                       provenance=linkage.IMPORTED, now=NOW)
    return repo


@pytest.fixture
def sampled_repo():
    return build_sampled_repo()


def tax_from_parents(parents: dict[str, str | None]) -> Taxonomy:
    """Wrap an oracle-style parent map in a real taxonomy."""
    return Taxonomy({
        code: TaxonomyNode(code=code, title=f"Class {code}", parent=parent)
        for code, parent in parents.items()
    })


ALL_KINDS = sorted(store.ARTIFACT_KINDS)


def random_repo(rng, max_artifacts: int = 100, max_assignments: int = 300,
                taxonomy_nodes: int = 40) -> store.Repository:
    """A repository with mixed kinds, statuses, markers, and archived items."""
    repo = store.new_repository(tax_from_parents(oracles.random_forest(rng, taxonomy_nodes)))
    n = rng.randint(1, max_artifacts)
    ids = [f"A{i:03d}" for i in range(n)]
    for artifact_id in ids:
        store.add_artifact(repo, Artifact(
            id=artifact_id,
            kind=ALL_KINDS[rng.randrange(len(ALL_KINDS))],
            title=f"Artifact {artifact_id}",
        ))
        if rng.random() < 0.05:
            repo.artifacts[artifact_id].archived = True
    codes = sorted(repo.taxonomy.nodes)
    provenances = sorted(linkage.PROVENANCES)
    wanted = rng.randint(0, max_assignments)
    for _ in range(wanted):
        artifact_id = ids[rng.randrange(n)]
        code = codes[rng.randrange(len(codes))]
        try:
            linkage.assign(repo, artifact_id, code,
                           provenance=provenances[rng.randrange(3)], now=NOW)
        except DuplicateAssignment:
            continue
        if rng.random() < 0.15:
            linkage.unassign(repo, artifact_id, code, now=NOW)
    for _ in range(rng.randint(0, 4)):
        linkage.mark_unclassifiable(
            repo, ids[rng.randrange(n)],
            linkage.REASON_CATEGORIES[rng.randrange(len(linkage.REASON_CATEGORIES))],
            now=NOW,
        )
    return repo


def repo_model(repo: store.Repository, include_proposed: bool = False):
    """Plain-dict view of a repository for the nested-loop oracles."""
    parents = {code: node.parent for code, node in repo.taxonomy.nodes.items()}
    artifacts = {a.id: (a.kind, a.archived) for a in repo.artifacts.values()}
    wanted = {linkage.CONFIRMED, linkage.PROPOSED} if include_proposed else {linkage.CONFIRMED}
    codes_by_artifact: dict[str, set[str]] = {}
    for a in repo.assignments:
        if a.status in wanted and a.code is not None:
            codes_by_artifact.setdefault(a.artifact_id, set()).add(a.code)
    return parents, artifacts, codes_by_artifact


def _without_empty(record: dict, *optional: str) -> dict:
    """``record`` with each ``optional`` key left out whose value is None or empty."""
    return {k: v for k, v in record.items() if k not in optional or v not in (None, [])}


def keyed_document(repo: store.Repository, version: int = 2) -> dict:
    """The document a schema 1 or 2 file stored for ``repo``: one keyed object per record.

    An artifact's empty body, document and version, and a node's empty
    description, parent and synonyms, are left out, as those writers left
    them out.
    """
    nodes = repo.taxonomy.nodes
    return {
        "artifacts": [_without_empty({"archived": a.archived, "attrs": a.attrs, "body": a.body,
                                      "document": a.document, "id": a.id, "kind": a.kind,
                                      "title": a.title, "version": a.version},
                                     "body", "document", "version")
                      for _, a in sorted(repo.artifacts.items())],
        "assignments": [{"artifact_id": a.artifact_id, "code": a.code,
                         "created_at": a.created_at, "note": a.note,
                         "provenance": a.provenance, "status": a.status}
                        for a in repo.assignments],
        "edit_log": [{"cause": e.cause, "endpoints": list(e.endpoints),
                      "link_kind": e.link_kind, "op": e.op} for e in repo.edit_log],
        "schema_version": version,
        "taxonomy": {"nodes": [
            _without_empty({"code": n.code, "description": n.description, "parent": n.parent,
                            "synonyms": n.synonyms, "title": n.title},
                           "description", "parent", "synonyms")
            for _, n in sorted(nodes.items())]},
    }


def schema_1_text(repo: store.Repository) -> str:
    """The file the schema-1 writer made: the keyed document, indented."""
    return json.dumps(keyed_document(repo, 1), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def schema_2_text(repo: store.Repository) -> str:
    """The file the schema-2 writer made: the keyed document, one record per line."""
    doc = keyed_document(repo, 2)

    def lines(records):
        text = ",\n".join(json.dumps(r, sort_keys=True, ensure_ascii=False) for r in records)
        return f"[\n{text}\n]" if text else "[]"

    return (f'{{\n"artifacts": {lines(doc["artifacts"])},\n'
            f'"assignments": {lines(doc["assignments"])},\n'
            f'"edit_log": {lines(doc["edit_log"])},\n"schema_version": 2,\n'
            f'"taxonomy": {{"nodes": {lines(doc["taxonomy"]["nodes"])}}}\n}}\n')
