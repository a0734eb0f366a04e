"""Domain taxonomy: a forest of coded classes with is-a parent links.

A taxonomy is the shared classification system (SB11-style hierarchical
codes) that artifacts are traced through.  Codes are normalized strings;
the parent relation forms a forest (several top-level roots are allowed).
A ``Taxonomy`` checks that it is a forest when built, so the walks trust
it; it is immutable after construction and safe for concurrent reads.

Two sibling readings coexist here: nodes sharing a parent are siblings in
the usual structural sense, and top-level roots are treated as siblings of
each other (they share the absent parent).  Root pairs report the
conventional sibling distance 2 even though no path connects their trees;
breadth-first operations (``neighborhood``) never cross trees.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    CycleDetected,
    DuplicateCode,
    EmptyCode,
    MalformedRecord,
    UnknownCode,
    UnknownParent,
)

TABULAR = "tabular"
STRUCTURED = "structured"

SAME = "same"
ANCESTOR = "ancestor"
DESCENDANT = "descendant"
SIBLING = "sibling"
UNRELATED = "unrelated"

_CSV_HEADER = ["code", "parent", "title", "description", "synonyms"]


def normalize_code(raw: str) -> str:
    """Normalize a class code: trim, uppercase, strip trailing dash padding.

    Codes are exported padded to fixed width ("32QD--"); the padding is not
    part of the identity.  Raises EmptyCode when nothing remains.
    """
    code = raw.strip().upper().rstrip("-")
    if not code:
        raise EmptyCode(f"code {raw!r} is empty after normalization")
    return code


@dataclass(frozen=True, init=False)
class TaxonomyNode:
    """One class of the taxonomy.  Frozen, so ``Taxonomy.children`` stays valid."""

    code: str
    title: str
    description: str | None = None
    synonyms: list[str] = field(default_factory=list)
    parent: str | None = None

    def __init__(self, code: str, title: str, description: str | None = None,
                 synonyms: list[str] | None = None, parent: str | None = None) -> None:
        # Filling ``__dict__`` directly costs half of the generated frozen
        # ``__init__``, which calls ``object.__setattr__`` once per field.
        self.__dict__.update(code=code, title=title, description=description,
                             synonyms=[] if synonyms is None else synonyms, parent=parent)


@dataclass
class Taxonomy:
    """A forest of taxonomy nodes keyed by normalized code, checked when built."""

    nodes: dict[str, TaxonomyNode] = field(default_factory=dict)

    def __post_init__(self) -> None:
        nodes = self.nodes
        for node in nodes.values():
            if node.parent is not None and node.parent not in nodes:
                raise UnknownParent(f"node {node.code!r} names unknown parent {node.parent!r}")
        # One walk up from each code, in node order.  ``reached`` maps each
        # code walked so far to the code whose walk reached it first; a walk
        # that meets a code of an earlier walk stops there, because that one
        # ended at a root.  Meeting its own start's mark again is a cycle.
        reached: dict[str, str] = {}
        for start in nodes:
            current: str | None = start
            while current is not None and current not in reached:
                reached[current] = start
                current = nodes[current].parent
            if current is not None and reached[current] == start:
                raise CycleDetected(f"cycle through node {start!r}")

    @cached_property
    def roots(self) -> list[str]:
        """Sorted top-level codes, computed once."""
        return sorted(code for code, node in self.nodes.items() if node.parent is None)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, code: str) -> bool:
        return code in self.nodes

    @cached_property
    def children(self) -> dict[str, list[str]]:
        """Sorted child codes of every code, computed once."""
        children: dict[str, list[str]] = {code: [] for code in self.nodes}
        for code, node in self.nodes.items():
            if node.parent is not None:
                children[node.parent].append(code)
        for kids in children.values():
            kids.sort()
        return children

    def resolve(self, raw: str) -> str:
        """Normalize ``raw`` and check membership, returning the stored code."""
        code = normalize_code(raw)
        if code not in self.nodes:
            raise UnknownCode(f"code {code!r} is not in the taxonomy")
        return code


@dataclass(frozen=True)
class Relation:
    """How two classes relate in the forest.  Frozen, so hits can share one.

    ``distance`` is the undirected path length; it is None for nodes in
    different trees (except root pairs, which are siblings at the
    conventional distance 2).
    """

    kind: str
    distance: int | None


def _parent_chain(t: Taxonomy, code: str) -> list[str]:
    """Ancestor codes ordered child-to-root."""
    chain: list[str] = []
    current = t.nodes[code].parent
    while current is not None:
        chain.append(current)
        current = t.nodes[current].parent
    return chain


def ancestors(t: Taxonomy, code: str) -> list[str]:
    """Ancestors of ``code`` ordered child-to-root, excluding the node itself."""
    return _parent_chain(t, t.resolve(code))


def descendants(t: Taxonomy, code: str) -> list[str]:
    """All codes below ``code``, excluding it, in lexicographic order."""
    children = t.children
    found = list(children[t.resolve(code)])
    for current in found:  # the loop also visits the codes it appends
        found.extend(children[current])
    return sorted(found)


def relation(t: Taxonomy, a: str, b: str) -> Relation:
    """Relation of ``a`` seen from ``b``: a below b reports ``descendant``."""
    na = t.resolve(a)
    nb = t.resolve(b)
    if na == nb:
        return Relation(SAME, 0)
    chain_a = _parent_chain(t, na)
    if nb in chain_a:
        return Relation(DESCENDANT, chain_a.index(nb) + 1)
    chain_b = _parent_chain(t, nb)
    if na in chain_b:
        return Relation(ANCESTOR, chain_b.index(na) + 1)
    if t.nodes[na].parent == t.nodes[nb].parent:
        # Shared parent, or two roots sharing the absent parent.
        return Relation(SIBLING, 2)
    depth_b = {code: i + 1 for i, code in enumerate(chain_b)}
    for i, code in enumerate(chain_a):
        if code in depth_b:
            return Relation(UNRELATED, i + 1 + depth_b[code])
    return Relation(UNRELATED, None)


def neighborhood(t: Taxonomy, code: str, k: int) -> list[str]:
    """Codes within undirected forest distance ``k`` of ``code``, inclusive."""
    if k < 0:
        raise ValueError("neighborhood radius must be non-negative")
    start = t.resolve(code)
    children = t.children
    distances = {start: 0}
    frontier = [start]
    while frontier:
        nxt: list[str] = []
        for current in frontier:
            d = distances[current]
            if d == k:
                continue
            neighbors = list(children[current])
            parent = t.nodes[current].parent
            if parent is not None:
                neighbors.append(parent)
            for n in neighbors:
                if n not in distances:
                    distances[n] = d + 1
                    nxt.append(n)
        frontier = nxt
    return sorted(distances)


def _build(records: list[TaxonomyNode]) -> Taxonomy:
    """Index records by code, rejecting duplicate codes; ``Taxonomy`` checks the rest."""
    nodes: dict[str, TaxonomyNode] = {}
    for node in records:
        if node.code in nodes:
            raise DuplicateCode(f"code {node.code!r} appears more than once")
        nodes[node.code] = node
    return Taxonomy(nodes)


def _parse_tabular(text: str) -> list[TaxonomyNode]:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != _CSV_HEADER:
        raise MalformedRecord(f"expected header {','.join(_CSV_HEADER)!r}")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(_CSV_HEADER):
            raise MalformedRecord(f"row {lineno}: expected {len(_CSV_HEADER)} fields, got {len(row)}")
        raw_code, raw_parent, title, description, synonyms = row
        try:
            code = normalize_code(raw_code)
        except EmptyCode as exc:
            raise MalformedRecord(f"row {lineno}: empty code") from exc
        parent = None
        if raw_parent.strip():
            try:
                parent = normalize_code(raw_parent)
            except EmptyCode as exc:
                raise MalformedRecord(f"row {lineno}: unusable parent {raw_parent!r}") from exc
        if not title.strip():
            raise MalformedRecord(f"row {lineno}: empty title for code {code!r}")
        records.append(
            TaxonomyNode(
                code=code,
                title=title.strip(),
                description=description.strip() or None,
                synonyms=[s for s in (part.strip() for part in synonyms.split("|")) if s],
                parent=parent,
            )
        )
    return records


def _parse_structured(text: str) -> list[TaxonomyNode]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"invalid JSON: {exc}") from exc
    return _structured_records(doc)


_NODE_FIELDS = frozenset({"code", "parent", "title", "description", "synonyms"})


def _structured_records(doc) -> list[TaxonomyNode]:
    """Validated node records from a decoded ``{"nodes": [...]}`` document."""
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise MalformedRecord("expected an object with a 'nodes' list")
    records = []
    for i, item in enumerate(doc["nodes"]):
        if not isinstance(item, dict):
            raise MalformedRecord(f"nodes[{i}]: expected an object")
        if not _NODE_FIELDS.issuperset(item):
            raise MalformedRecord(f"nodes[{i}]: unknown fields {sorted(set(item) - _NODE_FIELDS)}")
        # A null stands for no value; ``str`` would make it the text "None".
        if item.get("code") is None or item.get("title") is None:
            raise MalformedRecord(f"nodes[{i}]: 'code' and 'title' are required")
        try:
            code = normalize_code(str(item["code"]))
        except EmptyCode as exc:
            raise MalformedRecord(f"nodes[{i}]: empty code") from exc
        title = str(item["title"]).strip()
        if not title:
            raise MalformedRecord(f"nodes[{i}]: empty title for code {code!r}")
        parent = item.get("parent")
        if parent is not None:
            try:
                parent = normalize_code(str(parent))
            except EmptyCode as exc:
                raise MalformedRecord(f"nodes[{i}]: unusable parent") from exc
        description = item.get("description")
        if description is not None:
            description = str(description).strip() or None
        synonyms = item.get("synonyms") or []
        if not isinstance(synonyms, list):
            raise MalformedRecord(f"nodes[{i}]: synonyms must be a list")
        if synonyms:
            if None in synonyms:
                raise MalformedRecord(f"nodes[{i}]: synonyms must not be null")
            synonyms = [s for s in map(str.strip, map(str, synonyms)) if s]
        records.append(TaxonomyNode(code, title, description, synonyms, parent))
    return records


def parse_taxonomy(text: str, format: str = TABULAR) -> Taxonomy:
    """Parse a taxonomy from CSV (``tabular``) or JSON (``structured``) text.

    All codes come back normalized, and codes are unique; building the
    ``Taxonomy`` enforces the forest invariants.
    """
    if format == TABULAR:
        records = _parse_tabular(text)
    elif format == STRUCTURED:
        records = _parse_structured(text)
    else:
        raise ValueError(f"unknown taxonomy format {format!r}")
    return _build(records)


def _structured_doc(t: Taxonomy) -> dict:
    """The ``{"nodes": [...]}`` document of the structured format, by code."""
    items = []
    for code in sorted(t.nodes):
        node = t.nodes[code]
        item: dict = {"code": node.code, "title": node.title}
        if node.parent is not None:
            item["parent"] = node.parent
        if node.description is not None:
            item["description"] = node.description
        if node.synonyms:
            item["synonyms"] = list(node.synonyms)
        items.append(item)
    return {"nodes": items}


def write_taxonomy(t: Taxonomy, format: str = TABULAR) -> str:
    """Serialize a taxonomy so that parse_taxonomy round-trips it."""
    if format == TABULAR:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for code in sorted(t.nodes):
            node = t.nodes[code]
            writer.writerow(
                [
                    node.code,
                    node.parent or "",
                    node.title,
                    node.description or "",
                    "|".join(node.synonyms),
                ]
            )
        return buf.getvalue()
    if format == STRUCTURED:
        return json.dumps(_structured_doc(t), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    raise ValueError(f"unknown taxonomy format {format!r}")


def infer_parents(codes) -> dict[str, str | None]:
    """Map each code to its longest proper prefix present in the set."""
    present = {normalize_code(c) for c in codes}
    parents: dict[str, str | None] = {}
    for code in present:
        parent = None
        for length in range(len(code) - 1, 0, -1):
            if code[:length] in present:
                parent = code[:length]
                break
        parents[code] = parent
    return parents
