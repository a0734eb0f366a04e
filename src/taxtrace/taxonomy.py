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

This module owns the stored node formats.  The structured format is a
``{"nodes": [...]}`` document with one keyed object per node and line, by
code (``_node_line``); people write it by hand.  A repository file
stores its nodes as rows instead: a header row naming ``_NODE_COLUMNS``,
then one positional array per node and line, by code (``_node_row``).
Both are decoded as rows (``_node_rows``, which ``_structured_records``
feeds each node's fields).  The decoder checks the nodes a column at a
time (``_saved_nodes``); when every node is as a save writes it, it
builds them in one pass, and otherwise it decodes node by node,
normalizing hand-written values and naming the first faulty node by
index.  ``_build`` and ``Taxonomy`` likewise check all codes and parents
at once and look for the offending node only when a check fails.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, repeat
from operator import attrgetter, is_not

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


# Trailing padding: "-" and the 29 characters for which ``str.isspace`` holds.
_PADDING = ("-\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
            "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def normalize_code(raw: str) -> str:
    """Normalize a class code: trim, uppercase, strip trailing dash padding.

    Codes are exported padded to fixed width ("32QD--", "32QD -"); the
    padding is not part of the identity, so trailing dashes and whitespace
    go together and normalizing twice changes nothing.  Raises EmptyCode
    when nothing remains.
    """
    code = raw.strip().upper().rstrip(_PADDING)
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


_code, _parent = attrgetter("code"), attrgetter("parent")


@dataclass
class Taxonomy:
    """A forest of taxonomy nodes keyed by normalized code, checked when built."""

    nodes: dict[str, TaxonomyNode] = field(default_factory=dict)

    def __post_init__(self) -> None:
        nodes = self.nodes
        # All parents are checked at once; the loop only finds the first unknown one.
        parents = set(map(_parent, nodes.values()))
        parents.discard(None)
        if not nodes.keys() >= parents:
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
    """Index records by code; the first one whose code came before is rejected.

    ``Taxonomy`` checks the rest.
    """
    nodes = dict(zip(map(_code, records), records))
    if len(nodes) < len(records):
        seen = set()
        for node in records:
            if node.code in seen:
                raise DuplicateCode(f"code {node.code!r} appears more than once")
            seen.add(node.code)
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


_NODE_COLUMNS = ("code", "title", "description", "synonyms", "parent")  # ``TaxonomyNode``'s order
_NODE_HEADER = json.dumps(_NODE_COLUMNS)
_STR = frozenset({str})
_STR_OR_NONE = frozenset({str, type(None)})
_LIST_OR_NONE = frozenset({list, type(None)})
_given = partial(is_not, None)


def _saved_nodes(columns) -> list[TaxonomyNode] | None:
    """The nodes of ``columns``, in ``_NODE_COLUMNS`` order, if every one is as a save writes it.

    Each field is checked once for the whole list: codes and parents in
    normal form, and titles, present descriptions and synonyms non-blank
    and stripped.  From such nodes the node-by-node decoding builds
    exactly these nodes.  Else None.
    """
    _, titles, descriptions, synonyms, parents = columns
    if not (_LIST_OR_NONE.issuperset(map(type, synonyms))
            and _STR_OR_NONE.issuperset(map(type, descriptions))
            and _STR_OR_NONE.issuperset(map(type, parents))):
        return None
    codes = [*columns[0], *filter(_given, parents)]
    texts = [*titles, *filter(_given, descriptions),
             *chain.from_iterable(filter(None, synonyms))]
    if not (_STR.issuperset(map(type, codes)) and _STR.issuperset(map(type, texts))
            and all(codes) and all(texts)
            and list(map(str.strip, texts)) == texts
            and list(map(str.rstrip, map(str.upper, map(str.strip, codes)),
                         repeat(_PADDING))) == codes):  # ``normalize_code``, in C
        return None
    return list(map(TaxonomyNode, *columns))


def _spelled(value, i: int, what: str) -> str:
    """Field ``what`` of node ``nodes[i]`` as text.

    A string is kept as it is, and a number or boolean is spelled as JSON
    spells it (``true``, not Python's ``True``).  A list or an object is
    refused, as in an artifact's attrs.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, (list, dict)):
        raise MalformedRecord(f"nodes[{i}]: {what} must be a string, number or boolean")
    return json.dumps(value)


def _keyed_as_rows(records: list, columns: tuple[str, ...],
                   absent: tuple) -> tuple[list, str | None]:
    """The rows of ``records``, objects keyed by ``columns``, up to the first that is none.

    An absent key stands for its column's value in ``absent``.  Returns
    the rows and, when a record is not an object or holds a key that is
    no column, that record's fault; it is the record after the rows.
    """
    known, rows = frozenset(columns), []
    for record in records:
        if type(record) is not dict:
            return rows, "expected an object"
        if not known.issuperset(record):
            return rows, f"unknown fields {sorted(record.keys() - known)}"
        rows.append(list(map(record.get, columns, absent)))
    return rows, None


def _structured_records(doc) -> list[TaxonomyNode]:
    """Validated node records from a decoded ``{"nodes": [...]}`` document.

    Each node's fields become its row (``_node_rows``); a node that is not
    an object, or holds an unknown field, is refused after any fault of
    the nodes before it.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise MalformedRecord("expected an object with a 'nodes' list")
    rows, fault = _keyed_as_rows(doc["nodes"], _NODE_COLUMNS, (None,) * len(_NODE_COLUMNS))
    nodes = _node_rows(rows)
    if fault:
        raise MalformedRecord(f"nodes[{len(rows)}]: {fault}")
    return nodes


def _node_rows(rows: list) -> list[TaxonomyNode]:
    """Validated node records from node rows, each its values in ``_NODE_COLUMNS`` order.

    Built in one pass when every row holds one value per column and
    ``_saved_nodes`` takes them, else node by node, a null standing for
    no value.
    """
    width = len(_NODE_COLUMNS)
    if rows and {list}.issuperset(map(type, rows)) and {width}.issuperset(map(len, rows)):
        saved = _saved_nodes(list(zip(*rows)))
        if saved is not None:
            return saved
    records = []
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != width:
            raise MalformedRecord(f"nodes[{i}]: expected a list of {width} values")
        code, title, description, synonyms, parent = row
        # A null stands for no value; ``str`` would make it the text "None".
        if code is None or title is None:
            raise MalformedRecord(f"nodes[{i}]: 'code' and 'title' are required")
        try:
            code = normalize_code(_spelled(code, i, "code"))
        except EmptyCode as exc:
            raise MalformedRecord(f"nodes[{i}]: empty code") from exc
        title = _spelled(title, i, "title").strip()
        if not title:
            raise MalformedRecord(f"nodes[{i}]: empty title for code {code!r}")
        if parent is not None:
            try:
                parent = normalize_code(_spelled(parent, i, "parent"))
            except EmptyCode as exc:
                raise MalformedRecord(f"nodes[{i}]: unusable parent") from exc
        if description is not None:
            description = _spelled(description, i, "description").strip() or None
        synonyms = synonyms or []
        if not isinstance(synonyms, list):
            raise MalformedRecord(f"nodes[{i}]: synonyms must be a list")
        if synonyms:
            if None in synonyms:
                raise MalformedRecord(f"nodes[{i}]: synonyms must not be null")
            synonyms = [s for s in (_spelled(s, i, "a synonym").strip() for s in synonyms) if s]
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


# A node's line in the structured format is what ``json.dumps(doc,
# sort_keys=True, ensure_ascii=False)`` writes for its record, with the
# optional keys left out when empty; its row in a repository is what
# ``json.dumps(row, ensure_ascii=False)`` writes, every null written out.
# ``encode_basestring`` raises TypeError for anything but a str, so a field
# of the wrong type fails before anything is written.
_text = json.encoder.encode_basestring


def _synonyms_of(node: TaxonomyNode) -> list[str]:
    synonyms = node.synonyms
    if not isinstance(synonyms, (list, tuple)):
        raise TypeError(f"synonyms must be a list of strings, not {synonyms!r}")
    return synonyms


def _node_line(node: TaxonomyNode) -> str:
    synonyms = _synonyms_of(node)
    line = f'{{"code": {_text(node.code)}'
    if node.description is not None:
        line += f', "description": {_text(node.description)}'
    if node.parent is not None:
        line += f', "parent": {_text(node.parent)}'
    if synonyms:
        line += f', "synonyms": [{", ".join(map(_text, synonyms))}]'
    return f'{line}, "title": {_text(node.title)}}}'


def _node_row(node: TaxonomyNode) -> str:
    synonyms, description, parent = _synonyms_of(node), node.description, node.parent
    return (f"[{_text(node.code)}, {_text(node.title)}, "
            f"{'null' if description is None else _text(description)}, "
            f"[{', '.join(map(_text, synonyms))}], {'null' if parent is None else _text(parent)}]")


def _record_lines(lines) -> str:
    """A JSON list with one encoded record per line; ``[]`` when empty."""
    text = ",\n".join(lines)
    return f"[\n{text}\n]" if text else "[]"


def _check_nodes(nodes: dict[str, TaxonomyNode]) -> None:
    """ValueError for a node that the parsers would read back changed, or refuse.

    That is a node under a key other than its code (it would parse back
    under its code), a code not in normal form, and a title, description
    or synonym that is blank or padded (the parsers strip each one, drop a
    blank description or synonym and refuse a blank title).  Then, as a
    ``Taxonomy`` is checked when built, an unknown parent or a cycle.
    """
    for code, node in nodes.items():
        if node.code != code:
            raise ValueError(f"taxonomy node {node.code!r} is stored under key {code!r}")
        try:
            normal = normalize_code(code) == code
        except EmptyCode:
            normal = False
        if not normal:
            raise ValueError(f"taxonomy node code {code!r} is not in normal form")
        title, description = node.title, node.description
        if not title or title.strip() != title:
            raise ValueError(f"taxonomy node {code!r} has a blank or padded title {title!r}")
        if description is not None and (not description or description.strip() != description):
            raise ValueError(
                f"taxonomy node {code!r} has a blank or padded description {description!r}")
        for synonym in node.synonyms:
            if not synonym or synonym.strip() != synonym:
                raise ValueError(
                    f"taxonomy node {code!r} has a blank or padded synonym {synonym!r}")
    Taxonomy(nodes)  # a parent set after the build is not checked otherwise


def _structured_text(t: Taxonomy) -> str:
    """The structured format's ``{"nodes": [...]}`` document, one node per line, by code.

    ValueError for a node that would parse back changed (``_check_nodes``).
    """
    nodes = t.nodes
    text = f'{{"nodes": {_record_lines([_node_line(nodes[code]) for code in sorted(nodes)])}}}'
    _check_nodes(nodes)
    return text


def _stored_text(t: Taxonomy) -> str:
    """A repository's taxonomy section: the header row, then one node row per line, by code.

    ValueError for a node that would parse back changed (``_check_nodes``).
    """
    nodes = t.nodes
    text = _record_lines([_NODE_HEADER, *[_node_row(nodes[code]) for code in sorted(nodes)]])
    _check_nodes(nodes)
    return text


def write_taxonomy(t: Taxonomy, format: str = TABULAR) -> str:
    """Serialize a taxonomy so that parse_taxonomy round-trips it.

    ValueError for a node that would parse back changed, in either format
    (``_check_nodes``), and in the tabular format for a synonym holding
    "|", which separates a row's synonyms there.
    """
    if format == TABULAR:
        _check_nodes(t.nodes)
        for code, node in t.nodes.items():
            for synonym in node.synonyms:
                if "|" in synonym:
                    raise ValueError(f"taxonomy node {code!r} has a synonym {synonym!r} "
                                     "holding '|', which the tabular format cannot write")
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
        return _structured_text(t) + "\n"
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
