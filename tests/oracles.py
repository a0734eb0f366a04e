"""Brute-force reference implementations used to check the real ones.

Everything here favors obviousness over speed: plain BFS over an
undirected adjacency map, nested loops over artifact pairs, literal
set differences.  Nothing imports the production algorithms beyond the
data types needed to build inputs.
"""

import json
from collections import deque

# --- forests as plain parent maps: {code: parent or None} ---


def adjacency(parents: dict[str, str | None]) -> dict[str, set[str]]:
    nbrs: dict[str, set[str]] = {code: set() for code in parents}
    for code, parent in parents.items():
        if parent is not None:
            nbrs[code].add(parent)
            nbrs[parent].add(code)
    return nbrs


def bfs_distances(nbrs: dict[str, set[str]], start: str) -> dict[str, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for n in nbrs[current]:
            if n not in dist:
                dist[n] = dist[current] + 1
                queue.append(n)
    return dist


def all_pairs_distances(parents: dict[str, str | None]) -> dict[str, dict[str, int]]:
    nbrs = adjacency(parents)
    return {code: bfs_distances(nbrs, code) for code in parents}


def ancestor_chain(parents: dict[str, str | None], code: str) -> list[str]:
    chain = []
    current = parents[code]
    while current is not None:
        chain.append(current)
        current = parents[current]
    return chain


def relation_oracle(
    parents: dict[str, str | None],
    dist: dict[str, dict[str, int]],
    a: str,
    b: str,
) -> tuple[str, int | None]:
    """Relation of a seen from b, (kind, distance)."""
    if a == b:
        return ("same", 0)
    if b in ancestor_chain(parents, a):
        return ("descendant", dist[a][b])
    if a in ancestor_chain(parents, b):
        return ("ancestor", dist[a][b])
    if parents[a] == parents[b]:
        # Shared parent node, or both roots: siblings by convention.
        return ("sibling", 2)
    if b in dist[a]:
        return ("unrelated", dist[a][b])
    return ("unrelated", None)


def neighborhood_oracle(
    dist: dict[str, dict[str, int]], code: str, k: int
) -> set[str]:
    return {other for other, d in dist[code].items() if d <= k}


def descendants_oracle(parents: dict[str, str | None], code: str) -> set[str]:
    return {
        other
        for other in parents
        if other != code and code in ancestor_chain(parents, other)
    }


def ancestors_oracle(parents: dict[str, str | None], code: str) -> list[str]:
    return ancestor_chain(parents, code)


def random_forest(rng, max_nodes: int, root_share: float = 0.2) -> dict[str, str | None]:
    n = rng.randint(1, max_nodes)
    parents: dict[str, str | None] = {}
    codes = [f"N{i}" for i in range(n)]
    for i, code in enumerate(codes):
        if i == 0 or rng.random() < root_share:
            parents[code] = None
        else:
            parents[code] = codes[rng.randrange(i)]
    return parents


# --- filter membership for trace-style queries ---

FILTER_SPECS = [
    ("equal", None),
    ("ancestor", None),
    ("descendant", None),
    ("equal-or-descendant", None),
    ("sibling", None),
    ("neighborhood", 0),
    ("neighborhood", 1),
    ("neighborhood", 2),
    ("neighborhood", 3),
]


def pair_matches(
    parents: dict[str, str | None],
    dist: dict[str, dict[str, int]],
    kind: str,
    k: int | None,
    source_code: str,
    target_code: str,
) -> bool:
    """May the target's code stand in this relation to the source's code?"""
    s, c = source_code, target_code
    if kind == "equal":
        return c == s
    if kind == "descendant":
        return s in ancestor_chain(parents, c)
    if kind == "ancestor":
        return c in ancestor_chain(parents, s)
    if kind == "equal-or-descendant":
        return c == s or s in ancestor_chain(parents, c)
    if kind == "sibling":
        return c != s and parents[c] == parents[s]
    return c in dist[s] and dist[s][c] <= k


def trace_oracle(
    parents,
    dist,
    artifacts: dict[str, tuple[str, bool]],
    codes_by_artifact: dict[str, set[str]],
    source_id: str,
    target_kind: str | None,
    kind: str,
    k: int | None,
) -> set[str]:
    """Set of target ids, by the most literal possible nested loop.

    ``artifacts`` maps id -> (kind, archived).  Artifacts without codes
    simply never match.
    """
    hits = set()
    for target_id, (akind, archived) in artifacts.items():
        if target_id == source_id or archived:
            continue
        if target_kind is not None and akind != target_kind:
            continue
        for s in codes_by_artifact.get(source_id, set()):
            for c in codes_by_artifact.get(target_id, set()):
                if pair_matches(parents, dist, kind, k, s, c):
                    hits.add(target_id)
    return hits


# --- maintenance-cost oracles: full-state link set differences ---


def taxonomic_links(artifacts: list) -> set[tuple[str, str]]:
    return {(a.id, code) for a in artifacts for code in a.codes}


def direct_links(artifacts: list) -> set[frozenset]:
    links = set()
    for i, a in enumerate(artifacts):
        for b in artifacts[i + 1 :]:
            if a.kind != b.kind and a.codes & b.codes:
                links.add(frozenset((a.id, b.id)))
    return links


def cost_oracle(before: list, after: list, strategy: str) -> tuple[int, int]:
    """(adds, deletes) as the symmetric difference of full link sets."""
    build = taxonomic_links if strategy == "taxonomic" else direct_links
    old, new = build(before), build(after)
    return (len(new - old), len(old - new))


# --- lexical scoring oracle with its own tokenizer ---


def oracle_tokens(text: str) -> list[str]:
    out, current = [], []
    for ch in text.casefold():
        if ch.isalnum():
            current.append(ch)
        else:
            if current:
                out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return [tok for tok in out if len(tok) >= 2]


def scoring_oracle(nodes: dict[str, dict], text: str) -> dict[str, float]:
    """Scores per code for a taxonomy given as plain dicts.

    ``nodes`` maps code -> {"title": str, "synonyms": [str], "description":
    str or None}.  Reimplements the weighting and idf rule with loops and
    an independent log.
    """
    import math

    total = len(nodes)
    strong: dict[str, set[str]] = {}
    weak: dict[str, set[str]] = {}
    for code, node in nodes.items():
        strong[code] = set(oracle_tokens(node["title"]))
        for syn in node.get("synonyms", []):
            strong[code] |= set(oracle_tokens(syn))
        weak[code] = set(oracle_tokens(node.get("description") or ""))
    df: dict[str, int] = {}
    for code in nodes:
        for token in strong[code] | weak[code]:
            df[token] = df.get(token, 0) + 1
    scores: dict[str, float] = {}
    for token in sorted(set(oracle_tokens(text))):
        if token not in df or df[token] == total:
            continue
        idf = math.log(total) - math.log(df[token])
        for code in nodes:
            if token in strong[code]:
                scores[code] = scores.get(code, 0.0) + 1.0 * idf
            elif token in weak[code]:
                scores[code] = scores.get(code, 0.0) + 0.5 * idf
    return scores


# --- cross-model reliability oracle: one full scan per sampled code ---


def inter_reliability_oracle(a: list, b: list, sample: set[str], type_attr: str) -> dict:
    """``dataclasses.asdict`` of an ``InterReliabilityReport``, by a nested per-code scan.

    ``sample`` holds resolved codes.  Object codes are normalized here
    with their own trim, uppercase and dash-strip rule.
    """

    def code_of(obj):
        raw = obj.attrs.get("sb11_code")
        if raw is None:
            return None
        return raw.strip().upper().rstrip("-") or None

    findings = []
    per_code = {}
    for code in sorted(sample):
        types = {"a": set(), "b": set()}
        carriers = []
        for side, objects in (("a", a), ("b", b)):
            for obj in objects:
                if code_of(obj) != code:
                    continue
                label = obj.attrs.get(type_attr)
                if label is None or not label.strip():
                    continue
                types[side].add(label.strip())
                carriers.append(obj.id)
        per_code[code] = {"a": sorted(types["a"]), "b": sorted(types["b"])}
        if types["a"] and types["b"] and not (types["a"] & types["b"]):
            findings.append({
                "category": "inconsistent-type",
                "object_ids": sorted(set(carriers)),
                "detail": f"code {code!r} types {sorted(types['a'])} in model a"
                          f" but {sorted(types['b'])} in model b",
                "severity": "error",
            })
    return {"findings": findings, "per_code": per_code}


# --- stored sections decoded one record at a time, as a hand-written file is ---


class Rejected(Exception):
    """A section the load must refuse: the error class's name and its message."""

    def __init__(self, error: str, message: str) -> None:
        super().__init__(message)
        self.error = error


def normal_code_oracle(raw: str) -> str:
    """Trimmed and uppercased, trailing dashes and whitespace dropped; "" when nothing is left."""
    code = raw.strip().upper()
    while code and (code[-1] == "-" or code[-1].isspace()):
        code = code[:-1]
    return code


NODE_FIELDS = {"code", "parent", "title", "description", "synonyms"}


def node_oracle(i: int, item) -> dict:
    """The fields of node ``nodes[i]`` of a structured taxonomy document."""
    def reject(message):
        raise Rejected("MalformedRecord", f"nodes[{i}]: {message}")

    def text(value, what):
        # A number or boolean is kept as the JSON spelled it; a list or an
        # object is no text at all.
        if type(value) in (list, dict):
            reject(f"{what} must be a string, number or boolean")
        return value if type(value) is str else json.dumps(value)

    if not isinstance(item, dict):
        reject("expected an object")
    unknown = sorted(set(item) - NODE_FIELDS)
    if unknown:
        reject(f"unknown fields {unknown}")
    if item.get("code") is None or item.get("title") is None:
        reject("'code' and 'title' are required")
    code = normal_code_oracle(text(item["code"], "code"))
    if not code:
        reject("empty code")
    title = text(item["title"], "title").strip()
    if not title:
        reject(f"empty title for code {code!r}")
    parent = item.get("parent")
    if parent is not None:
        parent = normal_code_oracle(text(parent, "parent"))
        if not parent:
            reject("unusable parent")
    description = item.get("description")
    if description is not None:
        description = text(description, "description").strip() or None
    synonyms = item.get("synonyms")
    if not synonyms:  # null, [], "", 0 and false all mean none
        synonyms = []
    if not isinstance(synonyms, list):
        reject("synonyms must be a list")
    if any(s is None for s in synonyms):
        reject("synonyms must not be null")
    kept = [text(s, "a synonym").strip() for s in synonyms]
    return {"code": code, "title": title, "description": description,
            "synonyms": [s for s in kept if s], "parent": parent}


def taxonomy_section_oracle(doc) -> list[dict]:
    """The nodes of a stored taxonomy section, in order, checked as a load checks them.

    Every node is decoded first; then a repeated code, a parent that is no
    node's code and a cycle are refused, in that order, each naming the
    first offender in node order.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise Rejected("MalformedRecord", "expected an object with a 'nodes' list")
    nodes = [node_oracle(i, item) for i, item in enumerate(doc["nodes"])]
    parents = {}
    for node in nodes:
        if node["code"] in parents:
            raise Rejected("DuplicateCode", f"code {node['code']!r} appears more than once")
        parents[node["code"]] = node["parent"]
    for node in nodes:
        if node["parent"] is not None and node["parent"] not in parents:
            raise Rejected("UnknownParent",
                           f"node {node['code']!r} names unknown parent {node['parent']!r}")
    for code in parents:
        current = code
        for _ in range(len(parents) + 1):
            current = parents[current]
            if current is None:
                break
        else:
            raise Rejected("CycleDetected", f"cycle through node {code!r}")
    return nodes


ARTIFACT_KINDS = {"requirement", "design-object", "test-case", "source-unit", "compliance-clause"}


def artifact_oracle(doc) -> dict:
    """The fields of one stored artifact record; a refusal's message has no location."""
    def reject(message):
        raise Rejected("MalformedRecord", message)

    if not isinstance(doc, dict):
        reject("expected an object")
    for key in ("id", "kind", "title"):
        if not isinstance(doc.get(key), str):
            reject(f"missing or non-string {key!r}")
    if doc["kind"] not in ARTIFACT_KINDS:
        reject(f"unknown artifact kind {doc['kind']!r}")
    attrs = doc.get("attrs")
    if not attrs:
        attrs = {}
    if not isinstance(attrs, dict):
        reject("attrs must be an object")
    for k, v in attrs.items():
        if v is None or isinstance(v, (list, dict)):
            reject(f"attr {k!r} must be a string, number or boolean")
    # A number or a boolean is kept as the JSON spells it.
    attrs = {k: v if isinstance(v, str) else json.dumps(v) for k, v in attrs.items()}
    for key in ("body", "document", "version"):
        if doc.get(key) is not None and not isinstance(doc[key], str):
            reject(f"{key} must be a string or null")
    archived = doc.get("archived", False)
    if archived is not True and archived is not False:
        reject("archived must be true or false")
    return {"id": doc["id"], "kind": doc["kind"], "title": doc["title"],
            "body": doc.get("body"), "attrs": attrs, "document": doc.get("document"),
            "version": doc.get("version"), "archived": archived}


def artifacts_section_oracle(records: list) -> list[dict]:
    """The artifacts of a stored section, in order: the first fault in record order is refused."""
    artifacts, seen = [], set()
    for i, record in enumerate(records):
        try:
            artifact = artifact_oracle(record)
        except Rejected as exc:
            raise Rejected(exc.error, f"artifacts[{i}]: {exc}") from None
        if artifact["id"] in seen:
            raise Rejected("ReferentialIntegrityError",
                           f"artifact id {artifact['id']!r} appears twice")
        seen.add(artifact["id"])
        artifacts.append(artifact)
    return artifacts


PROVENANCES = {"manual", "suggested", "imported"}
STATUSES = {"confirmed", "proposed", "rejected", "unclassifiable"}


def assignment_oracle(doc) -> dict:
    """The fields of one stored assignment record; a refusal's message has no location."""
    def reject(message):
        raise Rejected("MalformedRecord", message)

    if not isinstance(doc, dict):
        reject("expected an object")
    if not isinstance(doc.get("artifact_id"), str):
        reject("missing artifact_id")
    for key, allowed in (("provenance", PROVENANCES), ("status", STATUSES)):
        value = doc.get(key)
        if not isinstance(value, str) or value not in allowed:
            reject(f"unknown {key} {value!r}")
    code = doc.get("code")
    if code is not None and not isinstance(code, str):
        reject("code must be a string or null")
    if (code is None) != (doc["status"] == "unclassifiable"):
        reject("code must be null exactly for unclassifiable status")
    for key in ("note", "created_at"):
        if doc.get(key) is not None and not isinstance(doc[key], str):
            reject(f"{key} must be a string or null")
    return {"artifact_id": doc["artifact_id"], "code": code, "provenance": doc["provenance"],
            "status": doc["status"], "note": doc.get("note"),
            "created_at": doc.get("created_at") or ""}


def edit_oracle(doc) -> dict:
    """The fields of one stored edit-log entry; a refusal's message has no location."""
    def reject(message):
        raise Rejected("MalformedRecord", message)

    if not isinstance(doc, dict):
        reject("expected an object")
    if doc.get("op") not in ("add", "delete"):
        reject(f"unknown op {doc.get('op')!r}")
    if doc.get("link_kind") not in ("taxonomic", "direct"):
        reject(f"unknown link_kind {doc.get('link_kind')!r}")
    endpoints = doc.get("endpoints")
    if not (isinstance(endpoints, list) and len(endpoints) == 2
            and all(isinstance(end, str) for end in endpoints)):
        reject("endpoints must be a pair of strings")
    cause = doc.get("cause")
    if cause is not None and not isinstance(cause, str):
        reject("cause must be a string or null")
    return {"op": doc["op"], "link_kind": doc["link_kind"], "endpoints": tuple(endpoints),
            "cause": cause or ""}


def _section_oracle(decode, section: str, records: list) -> list[dict]:
    """``decode`` of each record, in order; the first refusal is located as ``section[i]``."""
    decoded = []
    for i, record in enumerate(records):
        try:
            decoded.append(decode(record))
        except Rejected as exc:
            raise Rejected(exc.error, f"{section}[{i}]: {exc}") from None
    return decoded


def assignments_section_oracle(records: list) -> list[dict]:
    """The assignments of a stored section, in order: the first fault in record order is refused."""
    return _section_oracle(assignment_oracle, "assignments", records)


def edit_log_section_oracle(records: list) -> list[dict]:
    """The edit-log entries of a stored section, in order: the first fault is refused."""
    return _section_oracle(edit_oracle, "edit_log", records)
