"""Classification quality checks for design-model exports.

Exported model versions do not carry stable object identifiers, so
objects are re-identified across versions by a fingerprint concatenated
from shape attributes (areas, volume, center of gravity), deliberately
excluding absolute placement attributes that change when a model is
moved.  A fingerprint shared by several objects within one version is
ambiguous; ambiguous objects are reported and excluded from matching
rather than paired by guesswork.

All checks are pure functions over object lists; nothing here mutates a
repository.  Attribute values are compared as trimmed strings, not
parsed numbers, so no tolerance policy is smuggled in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EmptyCode, KindMismatch, MissingAttribute
from .store import Artifact, CODE_ATTR, DESIGN_OBJECT
from .taxonomy import Taxonomy, normalize_code

MISSING_CODE = "missing-code"
UNKNOWN_CODE = "unknown-code"
CODE_CHANGED = "code-changed"
INCONSISTENT_TYPE = "inconsistent-type"

ERROR = "error"
WARNING = "warning"

DEFAULT_FINGERPRINT_ATTRS = (
    "surface_area",
    "base_area",
    "top_area",
    "lateral_area",
    "volume",
    "center_of_gravity",
)

# Absolute placement attributes never belong in a fingerprint.
DEFAULT_ABSOLUTE_BLOCKLIST = frozenset({"coordinates", "position"})


@dataclass
class AuditFinding:
    category: str
    object_ids: list[str]
    detail: str
    severity: str


def _require_design_objects(objects: list[Artifact], what: str) -> None:
    for obj in objects:
        if obj.kind != DESIGN_OBJECT:
            raise KindMismatch(f"{what} contains {obj.id!r} of kind {obj.kind!r}")


def _raw_code(obj: Artifact) -> str | None:
    code = obj.attrs.get(CODE_ATTR)
    if code is None or not code.strip():
        return None
    return code


def object_code(obj: Artifact) -> str | None:
    """The object's normalized classification code, or None."""
    raw = _raw_code(obj)
    if raw is None:
        return None
    try:
        return normalize_code(raw)
    except EmptyCode:
        return None


@dataclass
class ComprehensivenessReport:
    total: int
    classified: int
    ratio: Fraction
    findings: list[AuditFinding] = field(default_factory=list)


def check_comprehensiveness(objects: list[Artifact], t: Taxonomy) -> ComprehensivenessReport:
    """Does every model object carry a code, and is each code a real class?

    An object with a typo'd code still counts as classified; the typo is
    its own finding, one per distinct faulty spelling, quoting the code
    verbatim as exported.
    """
    _require_design_objects(objects, "comprehensiveness check")
    findings: list[AuditFinding] = []
    classified = 0
    unknown: dict[str, list[str]] = {}
    for obj in sorted(objects, key=lambda o: o.id):
        raw = _raw_code(obj)
        if raw is None:
            findings.append(
                AuditFinding(MISSING_CODE, [obj.id], "object carries no classification code", ERROR)
            )
            continue
        classified += 1
        normal = object_code(obj)
        if normal is None or normal not in t.nodes:
            unknown.setdefault(raw, []).append(obj.id)
    for raw in sorted(unknown):
        findings.append(
            AuditFinding(
                UNKNOWN_CODE,
                sorted(unknown[raw]),
                f"code {raw!r} does not name a taxonomy class",
                ERROR,
            )
        )
    findings.sort(key=lambda f: (f.category, f.object_ids))
    total = len(objects)
    ratio = Fraction(classified, total) if total else Fraction(1)
    return ComprehensivenessReport(total=total, classified=classified, ratio=ratio, findings=findings)


def fingerprint(
    obj: Artifact,
    attrs: tuple[str, ...] | list[str] = DEFAULT_FINGERPRINT_ATTRS,
) -> str:
    """Concatenate shape attributes into a stand-in identifier.

    Values pass through verbatim apart from whitespace trimming; a listed
    attribute missing from the object is an error, while names in
    ``DEFAULT_ABSOLUTE_BLOCKLIST`` are silently skipped wherever they
    appear in the list.
    """
    if not attrs:
        raise ValueError("fingerprint needs at least one attribute name")
    parts = []
    for name in attrs:
        if name in DEFAULT_ABSOLUTE_BLOCKLIST:
            continue
        if name not in obj.attrs:
            raise MissingAttribute(f"object {obj.id!r} lacks attribute {name!r}")
        parts.append(f"{name}={obj.attrs[name].strip()}")
    return ";".join(parts)


@dataclass
class VersionMatchReport:
    matched_pairs: list[tuple[str, str]]
    match_ratio: Fraction
    code_changes: list[AuditFinding]
    unmatched_v1: list[str]
    unmatched_v2: list[str]
    ambiguous_fingerprints: list[str]


def match_versions(
    v1: list[Artifact],
    v2: list[Artifact],
    attrs: tuple[str, ...] | list[str] = DEFAULT_FINGERPRINT_ATTRS,
) -> VersionMatchReport:
    """Pair objects across two versions by equal fingerprints.

    A fingerprint occurring more than once in either version is
    disqualified in both, so every reported pair is certain.  The ratio
    is over the first version's objects.
    """
    _require_design_objects(v1, "version 1")
    _require_design_objects(v2, "version 2")
    prints_1: dict[str, list[Artifact]] = {}
    prints_2: dict[str, list[Artifact]] = {}
    for obj in v1:
        prints_1.setdefault(fingerprint(obj, attrs), []).append(obj)
    for obj in v2:
        prints_2.setdefault(fingerprint(obj, attrs), []).append(obj)
    ambiguous = {
        fp
        for fp, objs in list(prints_1.items()) + list(prints_2.items())
        if len(objs) > 1
    }
    matched: list[tuple[str, str]] = []
    code_changes: list[AuditFinding] = []
    for fp, objs in prints_1.items():
        if fp in ambiguous or fp not in prints_2:
            continue
        a, b = objs[0], prints_2[fp][0]
        matched.append((a.id, b.id))
        code_a, code_b = object_code(a), object_code(b)
        if code_a != code_b:
            code_changes.append(
                AuditFinding(
                    CODE_CHANGED,
                    [a.id, b.id],
                    f"classification changed from {code_a!r} to {code_b!r}",
                    WARNING,
                )
            )
    matched.sort()
    code_changes.sort(key=lambda f: f.object_ids)
    matched_1 = {a for a, _ in matched}
    matched_2 = {b for _, b in matched}
    ratio = Fraction(len(matched), len(v1)) if v1 else Fraction(1)
    return VersionMatchReport(
        matched_pairs=matched,
        match_ratio=ratio,
        code_changes=code_changes,
        unmatched_v1=sorted(o.id for o in v1 if o.id not in matched_1),
        unmatched_v2=sorted(o.id for o in v2 if o.id not in matched_2),
        ambiguous_fingerprints=sorted(ambiguous),
    )


@dataclass
class CodeDiff:
    new_in_v2: list[str]
    absent_in_v2: list[str]
    per_code_counts: dict[str, tuple[int, int]]


def diff_codes(v1: list[Artifact], v2: list[Artifact]) -> CodeDiff:
    """Which classification codes appeared or vanished between versions."""
    counts: dict[str, list[int]] = {}
    for slot, objects in ((0, v1), (1, v2)):
        for obj in objects:
            code = object_code(obj)
            if code is None:
                continue
            counts.setdefault(code, [0, 0])[slot] += 1
    return CodeDiff(
        new_in_v2=sorted(c for c, (c1, c2) in counts.items() if c1 == 0 and c2 > 0),
        absent_in_v2=sorted(c for c, (c1, c2) in counts.items() if c1 > 0 and c2 == 0),
        per_code_counts={c: (c1, c2) for c, (c1, c2) in counts.items()},
    )


@dataclass
class InterReliabilityReport:
    findings: list[AuditFinding]
    per_code: dict[str, dict[str, list[str]]]


def inter_reliability(
    a: list[Artifact],
    b: list[Artifact],
    sample_codes: set[str],
    type_attr: str,
    t: Taxonomy,
) -> InterReliabilityReport:
    """Do two models apply the sampled codes to the same kinds of object?

    For each sampled code the sets of type labels used with it are
    compared; a code used by both sides on entirely disjoint type sets is
    flagged (the same class naming two apparently different things).
    Codes only one side uses have nothing to compare and pass.  Each
    model is walked once, collecting labels and carriers for every
    sampled code in the same pass.
    """
    _require_design_objects(a, "model a")
    _require_design_objects(b, "model b")
    sample = {t.resolve(code) for code in sample_codes}
    labels: dict[str, dict[str, set[str]]] = {code: {"a": set(), "b": set()} for code in sample}
    carriers: dict[str, set[str]] = {code: set() for code in sample}
    for side, objects in (("a", a), ("b", b)):
        for obj in objects:
            code = object_code(obj)
            if code not in labels:
                continue
            label = obj.attrs.get(type_attr)
            if label is None or not label.strip():
                continue
            labels[code][side].add(label.strip())
            carriers[code].add(obj.id)
    findings: list[AuditFinding] = []
    per_code: dict[str, dict[str, list[str]]] = {}
    for code in sorted(sample):
        types = labels[code]
        per_code[code] = {"a": sorted(types["a"]), "b": sorted(types["b"])}
        if types["a"] and types["b"] and not (types["a"] & types["b"]):
            findings.append(
                AuditFinding(
                    INCONSISTENT_TYPE,
                    sorted(carriers[code]),
                    f"code {code!r} types {sorted(types['a'])} in model a"
                    f" but {sorted(types['b'])} in model b",
                    ERROR,
                )
            )
    return InterReliabilityReport(findings=findings, per_code=per_code)
