"""Seeded input generators for the three workloads.

Every generator takes a ``random.Random`` and returns plain data plus the
answers the checks need (which codes are unknown, which fingerprints are
ambiguous, ...).  The program under test only ever sees the generated
files and the objects built from them.
"""

from __future__ import annotations

import csv
import io
import itertools

from taxtrace import linkage, store, taxonomy

NOW = "2026-01-15T09:00:00+00:00"

# Child code symbols.  "I" and "O" are left out so that a code holding
# either of them is guaranteed not to name a class: the generator's
# misspellings use them.
_SYMBOLS = "0123456789ABCDEFGHJKLMNPQRSTUVWXYZ"
_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


def zipf_weights(n: int, s: float = 1.1) -> list[float]:
    """Cumulative Zipf weights over ranks, for ``rng.choices(cum_weights=...)``."""
    return list(itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(n)))


def vocabulary(rng, size: int) -> list[str]:
    """Distinct lowercase ASCII words of two to four syllables."""
    words: set[str] = set()
    while len(words) < size:
        syllables = rng.randint(2, 4)
        words.add(
            "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        )
    return sorted(words)


def phrase(rng, vocab: list[str], weights: list[float], words: int) -> str:
    return " ".join(rng.choices(vocab, cum_weights=weights, k=words))


def forest(rng, n_classes: int, n_roots: int, growth: int = 4) -> dict[str, str | None]:
    """SB11-style prefix codes: a child's code is its parent's plus one symbol.

    Each level holds ``growth`` times as many classes as the one above it
    (the last level takes the rest), and every class picks its parent at
    random from the level above.  Fixed level sizes keep depth, and with
    it the cost of hierarchy walks, alike from seed to seed.
    """
    parents: dict[str, str | None] = {}
    fanout: dict[str, int] = {}
    level = [str(i + 1) for i in range(min(n_roots, 9, n_classes))]
    for code in level:
        parents[code], fanout[code] = None, 0
    while len(parents) < n_classes:
        size = min(len(level) * growth, n_classes - len(parents))
        above, level = level, []
        for _ in range(size):
            parent = rng.choice(above)
            while fanout[parent] == len(_SYMBOLS):
                parent = rng.choice(above)
            code = parent + _SYMBOLS[fanout[parent]]
            fanout[parent] += 1
            parents[code], fanout[code] = parent, 0
            level.append(code)
    return parents


def misspell(code: str) -> str:
    """A plausible typo that cannot name a class (see ``_SYMBOLS``)."""
    return code[:-1] + "O" if len(code) > 1 else code + "I"


def variant(rng, code: str) -> str:
    """The code as an export might spell it: padded or lowercase at times."""
    roll = rng.random()
    if roll < 0.15:
        return code + "--"
    if roll < 0.25:
        return code.lower()
    return code


def taxonomy_csv(rng, parents: dict[str, str | None], vocab: list[str] | None) -> str:
    """Tabular taxonomy text; with a vocabulary, rich titles, synonyms and descriptions."""
    weights = zipf_weights(len(vocab)) if vocab else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["code", "parent", "title", "description", "synonyms"])
    for i, code in enumerate(sorted(parents)):
        if vocab:
            # Field sizes cycle with the row, so the text volume is fixed.
            title = phrase(rng, vocab, weights, 2 + i % 3)
            synonyms = "|".join(phrase(rng, vocab, weights, 1 + k % 3) for k in range(i % 4))
            description = phrase(rng, vocab, weights, 5 + i % 11) if i % 5 < 3 else ""
        else:
            title, synonyms, description = f"Class {code}", "", ""
        writer.writerow([code, parents[code] or "", title, description, synonyms])
    return buf.getvalue()


class LinkState:
    """Assignments and edit log built directly, as a long edit history would leave them."""

    def __init__(self) -> None:
        self.assignments: list[linkage.Assignment] = []
        self.edit_log: list[linkage.EditRecord] = []

    def add(self, artifact_id: str, code: str, provenance: str = linkage.MANUAL,
            rejected: bool = False) -> None:
        status = linkage.PROPOSED if provenance == linkage.SUGGESTED else linkage.CONFIRMED
        self.assignments.append(
            linkage.Assignment(artifact_id, code, provenance, status, created_at=NOW)
        )
        self.edit_log.append(
            linkage.EditRecord(linkage.ADD, linkage.TAXONOMIC, (artifact_id, code), "assign")
        )
        if rejected:
            self.assignments[-1].status = linkage.REJECTED
            self.edit_log.append(
                linkage.EditRecord(linkage.DELETE, linkage.TAXONOMIC, (artifact_id, code), "unassign")
            )

    def mark(self, artifact_id: str, category: str) -> None:
        self.assignments.append(
            linkage.Assignment(artifact_id, None, linkage.MANUAL, linkage.UNCLASSIFIABLE,
                               note=category, created_at=NOW)
        )


def link_repository(rng, n_classes: int, kind_counts: dict[str, int],
                    proposed_every: int = 0) -> store.Repository:
    """Artifacts of several kinds linked to popular classes with a skew.

    Counts are fixed; only which artifact and which class is seeded.  One
    to three codes per artifact in turn; one artifact in twelve has no
    usable code and a third of those carry an unclassifiable marker; one
    in thirty is archived; one link in twenty was retired again, and,
    with ``proposed_every`` = n, every n-th link is a suggestion nobody
    confirmed yet.
    """
    parents = forest(rng, n_classes, n_roots=6)
    t = taxonomy.parse_taxonomy(taxonomy_csv(rng, parents, None))
    codes = sorted(parents)
    rng.shuffle(codes)
    weights = zipf_weights(len(codes), s=0.8)
    repo = store.new_repository(t)
    links = LinkState()
    prefixes = {store.REQUIREMENT: "R", store.DESIGN_OBJECT: "D", store.TEST_CASE: "T",
                store.SOURCE_UNIT: "S"}
    serial = itertools.count()
    for kind, count in kind_counts.items():
        for i in range(count):
            artifact_id = f"{prefixes[kind]}{i:05d}"
            repo.artifacts[artifact_id] = store.Artifact(
                id=artifact_id, kind=kind, title=f"{kind} {i}", archived=i % 30 == 7,
            )
            if i % 12 == 5:
                if i % 36 == 5:
                    links.mark(artifact_id, rng.choice(linkage.REASON_CATEGORIES))
                continue
            chosen: set[str] = set()
            while len(chosen) < 1 + i % 3:
                chosen.add(rng.choices(codes, cum_weights=weights)[0])
            for code in sorted(chosen):
                n = next(serial)
                proposed = proposed_every and n % proposed_every == 3
                links.add(artifact_id, code,
                          linkage.SUGGESTED if proposed else linkage.MANUAL,
                          rejected=n % 20 == 11)
    repo.assignments, repo.edit_log = links.assignments, links.edit_log
    return repo


def model_csv(rows: list[list[str]], attr_names: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["object_id", store.CODE_ATTR, "version", *attr_names])
    writer.writerows(rows)
    return buf.getvalue()


def import_model(rng, codes: list[str], n_objects: int):
    """A model export for ``import model``.

    Returns the CSV text, the normalized code of every object that must be
    auto-assigned, and the ids of the objects whose code is unknown.
    """
    known: dict[str, str] = {}
    unknown: set[str] = set()
    rows = []
    for i in range(n_objects):
        object_id = f"X{i:05d}"
        code = rng.choice(codes)
        roll = rng.random()
        if roll < 0.08:
            raw = misspell(code)
            unknown.add(object_id)
        elif roll < 0.11:
            raw = ""
        else:
            raw = variant(rng, code)
            known[object_id] = code
        rows.append([object_id, raw, "import", f"{rng.randrange(10**6)}.5", f"type-{i % 7}"])
    return model_csv(rows, ["volume", "type"]), known, unknown


_SHAPE = ("surface_area", "base_area", "top_area", "lateral_area", "volume")


class ReviewModels:
    """Two export versions of one model and the faults seeded into them.

    ``identity`` maps each v1 object to its v2 counterpart.  Pairs whose
    fingerprint was shared on purpose are in ``ambiguous`` and must stay
    unmatched.  ``changed`` holds the pairs whose code was changed in v2,
    ``missing``/``misspelled`` the v1 and v2 objects without a code or
    with a code that names no class, and ``inconsistent`` the codes whose
    v2 objects all got a type label that v1 never uses with that code.
    ``used`` holds every class code either version carries.
    """

    def __init__(self, rng, codes: list[str], n_objects: int) -> None:
        weights = zipf_weights(len(codes), s=0.9)
        serial = itertools.count(1)
        shapes = rng.sample(range(10**6, 10**7), n_objects)
        self.objects: list[store.Artifact] = []
        self.identity: dict[str, str] = {}
        self.ambiguous: set[str] = set()
        self.changed: set[tuple[str, str]] = set()
        self.missing: dict[str, set[str]] = {"v1": set(), "v2": set()}
        self.misspelled: dict[str, dict[str, set[str]]] = {"v1": {}, "v2": {}}
        self.disjoint: set[str] = set()
        used_v1: set[str | None] = set()
        used_v2: set[str | None] = set()
        v1_codes: dict[str, str | None] = {}
        for i in range(n_objects):
            object_id = f"M1-{i:05d}"
            # Every 40th object copies the shape of the one before it.
            shape = shapes[i - 1] if i % 40 == 39 else shapes[i]
            if i % 40 == 39:
                self.ambiguous.update({object_id, f"M1-{i - 1:05d}"})
            code = rng.choices(codes, cum_weights=weights)[0]
            roll = rng.random()
            if roll < 0.03:
                raw, v1_codes[object_id] = None, None
            elif roll < 0.06:
                raw, v1_codes[object_id] = misspell(code), None
            else:
                raw, v1_codes[object_id] = variant(rng, code), code
            used_v1.add(self._add(object_id, "v1", raw, shape, rng))
        self.disjoint = set(rng.sample(sorted({c for c in v1_codes.values() if c}), 12))
        v1 = list(self.objects)
        for obj in v1:
            if rng.random() < 0.05:
                continue  # deleted in v2
            new_id = f"M2-{next(serial):05d}"
            self.identity[obj.id] = new_id
            raw = obj.attrs.get(store.CODE_ATTR)
            if v1_codes[obj.id] is not None and rng.random() < 0.04:
                other = rng.choice(codes)
                if other != v1_codes[obj.id]:
                    raw = other
                    self.changed.add((obj.id, new_id))
            shape = int(obj.attrs["volume"].split(".")[0])
            used_v2.add(self._add(new_id, "v2", raw, shape, rng))
        for shape in rng.sample(range(10**7, 10**8), n_objects // 20):
            used_v2.add(self._add(f"M2-{next(serial):05d}", "v2", rng.choice(codes), shape, rng))
        self.changed -= {(a, b) for a, b in self.changed if a in self.ambiguous}
        # A disjoint code that no v2 object carries has nothing to compare.
        self.inconsistent = self.disjoint & used_v2
        self.used = (used_v1 | used_v2) - {None}

    def _add(self, object_id: str, version: str, raw: str | None, shape: int, rng) -> str | None:
        """Append one object; return its normalized code if that names a class."""
        attrs = {name: f"{shape}.{k}" for k, name in enumerate(_SHAPE)}
        attrs["center_of_gravity"] = f"{shape}.1;{shape}.2;{shape}.3"
        attrs["coordinates"] = f"{rng.randrange(10**5)};{rng.randrange(10**5)}"
        code = None
        if raw is None:
            self.missing[version].add(object_id)
        else:
            attrs[store.CODE_ATTR] = raw
            code = taxonomy.normalize_code(raw)
            if "O" in code or "I" in code:
                self.misspelled[version].setdefault(raw, set()).add(object_id)
                code = None
        attrs["type"] = self.type_label(code, version)
        self.objects.append(store.Artifact(id=object_id, kind=store.DESIGN_OBJECT,
                                           title=object_id, attrs=attrs, version=version))
        return code

    def type_label(self, code: str | None, version: str) -> str:
        if code is None:
            return "unknown"
        if version == "v2" and code in self.disjoint:
            return f"other-{code}"
        return f"type-{code}"
