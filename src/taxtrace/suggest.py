"""Lexical class suggestion: rank taxonomy classes for a piece of text.

Pure token overlap weighted by inverse document frequency over the
taxonomy's own vocabulary.  No stemming, no learning: synonyms on the
taxonomy nodes are the mechanism for vocabulary that the class titles do
not use (an artifact saying "auxiliary power" only reaches a class that
lists it as a synonym).  A human confirms or rejects the suggestions;
nothing is assigned automatically.

Each call tokenizes the taxonomy in one pass: the titles, the synonyms
and the descriptions are each joined into one text, which is
case-folded, translated and split once.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

from .taxonomy import Taxonomy

TITLE = "title"
SYNONYM = "synonym"
DESCRIPTION = "description"

_WEIGHTS = {TITLE: 1.0, SYNONYM: 1.0, DESCRIPTION: 0.5}


class _Alnum(dict):
    """A ``str.translate`` table: an alphanumeric character to itself, any other to a space.

    ``str.isalnum`` holds for exactly the characters that the regex class
    ``[^\\W_]`` matches.  Each answer is kept once computed.  Every value is
    one character, which keeps ``translate`` on its ASCII fast path.
    """

    def __missing__(self, point: int) -> str:
        char = chr(point)
        value = self[point] = char if char.isalnum() else " "
        return value


_WORDS = _Alnum()

# Between two fields of the joined taxonomy text.  ``_FIELDS`` keeps it, so
# it stays a token of its own.
_SEP = "\x00"
_FIELDS = _Alnum({ord(_SEP): _SEP})


def tokenize(text: str) -> list[str]:
    """Case-folded alphanumeric tokens, shortest ones dropped."""
    return [tok for tok in text.casefold().translate(_WORDS).split() if len(tok) >= 2]


@dataclass
class Suggestion:
    code: str
    score: float
    matched_terms: list[tuple[str, str]]


def _record(postings: dict[str, dict[str, str]], keep, fields: dict[str, str],
            source: str) -> None:
    """Add ``source`` postings for the kept tokens of each code's field in ``fields``.

    The fields are joined with a separator token between them.  casefold
    and translate act per character, so the joined text splits into the
    fields' own tokens, and counting separators tells whose token it is.
    A code keeps the first source recorded for a token.
    """
    codes = list(fields)
    joined = f" {_SEP} ".join(fields.values())
    if joined.count(_SEP) != len(codes) - 1:
        # A field holds the separator; to ``tokenize`` it is a space anyway.
        joined = f" {_SEP} ".join([field.replace(_SEP, " ") for field in fields.values()])
    field = 0
    for token in filter(keep, joined.casefold().translate(_FIELDS).split()):
        if token == _SEP:
            field += 1
        else:
            postings[token].setdefault(codes[field], source)


def _index(t: Taxonomy, wanted: set[str]) -> tuple[dict[str, dict[str, str]], dict[str, int]]:
    """Token -> {code -> best source field}, plus document frequencies.

    Only the ``wanted`` tokens are recorded: scoring reads nothing else.
    They all pass ``tokenize``'s length filter, so raw tokens suffice.
    """
    nodes = t.nodes
    postings: dict[str, dict[str, str]] = {token: {} for token in wanted}
    keep = {*wanted, _SEP}.__contains__
    # Best source first.  A node's synonyms are one field: a space keeps
    # their tokens apart as well as a separator would.
    _record(postings, keep, {code: node.title for code, node in nodes.items()}, TITLE)
    _record(postings, keep, {code: " ".join(node.synonyms)
                             for code, node in nodes.items() if node.synonyms}, SYNONYM)
    _record(postings, keep, {code: node.description
                             for code, node in nodes.items() if node.description}, DESCRIPTION)
    postings = {token: per_code for token, per_code in postings.items() if per_code}
    df = {token: len(per_code) for token, per_code in postings.items()}
    return postings, df


def suggest(text: str, t: Taxonomy, n: int) -> list[Suggestion]:
    """Top ``n`` classes for ``text``, scored by summed token idf.

    Tokens occurring in every node carry no information (idf zero) and
    are skipped, so a positive score always has matched terms behind it.
    Equal float scores break by code for determinism.  Scores are float
    sums of idf terms, so two that are equal in exact arithmetic can
    differ in the last bit and then rank by that bit, not by code.
    """
    if n < 1:
        raise ValueError("suggestion count must be at least 1")
    total = len(t.nodes)
    wanted = set(tokenize(text))
    if total == 0 or not wanted:
        return []
    postings, df = _index(t, wanted)
    # Each code's terms are added in token order, so its score is the
    # same float sum whichever codes make the top ``n``.
    terms = [token for token in sorted(postings) if df[token] < total]
    scores: dict[str, float] = {}
    for token in terms:
        idf = math.log(total / df[token])
        gain = {source: weight * idf for source, weight in _WEIGHTS.items()}
        for code, source in postings[token].items():
            scores[code] = scores.get(code, 0.0) + gain[source]
    top = heapq.nsmallest(n, zip(map(operator.neg, scores.values()), scores))
    return [
        Suggestion(code=code, score=scores[code],
                   matched_terms=[(token, postings[token][code]) for token in terms
                                  if code in postings[token]])
        for _, code in top
    ]
