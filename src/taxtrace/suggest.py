"""Lexical class suggestion: rank taxonomy classes for a piece of text.

Pure token overlap weighted by inverse document frequency over the
taxonomy's own vocabulary.  No stemming, no learning: synonyms on the
taxonomy nodes are the mechanism for vocabulary that the class titles do
not use (an artifact saying "auxiliary power" only reaches a class that
lists it as a synonym).  A human confirms or rejects the suggestions;
nothing is assigned automatically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .taxonomy import Taxonomy

TITLE = "title"
SYNONYM = "synonym"
DESCRIPTION = "description"

_WEIGHTS = {TITLE: 1.0, SYNONYM: 1.0, DESCRIPTION: 0.5}

_TOKEN_RE = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Case-folded alphanumeric tokens, shortest ones dropped."""
    return [tok for tok in _TOKEN_RE.findall(text.casefold()) if len(tok) >= 2]


@dataclass
class Suggestion:
    code: str
    score: float
    matched_terms: list[tuple[str, str]]


def _index(t: Taxonomy, wanted: set[str]) -> tuple[dict[str, dict[str, str]], dict[str, int]]:
    """Token -> {code -> best source field}, plus document frequencies.

    Only the ``wanted`` tokens are recorded: scoring reads nothing else.
    """
    # Wanted tokens all pass ``tokenize``'s length filter, so raw matches
    # suffice.  Fields are read best source first; the first one wins.
    findall = _TOKEN_RE.findall
    postings: dict[str, dict[str, str]] = {}
    for code, node in t.nodes.items():
        for token in wanted.intersection(findall(node.title.casefold())):
            postings.setdefault(token, {})[code] = TITLE
        for synonym in node.synonyms:
            for token in wanted.intersection(findall(synonym.casefold())):
                postings.setdefault(token, {}).setdefault(code, SYNONYM)
        if node.description:
            for token in wanted.intersection(findall(node.description.casefold())):
                postings.setdefault(token, {}).setdefault(code, DESCRIPTION)
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
    if total == 0:
        return []
    wanted = set(tokenize(text))
    postings, df = _index(t, wanted)
    matched: dict[str, list[tuple[str, str]]] = {}
    for token in sorted(wanted):
        per_code = postings.get(token)
        if not per_code or df[token] == total:
            continue
        for code, source in per_code.items():
            matched.setdefault(code, []).append((token, source))
    suggestions = []
    for code, terms in matched.items():
        score = 0.0
        for token, source in terms:
            score += _WEIGHTS[source] * math.log(total / df[token])
        suggestions.append(Suggestion(code=code, score=score, matched_terms=terms))
    suggestions.sort(key=lambda s: (-s.score, s.code))
    return suggestions[:n]
