"""Lexical class suggestion: scoring, ranking, and matched-term reporting."""

import math
import random
import re

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import oracles
from conftest import SAMPLED_BODIES
from taxtrace.suggest import suggest, tokenize
from taxtrace.taxonomy import Taxonomy, TaxonomyNode, parse_taxonomy


def mini_taxonomy(with_synonym=True):
    synonyms = ["auxiliary power machinery"] if with_synonym else []
    nodes = [
        TaxonomyNode(code="63N", title="Reserve supply systems", synonyms=synonyms),
        TaxonomyNode(code="63FH", title="Emergency lighting"),
        TaxonomyNode(code="18B", title="Concrete tunnels"),
    ]
    return Taxonomy(nodes={n.code: n for n in nodes})


class TestTokenize:
    def test_splits_on_nonword_and_casefolds(self):
        assert tokenize("Wild-fence, GAME fence!") == ["wild", "fence", "game", "fence"]

    def test_single_characters_are_dropped(self):
        assert tokenize("a b of c") == ["of"]

    def test_underscore_is_a_separator(self):
        assert tokenize("access_tunnels") == ["access", "tunnels"]

    def test_empty(self):
        assert tokenize("   ") == []


class TestRanking:
    def test_emergency_lighting_sentence(self, canon_tax):
        got = suggest(SAMPLED_BODIES["R6"], canon_tax, 5)
        assert [s.code for s in got] == ["18B", "63FH", "63N", "32QG", "3"]
        assert got[0].score == pytest.approx(5.190019225778876, rel=1e-12)
        assert got[1].score == pytest.approx(4.102643365036796, rel=1e-12)
        assert got[2].score == pytest.approx(1.7047480922384253, rel=1e-12)

    def test_synonym_reaches_class_the_title_misses(self, canon_tax):
        got = suggest("auxiliary power", canon_tax, 5)
        assert [s.code for s in got] == ["63N"]
        assert got[0].score == pytest.approx(2 * math.log(11), rel=1e-12)
        assert got[0].matched_terms == [("auxiliary", "synonym"), ("power", "title")]

    def test_without_the_synonym_the_class_is_not_found(self):
        with_syn = suggest("auxiliary power", mini_taxonomy(True), 3)
        without = suggest("auxiliary power", mini_taxonomy(False), 3)
        assert [s.code for s in with_syn] == ["63N"]
        assert without == []

    def test_description_matches_score_half(self, canon_tax):
        got = suggest("Wild and game fences", canon_tax, 1)
        assert got[0].code == "32QD"
        # fences: title (1.0), wild/game/and: description (0.5 each).
        expected = (
            math.log(11 / 2)
            + 0.5 * (math.log(11) + math.log(11) + math.log(11 / 5))
        )
        assert got[0].score == pytest.approx(expected, rel=1e-12)

    def test_top_n_truncates(self, canon_tax):
        assert len(suggest(SAMPLED_BODIES["R6"], canon_tax, 2)) == 2

    def test_ties_break_on_code(self, canon_tax):
        got = suggest("Wild and game fences", canon_tax, 5)
        tied = [s for s in got if s.matched_terms == [("and", "title")]]
        assert [s.code for s in tied] == ["3", "31B"]

    def test_matched_terms_are_token_sorted(self, canon_tax):
        got = suggest(SAMPLED_BODIES["R6"], canon_tax, 1)
        tokens = [term for term, _ in got[0].matched_terms]
        assert tokens == sorted(tokens)


class TestSourcePriority:
    def test_title_wins_over_description_for_the_same_token(self):
        nodes = [
            TaxonomyNode(code="A1", title="gate", description="gate opener"),
            TaxonomyNode(code="A2", title="fence"),
        ]
        t = Taxonomy(nodes={n.code: n for n in nodes})
        got = suggest("gate", t, 2)
        assert got[0].matched_terms == [("gate", "title")]
        # Counted once at full weight, not once per source.
        assert got[0].score == pytest.approx(math.log(2), rel=1e-12)

    def test_synonym_wins_over_description(self):
        nodes = [
            TaxonomyNode(code="A1", title="x1", description="pump station",
                         synonyms=["pump"]),
            TaxonomyNode(code="A2", title="x2"),
        ]
        t = Taxonomy(nodes={n.code: n for n in nodes})
        got = suggest("pump", t, 2)
        assert got[0].matched_terms == [("pump", "synonym")]
        assert got[0].score == pytest.approx(math.log(2), rel=1e-12)


class TestCornerCases:
    def test_empty_text(self, canon_tax):
        assert suggest("", canon_tax, 5) == []

    def test_text_without_known_terms(self, canon_tax):
        assert suggest("xylophone zephyr", canon_tax, 5) == []

    def test_empty_taxonomy(self):
        assert suggest("tunnels", Taxonomy(nodes={}), 5) == []

    def test_n_below_one(self, canon_tax):
        with pytest.raises(ValueError):
            suggest("tunnels", canon_tax, 0)

    def test_token_in_every_node_is_skipped(self):
        nodes = [
            TaxonomyNode(code="A1", title="shared alpha"),
            TaxonomyNode(code="A2", title="shared beta"),
        ]
        t = Taxonomy(nodes={n.code: n for n in nodes})
        got = suggest("shared alpha", t, 2)
        assert [s.code for s in got] == ["A1"]
        assert got[0].matched_terms == [("alpha", "title")]

    def test_case_and_punctuation_invariance(self, canon_tax):
        a = suggest("EMERGENCY-LIGHTING!", canon_tax, 5)
        b = suggest("emergency lighting", canon_tax, 5)
        assert [(s.code, s.score) for s in a] == [(s.code, s.score) for s in b]

    def test_returned_codes_exist_in_the_taxonomy(self, canon_tax):
        for s in suggest(SAMPLED_BODIES["R6"], canon_tax, 11):
            assert s.code in canon_tax

    def test_taxonomy_is_not_mutated(self, canon_tax):
        before = {c: (n.title, n.description, tuple(n.synonyms), n.parent)
                  for c, n in canon_tax.nodes.items()}
        suggest(SAMPLED_BODIES["R6"], canon_tax, 5)
        after = {c: (n.title, n.description, tuple(n.synonyms), n.parent)
                 for c, n in canon_tax.nodes.items()}
        assert before == after


# Pieces whose case folding grows or splits them (ß -> ss, ﬁ -> fi,
# İ -> i + combining dot), combining marks, digits and underscores.
UNICODE_PIECES = ["straße", "STRASSE", "ﬁre", "FIRE", "İnlet", "inlet", "cafe\u0301",
                  "café", "gate_way", "_", "9", "42", "x", "ß", "\u0301", "ﬁ"]
SEPARATORS = [" ", "_", "-", ", ", "\u0301 "]


def unicode_words(rng, count: int) -> list[str]:
    return ["".join(rng.choices(UNICODE_PIECES, k=rng.randint(1, 3))) for _ in range(count)]


def unicode_field(rng, words: list[str]) -> str:
    picked = rng.choices(words, k=rng.randint(1, 4))
    return "".join(word + rng.choice(SEPARATORS) for word in picked).strip()


def random_unicode_taxonomy(rng) -> Taxonomy:
    words = unicode_words(rng, 12)
    nodes = [
        TaxonomyNode(
            code=f"U{i}",
            title=unicode_field(rng, words),
            synonyms=[unicode_field(rng, words) for _ in range(rng.randint(0, 2))],
            description=unicode_field(rng, words) if rng.random() < 0.5 else None,
        )
        for i in range(rng.randint(2, 15))
    ]
    return Taxonomy(nodes={n.code: n for n in nodes})


class TestAgainstOracle:
    def test_random_queries_match_reference_scoring(self, canon_tax):
        def check(t, text):
            node_dicts = {
                n.code: {"title": n.title, "description": n.description or "",
                         "synonyms": list(n.synonyms)}
                for n in t.nodes.values()
            }
            got = suggest(text, t, len(t))
            want = oracles.scoring_oracle(node_dicts, text)
            assert {s.code for s in got} == set(want), text
            for s in got:
                assert s.score == pytest.approx(want[s.code], rel=1e-9), text
            keys = [(-s.score, s.code) for s in got]
            assert keys == sorted(keys), text
            return [s.code for s in got], sorted(want, key=lambda code: (-want[code], code))

        vocab = ["emergency", "lighting", "tunnels", "fences", "gates", "power",
                 "auxiliary", "service", "access", "wild", "game", "roads",
                 "concrete", "opening", "xyzzy", "and", "in", "for"]
        rng = random.Random(83)
        for _ in range(200):
            text = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
            got, ranked = check(canon_tax, text)
            assert got == ranked, text
        # Scores equal in exact arithmetic (log 10/3 once, or two idfs that
        # sum to it) can differ in the last bit between the two sums, so
        # here the order is checked against suggest's own scores only.
        rng = random.Random(89)
        for _ in range(40):
            t = random_unicode_taxonomy(rng)
            fields = [f for n in t.nodes.values()
                      for f in (n.title, *n.synonyms, n.description or "")]
            for _ in range(10):
                check(t, " ".join(rng.choices(fields, k=rng.randint(1, 3))
                                  + unicode_words(rng, rng.randint(0, 2))))

    def test_scores_are_positive_and_sorted(self, canon_tax):
        rng = random.Random(84)
        vocab = ["tunnels", "fences", "emergency", "power", "noise", "words"]
        for _ in range(100):
            text = " ".join(rng.choices(vocab, k=rng.randint(0, 8)))
            got = suggest(text, canon_tax, 11)
            assert all(s.score > 0 and s.matched_terms for s in got)
            keys = [(-s.score, s.code) for s in got]
            assert keys == sorted(keys)


# The separator ``_index`` joins fields with, the underscore, characters
# whose case folding grows (ß -> ss, İ -> i + combining dot) or depends on
# position (final sigma), numerals that are alphanumeric without being
# letters (², ½), and combining marks.
TRICKY = ["\x00", "_", "ß", "İ", "ς", "Σ", "²", "½", "\u0301", "\u0307", "ﬁ", " ", "-",
          "a", "Z", "9"]


def separator_field(rng) -> str:
    pieces = ["gate", "GATE", "fence", "ß", "ss", "\x00", " \x00 ", "x\x00y", "_", "İ", "i",
              "ς", "σ", "²", "½", "\u0301", " ", "-"]
    return "".join(rng.choices(pieces, k=rng.randint(1, 6)))


class TestTokenizerEquivalence:
    """The translate-and-split tokenizer against the character-by-character oracle."""

    @seed(23)
    @settings(max_examples=400, deadline=None, database=None)
    @given(st.text(st.one_of(st.sampled_from(TRICKY), st.characters()), max_size=40))
    @example("ab\x00cd")
    def test_tokenize_matches_the_oracle(self, text):
        assert tokenize(text) == oracles.oracle_tokens(text)

    def test_isalnum_is_the_regex_class_on_every_code_point(self):
        # The tokenizer keeps a character when ``str.isalnum`` holds, the
        # rule that the regex class ``[^\W_]`` states.  No kept character
        # is whitespace, so ``split`` keeps each run of them whole.
        text = "".join(map(chr, range(0x110000)))
        kept = "".join(filter(str.isalnum, text))
        assert "".join(re.findall(r"[^\W_]", text)) == kept
        assert not any(map(str.isspace, kept))

    def test_fields_holding_the_separator_match_reference_scoring(self):
        rng = random.Random(29)
        for _ in range(300):
            nodes = [
                TaxonomyNode(
                    code=f"S{i}",
                    title=separator_field(rng),
                    synonyms=[separator_field(rng) for _ in range(rng.randint(0, 2))],
                    description=separator_field(rng) if rng.random() < 0.6 else None,
                )
                for i in range(rng.randint(1, 8))
            ]
            t = Taxonomy(nodes={n.code: n for n in nodes})
            text = " ".join(separator_field(rng) for _ in range(rng.randint(1, 4)))
            want = oracles.scoring_oracle(
                {n.code: {"title": n.title, "description": n.description,
                          "synonyms": list(n.synonyms)} for n in nodes}, text)
            got = suggest(text, t, len(t))
            assert {s.code: s.score for s in got} == pytest.approx(want, rel=1e-9), (nodes, text)
