"""Taxonomy parsing, relations, and traversals against brute-force oracles."""

import dataclasses
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import tax_from_parents
from taxtrace.errors import (
    CycleDetected,
    DuplicateCode,
    EmptyCode,
    MalformedRecord,
    UnknownCode,
    UnknownParent,
)
from taxtrace.taxonomy import (
    Taxonomy,
    TaxonomyNode,
    _build,
    ancestors,
    descendants,
    infer_parents,
    neighborhood,
    normalize_code,
    parse_taxonomy,
    relation,
    write_taxonomy,
)


class TestNormalize:
    def test_strips_trailing_dash_padding(self):
        assert normalize_code("32QD--") == "32QD"

    @pytest.mark.parametrize("raw", ["32QD -", "32qd\t--", "32QD- \u3000-", "32QD\r-"])
    def test_strips_dash_and_whitespace_padding_together(self, raw):
        assert normalize_code(raw) == "32QD"

    def test_already_normal_is_unchanged(self):
        assert normalize_code("31B") == "31B"

    def test_trims_and_uppercases(self):
        assert normalize_code("  63fh ") == "63FH"

    @pytest.mark.parametrize("raw", ["", "   ", "---", " -- "])
    def test_rejects_empty_results(self, raw):
        with pytest.raises(EmptyCode):
            normalize_code(raw)

    @given(st.text(min_size=1, max_size=20))
    @example("0\r-")
    @example("32QD -")
    def test_idempotent_on_accepted_input(self, raw):
        try:
            once = normalize_code(raw)
        except EmptyCode:
            return
        assert normalize_code(once) == once


class TestNode:
    def test_fields_cannot_be_set(self):
        node = TaxonomyNode("A", "Alpha")
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.parent = "B"
        assert node.parent is None

    def test_defaults_equality_and_replace(self):
        a, b = TaxonomyNode("A", "Alpha"), TaxonomyNode(code="A", title="Alpha")
        assert a == b
        assert a.synonyms == [] and a.synonyms is not b.synonyms
        moved = dataclasses.replace(a, parent="R", synonyms=["first"])
        assert moved == TaxonomyNode("A", "Alpha", None, ["first"], "R")
        assert a.parent is None and a.synonyms == []


HEADER = "code,parent,title,description,synonyms\n"

PARSE_REJECTS = [
    ("tabular", "wrong,header\n", "expected header 'code,parent,title,description,synonyms'"),
    ("tabular", HEADER + "A,,Alpha\n", "row 2: expected 5 fields, got 3"),
    ("tabular", HEADER + "A,,Alpha,,\n--,,Dash,,\n", "row 3: empty code"),
    ("tabular", HEADER + "A,--,Alpha,,\n", "row 2: unusable parent '--'"),
    ("tabular", HEADER + "A,, ,,\n", "row 2: empty title for code 'A'"),
    ("structured", "", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("structured", "[]", "expected an object with a 'nodes' list"),
]


class TestParse:
    def test_canonical_fixture_has_eleven_nodes(self, canon_tax):
        assert len(canon_tax) == 11
        assert canon_tax.nodes["31B"].parent == "31"
        assert canon_tax.nodes["31"].parent == "3"
        assert canon_tax.nodes["18B"].parent == "1"
        assert canon_tax.nodes["63N"].synonyms == ["auxiliary power"]

    def test_empty_node_list(self):
        t = parse_taxonomy("code,parent,title,description,synonyms\n")
        assert len(t) == 0
        assert t.roots == []

    def test_unknown_parent_names_offender(self):
        text = "code,parent,title,description,synonyms\nA,99,Alpha,,\n"
        with pytest.raises(UnknownParent, match="99"):
            parse_taxonomy(text)

    def test_duplicate_code_names_offender(self):
        text = (
            "code,parent,title,description,synonyms\n"
            "A,,Alpha,,\n"
            "a--,,Alpha again,,\n"
        )
        with pytest.raises(DuplicateCode, match="'A'"):
            parse_taxonomy(text)

    def test_cycle_detected(self):
        text = (
            "code,parent,title,description,synonyms\n"
            "A,B,Alpha,,\n"
            "B,A,Beta,,\n"
        )
        with pytest.raises(CycleDetected):
            parse_taxonomy(text)

    @pytest.mark.parametrize(
        "text",
        [
            "wrong,header\nA,,Alpha,,\n",
            "code,parent,title,description,synonyms\nA,,Alpha\n",
            "code,parent,title,description,synonyms\n,,Alpha,,\n",
            "code,parent,title,description,synonyms\nA,, ,,\n",
        ],
    )
    def test_malformed_rows(self, text):
        with pytest.raises(MalformedRecord):
            parse_taxonomy(text)

    @pytest.mark.parametrize("fmt, text, message", PARSE_REJECTS,
                             ids=[message for _, _, message in PARSE_REJECTS])
    def test_reject_message(self, fmt, text, message):
        with pytest.raises(MalformedRecord) as info:
            parse_taxonomy(text, format=fmt)
        assert str(info.value) == message

    def test_structured_round_trips_canonical(self, canon_tax):
        text = write_taxonomy(canon_tax, format="structured")
        again = parse_taxonomy(text, format="structured")
        assert write_taxonomy(again, format="structured") == text

    def test_structured_rejects_unknown_fields(self):
        with pytest.raises(MalformedRecord, match="extra"):
            parse_taxonomy('{"nodes": [{"code": "A", "title": "Alpha", "extra": 1}]}',
                           format="structured")

    def test_structured_refuses_a_list_or_an_object_as_text(self):
        # Python's ``str`` once made them text: class "{'A': 1}" titled
        # "['x', None]".
        text = ('{"nodes": [{"code": {"a": 1}, "title": ["x", null], "description": true, '
                '"synonyms": [false, 1.5]}]}')
        with pytest.raises(MalformedRecord) as caught:
            parse_taxonomy(text, format="structured")
        assert str(caught.value) == "nodes[0]: code must be a string, number or boolean"

    @pytest.mark.parametrize("field, value, message", [
        ("title", ["x", None], "title must be a string, number or boolean"),
        ("parent", {"a": 1}, "parent must be a string, number or boolean"),
        ("description", [], "description must be a string, number or boolean"),
        ("synonyms", ["x", {}], "a synonym must be a string, number or boolean"),
        ("synonyms", [["x"]], "a synonym must be a string, number or boolean"),
    ])
    def test_structured_refuses_a_list_or_an_object_in_any_text_field(self, field, value,
                                                                        message):
        nodes = [{"code": "A", "title": "Alpha"}, {"code": "B", "title": "Beta", field: value}]
        with pytest.raises(MalformedRecord) as caught:
            parse_taxonomy(json.dumps({"nodes": nodes}), format="structured")
        assert str(caught.value) == f"nodes[1]: {message}"

    def test_structured_spells_numbers_and_booleans_as_json_does(self):
        text = ('{"nodes": [{"code": 3, "title": "Three"}, {"code": 31, "parent": 3, '
                '"title": true, "description": false, "synonyms": [false, 1.5, 2.50]}]}')
        node = parse_taxonomy(text, format="structured").nodes["31"]
        assert (node.code, node.parent, node.title, node.description, node.synonyms) == (
            "31", "3", "true", "false", ["false", "1.5", "2.5"])

    def test_tabular_round_trips_canonical(self, canon_tax):
        text = write_taxonomy(canon_tax)
        assert write_taxonomy(parse_taxonomy(text)) == text

    def test_tabular_writer_refuses_a_synonym_holding_the_separator(self):
        # The tabular format joins a row's synonyms with "|", so "x|y" would
        # be read back as the two synonyms "x" and "y".
        t = Taxonomy({"A": TaxonomyNode("A", "Alpha", synonyms=["x|y"])})
        with pytest.raises(ValueError) as caught:
            write_taxonomy(t, "tabular")
        assert str(caught.value) == ("taxonomy node 'A' has a synonym 'x|y' holding '|', "
                                     "which the tabular format cannot write")
        again = parse_taxonomy(write_taxonomy(t, "structured"), format="structured")
        assert again.nodes["A"].synonyms == ["x|y"]

    def test_round_trip_random_forests(self):
        rng = random.Random(2024)
        for _ in range(20):
            t = tax_from_parents(oracles.random_forest(rng, 30))
            for fmt in ("tabular", "structured"):
                text = write_taxonomy(t, format=fmt)
                assert write_taxonomy(parse_taxonomy(text, format=fmt), format=fmt) == text


class TestInfer:
    def test_nested_prefixes(self):
        assert infer_parents({"3", "31", "31B"}) == {"3": None, "31": "3", "31B": "31"}

    def test_single_code_is_root(self):
        assert infer_parents({"63FH"}) == {"63FH": None}

    def test_pair_with_prefix(self):
        assert infer_parents({"1", "18B"}) == {"1": None, "18B": "1"}

    @given(st.sets(st.text(alphabet="AB1", min_size=1, max_size=5), min_size=1, max_size=25))
    @settings(max_examples=60)
    def test_longest_proper_prefix_against_pairwise_scan(self, codes):
        normalized = {normalize_code(c) for c in codes}
        parents = infer_parents(normalized)
        for code in normalized:
            # The obvious oracle: try every other code as a prefix.
            candidates = [
                other
                for other in normalized
                if other != code and code.startswith(other)
            ]
            expected = max(candidates, key=len) if candidates else None
            assert parents[code] == expected
        # The inferred parents form a forest that the loader's checks accept.
        _build([TaxonomyNode(code=c, title=c, parent=p) for c, p in parents.items()])


class TestRelation:
    def test_descendant_one_level(self, canon_tax):
        r = relation(canon_tax, "31B", "31")
        assert (r.kind, r.distance) == ("descendant", 1)

    def test_reflexive_same(self, canon_tax):
        r = relation(canon_tax, "31", "31")
        assert (r.kind, r.distance) == ("same", 0)

    def test_top_level_roots_are_siblings(self, canon_tax):
        r = relation(canon_tax, "2", "1")
        assert (r.kind, r.distance) == ("sibling", 2)

    def test_ancestor_two_levels(self, canon_tax):
        r = relation(canon_tax, "3", "31B")
        assert (r.kind, r.distance) == ("ancestor", 2)

    def test_cross_tree_is_unrelated_without_distance(self, canon_tax):
        r = relation(canon_tax, "31B", "18B")
        assert (r.kind, r.distance) == ("unrelated", None)

    def test_same_tree_cousins_are_unrelated_with_distance(self):
        t = tax_from_parents({"R": None, "A": "R", "B": "R", "A1": "A", "B1": "B"})
        r = relation(t, "A1", "B1")
        assert (r.kind, r.distance) == ("unrelated", 4)

    def test_unknown_code(self, canon_tax):
        with pytest.raises(UnknownCode):
            relation(canon_tax, "31B", "ZZZ")

    def test_accepts_unnormalized_input(self, canon_tax):
        r = relation(canon_tax, "  31b ", "31--")
        assert (r.kind, r.distance) == ("descendant", 1)


class TestNeighborhood:
    def test_radius_zero_is_self(self, canon_tax):
        assert neighborhood(canon_tax, "31B", 0) == ["31B"]

    def test_radius_one_around_mid_node(self, canon_tax):
        assert neighborhood(canon_tax, "31", 1) == ["3", "31", "31B"]

    def test_negative_radius_rejected(self, canon_tax):
        with pytest.raises(ValueError):
            neighborhood(canon_tax, "31", -1)

    def test_stays_within_tree(self, canon_tax):
        # Other roots are never reachable breadth-first.
        assert "2" not in neighborhood(canon_tax, "1", 10)


class TestTraversals:
    def test_descendants_of_mid_root(self, canon_tax):
        assert descendants(canon_tax, "3") == ["31", "31B"]

    def test_descendants_of_leaf(self, canon_tax):
        assert descendants(canon_tax, "31B") == []

    def test_ancestors_child_to_root(self, canon_tax):
        assert ancestors(canon_tax, "31B") == ["31", "3"]
        assert ancestors(canon_tax, "3") == []


class TestAgainstOracle:
    """Seeded random forests, every pair, against the BFS oracle.

    The wide version (100 forests up to 200 nodes) runs with the
    acceptance checks; this one keeps unit runs fast.
    """

    def test_relation_neighborhood_and_traversals(self):
        rng = random.Random(7)
        for _ in range(25):
            parents = oracles.random_forest(rng, 60)
            t = tax_from_parents(parents)
            dist = oracles.all_pairs_distances(parents)
            nodes = sorted(parents)
            for a in nodes:
                assert set(descendants(t, a)) == oracles.descendants_oracle(parents, a)
                assert ancestors(t, a) == oracles.ancestors_oracle(parents, a)
                for k in range(4):
                    assert set(neighborhood(t, a, k)) == oracles.neighborhood_oracle(dist, a, k)
                for b in nodes:
                    got = relation(t, a, b)
                    assert (got.kind, got.distance) == oracles.relation_oracle(parents, dist, a, b)

    @given(st.integers(min_value=0, max_value=10_000), st.data())
    @settings(max_examples=40, deadline=None)
    def test_distance_symmetry_and_kind_swap(self, seed, data):
        parents = oracles.random_forest(random.Random(seed), 30)
        t = tax_from_parents(parents)
        nodes = sorted(parents)
        a = data.draw(st.sampled_from(nodes))
        b = data.draw(st.sampled_from(nodes))
        ab, ba = relation(t, a, b), relation(t, b, a)
        assert ab.distance == ba.distance
        swap = {"ancestor": "descendant", "descendant": "ancestor"}
        assert ba.kind == swap.get(ab.kind, ab.kind)

    @given(st.integers(min_value=0, max_value=10_000), st.data())
    @settings(max_examples=40, deadline=None)
    def test_neighborhood_monotone_in_k(self, seed, data):
        parents = oracles.random_forest(random.Random(seed), 30)
        t = tax_from_parents(parents)
        c = data.draw(st.sampled_from(sorted(parents)))
        k = data.draw(st.integers(min_value=0, max_value=5))
        assert set(neighborhood(t, c, k)) <= set(neighborhood(t, c, k + 1))
