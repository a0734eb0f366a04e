"""Design-model classification audits: comprehensiveness, version matching,
code diffs, and cross-model reliability."""

import dataclasses
import random
from fractions import Fraction

import pytest

import oracles
from conftest import OBJECT_CODES, clone_object, make_object
from taxtrace.errors import KindMismatch, MissingAttribute, UnknownCode
from taxtrace.audit import (
    DEFAULT_FINGERPRINT_ATTRS,
    check_comprehensiveness,
    diff_codes,
    fingerprint,
    inter_reliability,
    match_versions,
    object_code,
)
from taxtrace.store import Artifact


def model(codes_by_id, **common):
    return [make_object(object_id, code, **common)
            for object_id, code in codes_by_id.items()]


class TestObjectCode:
    def test_normalizes_raw_export_values(self):
        assert object_code(make_object("D1", " 32qd-- ")) == "32QD"

    def test_without_code_attribute(self):
        obj = make_object("D1", "18B")
        del obj.attrs["sb11_code"]
        assert object_code(obj) is None

    def test_whitespace_only_code_is_unusable(self):
        assert object_code(make_object("D1", "   ")) is None


class TestComprehensiveness:
    def test_fully_coded_model_is_clean(self, canon_tax):
        report = check_comprehensiveness(model(OBJECT_CODES), canon_tax)
        assert report.total == 20
        assert report.classified == 20
        assert report.ratio == Fraction(1)
        assert report.findings == []

    def test_typo_is_reported_verbatim_but_counts_as_classified(self, canon_tax):
        objects = model(OBJECT_CODES) + [make_object("D98", "31BB")]
        report = check_comprehensiveness(objects, canon_tax)
        assert report.classified == 21
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.category == "unknown-code"
        assert finding.severity == "error"
        assert finding.object_ids == ["D98"]
        assert "'31BB'" in finding.detail

    def test_shared_typo_is_one_finding_with_all_objects(self, canon_tax):
        objects = [make_object("D2", "31BB"), make_object("D1", "31BB"),
                   make_object("D3", "9ZZ")]
        report = check_comprehensiveness(objects, canon_tax)
        assert [(f.category, f.object_ids) for f in report.findings] == [
            ("unknown-code", ["D1", "D2"]),
            ("unknown-code", ["D3"]),
        ]

    def test_unnormalized_spelling_of_a_real_code_is_fine(self, canon_tax):
        report = check_comprehensiveness([make_object("D1", "32qd--")], canon_tax)
        assert report.findings == []

    def test_missing_code_is_an_error_and_not_classified(self, canon_tax):
        obj = make_object("D1", "18B")
        del obj.attrs["sb11_code"]
        report = check_comprehensiveness([obj], canon_tax)
        assert report.classified == 0
        assert report.ratio == Fraction(0)
        assert [f.category for f in report.findings] == ["missing-code"]

    def test_empty_model(self, canon_tax):
        report = check_comprehensiveness([], canon_tax)
        assert report.total == 0
        assert report.ratio == Fraction(1)

    def test_rejects_non_design_artifacts(self, canon_tax):
        wrong = Artifact(id="R1", kind="requirement", title="r")
        with pytest.raises(KindMismatch):
            check_comprehensiveness([wrong], canon_tax)


class TestFingerprint:
    def test_equal_attributes_equal_fingerprint(self):
        a = make_object("A", "18B")
        b = make_object("B", "18B")
        b.attrs.update({k: a.attrs[k] for k in DEFAULT_FINGERPRINT_ATTRS})
        assert fingerprint(a) == fingerprint(b)

    def test_any_attribute_change_changes_it(self):
        a = make_object("A", "18B")
        base = fingerprint(a)
        for name in DEFAULT_FINGERPRINT_ATTRS:
            b = make_object("A", "18B")
            b.attrs[name] = b.attrs[name] + "9"
            assert fingerprint(b) != base, name

    def test_values_are_trimmed(self):
        a = make_object("A", "18B")
        b = make_object("A", "18B")
        b.attrs["volume"] = f"  {a.attrs['volume']}  "
        assert fingerprint(a) == fingerprint(b)

    def test_blocklisted_names_are_skipped_silently(self):
        a = make_object("A", "18B", coordinates="1,2,3")
        with_block = fingerprint(a, attrs=("volume", "coordinates"))
        assert with_block == fingerprint(a, attrs=("volume",))
        assert "coordinates" not in with_block

    def test_placement_does_not_affect_the_default_fingerprint(self):
        a = make_object("A", "18B", position="0,0,0")
        b = make_object("A", "18B", position="5,5,5")
        assert fingerprint(a) == fingerprint(b)

    def test_missing_listed_attribute(self):
        obj = make_object("A", "18B")
        del obj.attrs["volume"]
        with pytest.raises(MissingAttribute):
            fingerprint(obj)

    def test_empty_attribute_list(self):
        with pytest.raises(ValueError):
            fingerprint(make_object("A", "18B"), attrs=())

    def test_format_is_name_value_pairs(self):
        obj = make_object("A", "18B")
        got = fingerprint(obj, attrs=("volume", "base_area"))
        assert got == f"volume={obj.attrs['volume']};base_area={obj.attrs['base_area']}"


class TestMatchVersions:
    def test_renamed_ids_with_kept_shapes_all_match(self):
        v1 = model(OBJECT_CODES)
        v2 = [clone_object(obj, f"X-{obj.id}") for obj in v1]
        report = match_versions(v1, v2)
        assert report.match_ratio == Fraction(1)
        assert report.code_changes == []
        assert report.unmatched_v1 == [] and report.unmatched_v2 == []
        assert dict(report.matched_pairs) == {
            object_id: f"X-{object_id}" for object_id in OBJECT_CODES
        }

    def test_changed_shape_leaves_both_sides_unmatched(self):
        a, b = make_object("A", "18B"), make_object("B", "63N")
        v2 = [clone_object(a, "A2"), clone_object(b, "B2", volume="999.99")]
        report = match_versions([a, b], v2)
        assert report.matched_pairs == [("A", "A2")]
        assert report.match_ratio == Fraction(1, 2)
        assert report.unmatched_v1 == ["B"]
        assert report.unmatched_v2 == ["B2"]

    def test_code_change_on_a_matched_pair_is_a_warning(self):
        a = make_object("A", "18B")
        report = match_versions([a], [clone_object(a, "A2", sb11_code="63N")])
        assert report.match_ratio == Fraction(1)
        assert len(report.code_changes) == 1
        finding = report.code_changes[0]
        assert finding.category == "code-changed"
        assert finding.severity == "warning"
        assert finding.object_ids == ["A", "A2"]

    def test_ambiguity_in_either_version_disqualifies_the_print(self):
        twin_a = make_object("A", "18B")
        twin_b = clone_object(twin_a, "B", version="v1")
        lone = make_object("C", "63N")
        v2 = [clone_object(twin_a, "A2"), clone_object(lone, "C2")]
        report = match_versions([twin_a, twin_b, lone], v2)
        assert report.matched_pairs == [("C", "C2")]
        assert report.match_ratio == Fraction(1, 3)
        assert len(report.ambiguous_fingerprints) == 1
        assert set(report.unmatched_v1) == {"A", "B"}
        assert report.unmatched_v2 == ["A2"]
        # The duplicate side may be v2 instead; the print is still out.
        flipped = match_versions(v2, [twin_a, twin_b, lone])
        assert flipped.matched_pairs == [("C2", "C")]
        assert flipped.match_ratio == Fraction(1, 2)

    def test_empty_first_version(self):
        report = match_versions([], [make_object("A", "18B")])
        assert report.match_ratio == Fraction(1)
        assert report.matched_pairs == []

    def test_kind_is_enforced_on_both_sides(self):
        wrong = Artifact(id="T", kind="test-case", title="t")
        with pytest.raises(KindMismatch):
            match_versions([wrong], [])
        with pytest.raises(KindMismatch):
            match_versions([], [wrong])


class TestDiffCodes:
    def test_identical_models_diff_empty(self):
        v1 = model(OBJECT_CODES)
        diff = diff_codes(v1, v1)
        assert diff.new_in_v2 == [] and diff.absent_in_v2 == []
        assert diff.per_code_counts["18B"] == (4, 4)

    def test_added_and_removed_codes(self):
        v1 = [make_object("A", "18B"), make_object("B", "63N")]
        v2 = [make_object("A2", "18B"), make_object("C2", "63FH")]
        diff = diff_codes(v1, v2)
        assert diff.new_in_v2 == ["63FH"]
        assert diff.absent_in_v2 == ["63N"]
        assert diff.per_code_counts == {
            "18B": (1, 1), "63N": (1, 0), "63FH": (0, 1),
        }

    def test_uncoded_objects_are_ignored(self):
        silent = make_object("S", "18B")
        del silent.attrs["sb11_code"]
        diff = diff_codes([silent], [])
        assert diff.per_code_counts == {}

    def test_random_models_match_set_arithmetic(self):
        rng = random.Random(71)
        pool = ["18B", "63N", "63FH", "32QD", "32QG", "31B", "32GDC"]
        for trial in range(30):
            v1 = [make_object(f"A{i}", rng.choice(pool), salt=trial)
                  for i in range(rng.randint(0, 12))]
            v2 = [make_object(f"B{i}", rng.choice(pool), salt=trial)
                  for i in range(rng.randint(0, 12))]
            codes_1 = {object_code(o) for o in v1}
            codes_2 = {object_code(o) for o in v2}
            diff = diff_codes(v1, v2)
            assert set(diff.new_in_v2) == codes_2 - codes_1
            assert set(diff.absent_in_v2) == codes_1 - codes_2


class TestInterReliability:
    def make_side(self, prefix, code_to_types):
        out = []
        for code, labels in code_to_types.items():
            for i, label in enumerate(labels):
                out.append(make_object(f"{prefix}{code}-{i}", code, type_label=label))
        return out

    def test_agreeing_models_pass(self, canon_tax):
        a = self.make_side("A", {"32QD": ["fence"], "18B": ["tunnel"]})
        b = self.make_side("B", {"32QD": ["fence"], "18B": ["tunnel", "tube"]})
        report = inter_reliability(a, b, {"32QD", "18B"}, "type", canon_tax)
        assert report.findings == []
        assert report.per_code["32QD"] == {"a": ["fence"], "b": ["fence"]}

    def test_disjoint_type_sets_are_flagged(self, canon_tax):
        a = self.make_side("A", {"32GDC": ["ditch"]})
        b = self.make_side("B", {"32GDC": ["culvert"]})
        report = inter_reliability(a, b, {"32GDC"}, "type", canon_tax)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.category == "inconsistent-type"
        assert finding.severity == "error"
        assert "32GDC" in finding.detail

    def test_overlap_of_one_label_is_enough(self, canon_tax):
        a = self.make_side("A", {"32GDC": ["ditch", "drain"]})
        b = self.make_side("B", {"32GDC": ["culvert", "drain"]})
        report = inter_reliability(a, b, {"32GDC"}, "type", canon_tax)
        assert report.findings == []

    def test_code_used_by_one_side_only_passes(self, canon_tax):
        a = self.make_side("A", {"63N": ["generator"]})
        report = inter_reliability(a, [], {"63N"}, "type", canon_tax)
        assert report.findings == []
        assert report.per_code["63N"] == {"a": ["generator"], "b": []}

    def test_sampled_code_must_exist(self, canon_tax):
        with pytest.raises(UnknownCode):
            inter_reliability([], [], {"NOPE"}, "type", canon_tax)

    def test_only_sampled_codes_are_examined(self, canon_tax):
        a = self.make_side("A", {"32GDC": ["ditch"], "63N": ["generator"]})
        b = self.make_side("B", {"32GDC": ["culvert"], "63N": ["appliance"]})
        report = inter_reliability(a, b, {"63N"}, "type", canon_tax)
        assert [f.detail for f in report.findings] != []
        assert all("32GDC" not in f.detail for f in report.findings)
        assert set(report.per_code) == {"63N"}

    def test_objects_without_the_type_attribute_are_skipped(self, canon_tax):
        bare = make_object("A1", "32GDC")
        del bare.attrs["type"]
        b = self.make_side("B", {"32GDC": ["culvert"]})
        report = inter_reliability([bare], b, {"32GDC"}, "type", canon_tax)
        assert report.findings == []

    def test_kind_mismatch(self, canon_tax):
        wrong = Artifact(id="R", kind="requirement", title="r")
        with pytest.raises(KindMismatch):
            inter_reliability([wrong], [], {"18B"}, "type", canon_tax)

    def test_random_models_match_nested_scan_oracle(self, canon_tax):
        rng = random.Random(31)
        codes = sorted(canon_tax.nodes)
        spellings = {code: [code, code.lower(), f" {code.lower()}-- ", f"{code}--"]
                     for code in codes}
        labels = ["ditch", "drain", "culvert", "fence", "  fence ", "", "   ", None]
        for trial in range(200):
            # Each side codes with its own subset, so some codes are used
            # by one side only and some sampled codes by no object at all.
            used = {side: rng.sample(codes, rng.randint(0, len(codes)))
                    for side in ("a", "b")}
            sides = {}
            for side, pool in used.items():
                objects = []
                for i in range(rng.randint(0, 15)):
                    roll = rng.random()
                    if not pool or roll < 0.1:
                        raw = None
                    elif roll < 0.15:
                        raw = "  -- "
                    else:
                        raw = rng.choice(spellings[rng.choice(pool)])
                    label = rng.choice(labels)
                    obj = make_object(f"{side.upper()}{i}", raw, salt=trial,
                                      type_label=label or "")
                    if label is None:
                        del obj.attrs["type"]
                    objects.append(obj)
                sides[side] = objects
            sample = set(rng.sample(codes, rng.randint(0, len(codes))))
            raw_sample = {rng.choice(spellings[code]) for code in sample}
            report = inter_reliability(sides["a"], sides["b"], raw_sample, "type", canon_tax)
            assert dataclasses.asdict(report) == oracles.inter_reliability_oracle(
                sides["a"], sides["b"], sample, "type")
