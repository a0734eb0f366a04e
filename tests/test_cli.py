"""End-to-end command-line behaviour, run in-process."""

import json

import pytest

from conftest import CANONICAL_TAXONOMY_CSV, OBJECT_CODES, SAMPLED_BODIES
from taxtrace import cli
from taxtrace.store import load_repository

NOW_A = "2026-01-15T09:00:00+00:00"
NOW_B = "2026-01-15T10:30:00+00:00"

SPLIT_SCENARIO = """{
  "artifacts": [
    {"id": "REQ1", "kind": "requirement", "codes": ["32QG"]},
    {"id": "SRC1", "kind": "source-unit", "codes": ["32QG"]},
    {"id": "SRC2", "kind": "source-unit", "codes": ["32QG"]},
    {"id": "TEST1", "kind": "test-case", "codes": ["32QG"]},
    {"id": "TEST2", "kind": "test-case", "codes": ["32QG"]}
  ],
  "mutation": {
    "type": "split",
    "id": "REQ1",
    "parts": [
      {"id": "REQ1A", "codes": ["32QG"]},
      {"id": "REQ1B", "codes": ["32QG"]}
    ]
  }
}"""


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    repo = tmp_path / "repo.json"
    monkeypatch.setenv("TTL_REPO", str(repo))
    monkeypatch.setenv("TTL_NOW", NOW_A)
    (tmp_path / "taxonomy.csv").write_text(CANONICAL_TAXONOMY_CSV, encoding="utf-8")
    return tmp_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seed_repo(capsys, workspace):
    assert run(capsys, "init")[0] == 0
    assert run(capsys, "import", "taxonomy", str(workspace / "taxonomy.csv"))[0] == 0
    lines = [
        {"id": "R3", "kind": "requirement", "title": "Fence gate distance",
         "body": SAMPLED_BODIES["R3"]},
        {"id": "R6", "kind": "requirement", "title": "Emergency lighting",
         "body": SAMPLED_BODIES["R6"]},
    ]
    artifacts = workspace / "artifacts.jsonl"
    artifacts.write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    assert run(capsys, "import", "artifacts", str(artifacts))[0] == 0
    rows = ["object_id,sb11_code,version,type"]
    rows += [f"{object_id},{code},v1,thing" for object_id, code in OBJECT_CODES.items()]
    model = workspace / "model.csv"
    model.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run(capsys, "import", "model", str(model))[0] == 0


class TestInit:
    def test_creates_a_loadable_repository(self, workspace, capsys):
        code, out, err = run(capsys, "init")
        assert code == 0
        repo = load_repository(str(workspace / "repo.json"))
        assert repo.artifacts == {}

    def test_refuses_to_overwrite(self, workspace, capsys):
        run(capsys, "init")
        code, out, err = run(capsys, "init")
        assert code == 2
        assert "error:" in err
        assert out == ""

    def test_explicit_path_argument(self, workspace, capsys):
        target = workspace / "other.json"
        assert run(capsys, "init", str(target))[0] == 0
        assert target.exists()


class TestImport:
    def test_model_import_warns_about_unknown_codes_but_succeeds(self, workspace, capsys):
        run(capsys, "init")
        run(capsys, "import", "taxonomy", str(workspace / "taxonomy.csv"))
        model = workspace / "model.csv"
        model.write_text(
            "object_id,sb11_code,version\nB1,31BB,v1\nB2,18B,v1\n", encoding="utf-8")
        code, out, err = run(capsys, "import", "model", str(model))
        assert code == 0
        assert "B1" in err and "31BB" in err
        repo = load_repository(str(workspace / "repo.json"))
        active = {(a.artifact_id, a.code) for a in repo.assignments
                  if a.status == "confirmed"}
        assert active == {("B2", "18B")}

    def test_taxonomy_with_inferred_hierarchy(self, workspace, capsys):
        run(capsys, "init")
        flat = workspace / "flat.csv"
        flat.write_text(
            "code,parent,title,description,synonyms\n"
            "32,,Fencing works,,\n"
            "32QD,,Fences,,\n"
            "32QD1,,Wildlife fences,,\n",
            encoding="utf-8")
        code, out, err = run(capsys, "import", "taxonomy", str(flat),
                             "--infer-hierarchy")
        assert code == 0
        repo = load_repository(str(workspace / "repo.json"))
        assert repo.taxonomy.nodes["32QD1"].parent == "32QD"
        assert repo.taxonomy.nodes["32QD"].parent == "32"
        assert repo.taxonomy.nodes["32"].parent is None

    def test_missing_file_is_a_usage_error(self, workspace, capsys):
        run(capsys, "init")
        code, out, err = run(capsys, "import", "taxonomy", str(workspace / "nope.csv"))
        assert code == 2
        assert "error:" in err


class TestWorkflow:
    def test_assign_trace_and_impact(self, workspace, capsys):
        seed_repo(capsys, workspace)
        assert run(capsys, "assign", "R3", "32QG")[0] == 0
        code, out, err = run(capsys, "trace", "R3", "--to", "design-object")
        assert code == 0
        hits = [line for line in out.splitlines() if line.startswith("D")]
        assert [h.split()[0] for h in hits] == ["D05", "D06", "D07", "D08"]
        assert "32QG->32QG (same, distance=0)" in hits[0]

    def test_unassign_reverses_assign(self, workspace, capsys):
        seed_repo(capsys, workspace)
        run(capsys, "assign", "R3", "32QG")
        assert run(capsys, "unassign", "R3", "32QG")[0] == 0
        code, out, err = run(capsys, "trace", "R3", "--to", "design-object")
        assert code == 2
        assert "error:" in err

    def test_suggest_ranks_the_lighting_class(self, workspace, capsys):
        seed_repo(capsys, workspace)
        code, out, err = run(capsys, "suggest", "R6", "-n", "3")
        assert code == 0
        assert out.splitlines()[0].startswith("18B")
        assert any(line.startswith("63FH") for line in out.splitlines())

    def test_mark_unclassifiable_then_coverage(self, workspace, capsys):
        seed_repo(capsys, workspace)
        run(capsys, "assign", "R6", "18B")
        assert run(capsys, "mark-unclassifiable", "R3", "vagueness",
                   "--note", "which fence?")[0] == 0
        code, out, err = run(capsys, "coverage", "--from", "requirement")
        assert code == 0
        assert "1/2" in out
        code, out, err = run(capsys, "coverage", "--from", "requirement",
                             "--policy", "exclude-unclassifiable")
        assert "1/1" in out

    def test_unknown_kind_is_a_usage_error(self, workspace, capsys):
        seed_repo(capsys, workspace)
        run(capsys, "assign", "R3", "32QG")
        code, out, err = run(capsys, "--strict", "coverage", "--from", "requirment",
                             "--to", "design-object")
        assert code == 2
        assert "unknown artifact kind 'requirment'" in err
        code, out, err = run(capsys, "trace", "R3", "--to", "design-objct")
        assert code == 2
        assert "unknown artifact kind 'design-objct'" in err

    def test_split_via_flags(self, workspace, capsys):
        seed_repo(capsys, workspace)
        run(capsys, "assign", "R3", "32QG")
        code, out, err = run(capsys, "split", "R3",
                             "--part", "R3A:32QG", "--part", "R3B:32QG")
        assert code == 0
        repo = load_repository(str(workspace / "repo.json"))
        assert repo.artifacts["R3"].archived
        assert "R3A" in repo.artifacts and "R3B" in repo.artifacts

    def test_split_part_spec_must_parse(self, workspace, capsys):
        seed_repo(capsys, workspace)
        run(capsys, "assign", "R3", "32QG")
        code, out, err = run(capsys, "split", "R3", "--part", "missing-colon")
        assert code == 2
        assert "error:" in err

    def test_impact_groups_by_kind(self, workspace, capsys):
        seed_repo(capsys, workspace)
        run(capsys, "assign", "R3", "32QG")
        code, out, err = run(capsys, "impact", "R3")
        assert code == 0
        assert "design-object" in out


class TestAudit:
    def test_comprehensiveness_clean_model(self, workspace, capsys):
        seed_repo(capsys, workspace)
        code, out, err = run(capsys, "audit", "comprehensiveness", "--model", "v1")
        assert code == 0
        assert "total 20 classified 20 ratio 1" in out

    def test_strict_turns_errors_into_exit_one(self, workspace, capsys):
        seed_repo(capsys, workspace)
        bad = workspace / "bad.csv"
        bad.write_text("object_id,sb11_code,version\nBX,99ZZ,v1\n", encoding="utf-8")
        run(capsys, "import", "model", str(bad))
        code, out, err = run(capsys, "--strict", "audit", "comprehensiveness",
                             "--model", "v1")
        assert code == 1
        assert "unknown-code" in out

    def test_inter_needs_exactly_two_models(self, workspace, capsys):
        seed_repo(capsys, workspace)
        code, out, err = run(capsys, "audit", "inter", "--model", "v1")
        assert code == 2

    def test_inter_with_defaulted_sample(self, workspace, capsys):
        seed_repo(capsys, workspace)
        rows = ["object_id,sb11_code,version,type"]
        rows += [f"Z{i},18B,v2,tunnel" for i in range(3)]
        second = workspace / "second.csv"
        second.write_text("\n".join(rows) + "\n", encoding="utf-8")
        run(capsys, "import", "model", str(second))
        code, out, err = run(capsys, "--strict", "audit", "inter",
                             "--model", "v1", "--model", "v2")
        # v1 types everything "thing", v2 uses "tunnel" for 18B: disjoint.
        assert code == 1
        assert "inconsistent-type" in out


class TestDiffAndCost:
    def test_diff_between_versions(self, workspace, capsys):
        seed_repo(capsys, workspace)
        rows = ["object_id,sb11_code,version", "ZX,31B,v2"]
        second = workspace / "second.csv"
        second.write_text("\n".join(rows) + "\n", encoding="utf-8")
        run(capsys, "import", "model", str(second))
        code, out, err = run(capsys, "--format", "json", "diff",
                             "--from", "v1", "--to", "v2")
        assert code == 0
        doc = json.loads(out)
        assert doc["new_in_v2"] == ["31B"]
        assert "18B" in doc["absent_in_v2"]

    def test_cost_needs_no_repository(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TTL_REPO", raising=False)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SPLIT_SCENARIO, encoding="utf-8")
        code, out, err = run(capsys, "cost", "--scenario", str(scenario),
                             "--strategy", "taxonomic")
        assert code == 0
        assert "deletes=1" in out and "adds=2" in out and "touched=3" in out
        code, out, err = run(capsys, "cost", "--scenario", str(scenario),
                             "--strategy", "direct")
        assert "deletes=4" in out and "adds=8" in out and "touched=12" in out


class TestOutputContract:
    def test_json_and_text_carry_the_same_trace_targets(self, workspace, capsys):
        seed_repo(capsys, workspace)
        run(capsys, "assign", "R3", "32QG")
        _, text_out, _ = run(capsys, "trace", "R3", "--to", "design-object")
        _, json_out, _ = run(capsys, "--format", "json", "trace", "R3",
                             "--to", "design-object")
        text_ids = [line.split()[0] for line in text_out.splitlines() if line]
        doc = json.loads(json_out)
        assert [h["target"] for h in doc["hits"]] == text_ids

    def test_diagnostics_stay_off_stdout(self, workspace, capsys):
        run(capsys, "init")
        run(capsys, "import", "taxonomy", str(workspace / "taxonomy.csv"))
        model = workspace / "model.csv"
        model.write_text("object_id,sb11_code,version\nB1,31BB,v1\n", encoding="utf-8")
        code, out, err = run(capsys, "--format", "json", "import", "model", str(model))
        assert code == 0
        json.loads(out)
        assert "31BB" in err

    def test_read_only_commands_do_not_rewrite_the_repository(self, workspace, capsys):
        seed_repo(capsys, workspace)
        run(capsys, "assign", "R3", "32QG")
        path = workspace / "repo.json"
        before = path.read_bytes()
        run(capsys, "trace", "R3")
        run(capsys, "coverage", "--from", "requirement")
        run(capsys, "validate")
        run(capsys, "suggest", "R6")
        assert path.read_bytes() == before

    def test_pinned_clock_makes_runs_reproducible(self, tmp_path, monkeypatch, capsys):
        for name, stamp in (("one", NOW_A), ("two", NOW_A)):
            monkeypatch.setenv("TTL_NOW", stamp)
            monkeypatch.setenv("TTL_REPO", str(tmp_path / f"{name}.json"))
            (tmp_path / "taxonomy.csv").write_text(
                CANONICAL_TAXONOMY_CSV, encoding="utf-8")
            run(capsys, "init")
            run(capsys, "import", "taxonomy", str(tmp_path / "taxonomy.csv"))
            lines = [{"id": "R1", "kind": "requirement", "title": "r"}]
            artifacts = tmp_path / "artifacts.jsonl"
            artifacts.write_text(
                "".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
            run(capsys, "import", "artifacts", str(artifacts))
            run(capsys, "assign", "R1", "18B")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_different_clock_changes_timestamps_only(self, tmp_path, monkeypatch, capsys):
        for name, stamp in (("one", NOW_A), ("two", NOW_B)):
            monkeypatch.setenv("TTL_NOW", stamp)
            monkeypatch.setenv("TTL_REPO", str(tmp_path / f"{name}.json"))
            (tmp_path / "taxonomy.csv").write_text(
                CANONICAL_TAXONOMY_CSV, encoding="utf-8")
            run(capsys, "init")
            run(capsys, "import", "taxonomy", str(tmp_path / "taxonomy.csv"))
        one = json.loads((tmp_path / "one.json").read_text())
        two = json.loads((tmp_path / "two.json").read_text())
        assert one == two

    def test_validate_passes_a_clean_repository(self, workspace, capsys):
        seed_repo(capsys, workspace)
        code, out, err = run(capsys, "--strict", "validate")
        assert code == 0
        assert out.strip() == "ok"

    def test_validate_rejects_a_stored_cycle_at_load(self, workspace, capsys):
        run(capsys, "init")
        path = workspace / "repo.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["taxonomy"] = {"nodes": [
            {"code": "A", "title": "Alpha", "parent": "B"},
            {"code": "B", "title": "Beta", "parent": "A"},
        ]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        before = path.read_bytes()
        code, out, err = run(capsys, "--strict", "validate")
        assert code == 2
        assert "error:" in err
        assert "cycle through node 'A'" in err
        assert out == ""
        assert path.read_bytes() == before

    def test_malformed_taxonomy_is_rejected_at_import(self, workspace, capsys):
        run(capsys, "init")
        path = workspace / "repo.json"
        before = path.read_bytes()
        bad = workspace / "bad.csv"
        bad.write_text(
            "code,parent,title,description,synonyms\n"
            "A,,Alpha,,\n"
            "B,A,,,\n",
            encoding="utf-8")
        code, out, err = run(capsys, "import", "taxonomy", str(bad))
        assert code == 2
        assert "error:" in err
        assert path.read_bytes() == before

    def test_missing_repo_option(self, monkeypatch, capsys):
        monkeypatch.delenv("TTL_REPO", raising=False)
        code, out, err = run(capsys, "validate")
        assert code == 2
        assert "error:" in err
