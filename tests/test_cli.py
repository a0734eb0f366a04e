"""End-to-end command-line behaviour, run in-process."""

import hashlib
import json
import os
import random
import shlex
import subprocess
import sys

import pytest

from conftest import CANONICAL_TAXONOMY_CSV, OBJECT_CODES, SAMPLED_BODIES
from taxtrace import cli, store, taxonomy
from taxtrace.errors import RepositoryIOError
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

    def test_needs_a_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TTL_REPO", raising=False)
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "init") == (2, "", "error: init needs a repository path\n")
        assert os.listdir(tmp_path) == []


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

    def test_model_import_reads_the_clock_once(self, workspace, capsys, monkeypatch):
        run(capsys, "init")
        run(capsys, "import", "taxonomy", str(workspace / "taxonomy.csv"))
        model = workspace / "model.csv"
        model.write_text("object_id,sb11_code,version\nG1,32QG,v1\nG2,18B,v1\nG3,31B,v1\n",
                         encoding="utf-8")
        reads = []
        monkeypatch.setattr(cli, "_now", lambda: reads.append(NOW_B) or NOW_B)
        assert run(capsys, "import", "model", str(model))[0] == 0
        assert reads == [NOW_B]
        repo = load_repository(str(workspace / "repo.json"))
        assert {a.created_at for a in repo.assignments} == {NOW_B}
        assert len(repo.assignments) == 3

    def test_no_warning_is_printed_when_the_save_fails(self, workspace, capsys, monkeypatch):
        seed_repo(capsys, workspace)
        run(capsys, "assign", "R3", "32QG")
        before = (workspace / "repo.json").read_bytes()
        model = workspace / "model2.csv"
        model.write_text("object_id,sb11_code,version\nX1,ZZ,v2\n", encoding="utf-8")

        def disk_full(text, path):
            raise RepositoryIOError("disk full")

        monkeypatch.setattr(store, "_write", disk_full)
        # Both commands would warn: an unknown code, a code left to no part.
        for argv in (["import", "model", str(model)],
                     ["split", "R3", "--part", "R3A:", "--part", "R3B:"]):
            for fmt in ("text", "json"):
                code, out, err = run(capsys, "--format", fmt, *argv)
                assert (code, out, err) == (2, "", "error: disk full\n"), argv
        assert (workspace / "repo.json").read_bytes() == before

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

    def test_the_repository_is_opened_before_the_input_file(self, workspace, capsys):
        code, out, err = run(capsys, "import", "taxonomy", str(workspace / "nope.csv"))
        assert code == 2
        assert err.startswith(f"error: cannot read repository {workspace / 'repo.json'}:")


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

    def test_comprehensiveness_needs_exactly_one_model(self, workspace, capsys):
        seed_repo(capsys, workspace)
        code, out, err = run(capsys, "audit", "comprehensiveness",
                             "--model", "v1", "--model", "v2")
        assert (code, out) == (2, "")
        assert err == "error: audit comprehensiveness needs exactly one --model\n"

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
        doc["taxonomy"][1:] = [["A", "Alpha", None, [], "B"], ["B", "Beta", None, [], "A"]]
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


# Each input file kind as a command reads it: the command's leading
# arguments, then the file's text.
INPUT_FILES = {
    "tabular taxonomy": (["import", "taxonomy"], CANONICAL_TAXONOMY_CSV),
    "structured taxonomy": (
        ["import", "taxonomy", "--taxonomy-format", "structured"],
        taxonomy.write_taxonomy(taxonomy.parse_taxonomy(CANONICAL_TAXONOMY_CSV), "structured"),
    ),
    "artifacts": (["import", "artifacts"],
                  '{"id": "R1", "kind": "requirement", "title": "Gate \u2013 Br\u00fccke"}\n'),
    "model": (["import", "model"], "object_id,sb11_code,version,type\nG1,32QG--,v1,gate\n"),
    "scenario": (["cost", "--strategy", "taxonomic", "--scenario"], SPLIT_SCENARIO),
}


class TestInputEncoding:
    @pytest.mark.parametrize("kind", sorted(INPUT_FILES))
    def test_a_leading_byte_order_mark_is_ignored(self, kind, tmp_path, monkeypatch, capsys):
        argv, text = INPUT_FILES[kind]
        monkeypatch.setenv("TTL_NOW", NOW_A)
        results = []
        for name, bom in (("plain", ""), ("bom", "\ufeff")):
            here = tmp_path / name
            here.mkdir()
            monkeypatch.setenv("TTL_REPO", str(here / "repo.json"))
            assert run(capsys, "init")[0] == 0
            if argv[:2] != ["import", "taxonomy"]:
                (here / "taxonomy.csv").write_text(CANONICAL_TAXONOMY_CSV, encoding="utf-8")
                assert run(capsys, "import", "taxonomy", str(here / "taxonomy.csv"))[0] == 0
            (here / "input").write_text(bom + text, encoding="utf-8")
            results.append((run(capsys, *argv, str(here / "input")),
                            (here / "repo.json").read_bytes()))
        assert results[0][0][0] == 0
        assert results[1] == results[0]

    def test_a_repository_file_with_a_byte_order_mark_is_rejected(self, workspace, capsys):
        run(capsys, "init")
        path = workspace / "repo.json"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for argv in (["validate"], ["import", "taxonomy", str(workspace / "taxonomy.csv")]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: repository file is not valid JSON: Unexpected UTF-8 BOM")


# A writer that dies at ``os.replace``, after it wrote ``<repo>.tmp``.
DIE_AT_REPLACE = """
import os, sys
from taxtrace import cli
os.replace = lambda *args: os._exit(9)
cli.main(sys.argv[1:])
"""


class TestStrayTemporaryFile:
    def test_the_next_edit_command_deletes_it(self, workspace, capsys):
        seed_repo(capsys, workspace)
        path = workspace / "repo.json"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        died = subprocess.run([sys.executable, "-c", DIE_AT_REPLACE, "assign", "R3", "32QG"],
                              env=env, timeout=60)
        assert died.returncode == 9
        stray = workspace / "repo.json.tmp"
        assert stray.exists()
        before, stamp = path.read_bytes(), (workspace / "repo.json.lock").read_bytes()
        # Even an edit that fails deletes it, and leaves the file and the sidecar.
        code, out, err = run(capsys, "assign", "NOPE", "32QG")
        assert (code, out, err) == (2, "", "error: no artifact with id 'NOPE'\n")
        assert not stray.exists()
        assert path.read_bytes() == before
        assert (workspace / "repo.json.lock").read_bytes() == stamp


# A scripted session: every command in text and in JSON, with and without
# --strict, through its exit-1 and exit-2 paths.  Each step's exit code,
# stdout and stderr, and the digest of the repository file it leaves, are
# pinned literals, so a change to how commands load, save and print must
# keep them byte for byte.
SESSION_FILES = {
    "tax.csv": (
        "code,parent,title,description,synonyms\n"
        "3,,Superstructures,,\n"
        "31,3,Bridges,Bridge decks and piers,\n"
        "32,3,Fences,Wild and game fences,\n"
        "32Q,32,Gates,Opening devices in fences,gateway\n"
        "63,,Power,Emergency power supply,backup power\n"
    ),
    "art.jsonl": "".join(json.dumps(doc) + "\n" for doc in [
        {"id": "R1", "kind": "requirement", "title": "Bridge deck",
         "body": "The bridge deck shall carry two lanes.", "attrs": {"prio": 1}},
        {"id": "R2", "kind": "requirement", "title": "Gate opening",
         "body": "Every gateway in the fence shall open outwards."},
        {"id": "R3", "kind": "requirement", "title": "Vague wish"},
        {"id": "R4", "kind": "requirement", "title": "Powered bridge gate"},
        {"id": "R5", "kind": "requirement", "title": "Uncoded"},
        {"id": "T1", "kind": "test-case", "title": "Gate test", "document": "TP-1"},
    ]),
    "v1.csv": (
        "object_id,sb11_code,version,type,shape\n"
        "D1,31,v1,bridge,s1\nD2,32Q,v1,gate,s2\nD3,99Z,v1,gate,s3\n"
    ),
    "v2.csv": (
        "object_id,sb11_code,version,type,shape\n"
        "D4,31,v2,deck,s1\nD5,3,v2,gate,s2\nD6,63,v2,pump,s9\n"
    ),
    "s.json": json.dumps({
        "artifacts": [
            {"id": "REQ1", "kind": "requirement", "codes": ["31"]},
            {"id": "SRC1", "kind": "source-unit", "codes": ["31"]},
            {"id": "TEST1", "kind": "test-case", "codes": ["31"]},
        ],
        "mutation": {"type": "split", "id": "REQ1",
                     "parts": [{"id": "REQ1A", "codes": ["31"]},
                               {"id": "REQ1B", "codes": ["31"]}]},
    }),
}

# (argv, exit code, stdout, stderr), run in order in one directory.
TRANSCRIPT = [
    ("trace R1", 2,
     "",
     """\
error: cannot read repository r.json: [Errno 2] No such file or directory: 'r.json'
"""),
    ("init", 0,
     "initialized empty repository at r.json\n",
     ""),
    ("--format json init other.json", 0,
     """\
{
  "initialized": "other.json"
}
""",
     ""),
    ("init", 2,
     "",
     "error: refusing to overwrite existing file r.json\n"),
    ("import taxonomy tax.csv", 0,
     "imported taxonomy: 5 nodes\n",
     ""),
    ("--format json import artifacts art.jsonl", 0,
     """\
{
  "count": 6,
  "imported": "artifacts"
}
""",
     ""),
    ("import model v1.csv", 0,
     "imported 3 design objects, 2 auto-assigned\n",
     """\
warning: D3: code '99Z' not assigned (code '99Z' is not in the taxonomy)
"""),
    ("--format json import model v2.csv", 0,
     """\
{
  "assigned": 3,
  "count": 3,
  "imported": "model",
  "warnings": []
}
""",
     ""),
    ("import taxonomy nope.csv", 2,
     "",
     """\
error: cannot read nope.csv: [Errno 2] No such file or directory: 'nope.csv'
"""),
    ("validate", 0,
     "ok\n",
     ""),
    ("--strict --format json validate", 0,
     """\
{
  "findings": [],
  "ok": true
}
""",
     ""),
    ("suggest R1 -n 2", 0,
     "31  0.8047  bridge(description)\n",
     ""),
    ("--format json suggest R2 -n 2", 0,
     """\
{
  "artifact": "R2",
  "suggestions": [
    {
      "code": "32Q",
      "matched_terms": [
        {
          "source": "synonym",
          "term": "gateway"
        },
        {
          "source": "description",
          "term": "in"
        },
        {
          "source": "description",
          "term": "opening"
        }
      ],
      "score": 3.2188758248682006
    }
  ]
}
""",
     ""),
    ("assign R1 31", 0,
     "assigned R1 -> 31 (confirmed)\n",
     ""),
    ("--format json assign R2 32q", 0,
     """\
{
  "assigned": {
    "artifact_id": "R2",
    "code": "32Q",
    "created_at": "2026-01-15T09:00:00+00:00",
    "note": null,
    "provenance": "manual",
    "status": "confirmed"
  }
}
""",
     ""),
    ("assign T1 32Q --provenance suggested", 0,
     "assigned T1 -> 32Q (proposed)\n",
     ""),
    ("assign R4 31", 0,
     "assigned R4 -> 31 (confirmed)\n",
     ""),
    ("assign R4 63", 0,
     "assigned R4 -> 63 (confirmed)\n",
     ""),
    ("assign R3 63", 0,
     "assigned R3 -> 63 (confirmed)\n",
     ""),
    ("unassign R3 63", 0,
     "unassigned R3 -> 63\n",
     ""),
    ("assign R5 63", 0,
     "assigned R5 -> 63 (confirmed)\n",
     ""),
    ("--format json unassign R5 63", 0,
     """\
{
  "unassigned": {
    "artifact_id": "R5",
    "code": "63"
  }
}
""",
     ""),
    ("assign R5 3", 0,
     "assigned R5 -> 3 (confirmed)\n",
     ""),
    ("mark-unclassifiable R3 vagueness --note 'which one?'", 0,
     "marked R3 unclassifiable (vagueness: which one?)\n",
     ""),
    ("--format json mark-unclassifiable R5 compound", 0,
     """\
{
  "marked": {
    "artifact_id": "R5",
    "code": null,
    "created_at": "2026-01-15T09:00:00+00:00",
    "note": "compound",
    "provenance": "manual",
    "status": "unclassifiable"
  }
}
""",
     ""),
    ("split R4 --part R4A:31 --part R4B:31", 0,
     "split R4 into R4A, R4B: deletes=2 adds=2\n",
     "warning: codes ['63'] of 'R4' are not allocated to any part\n"),
    ("--format json split R2 --part R2A:32Q --part R2B:32Q", 0,
     """\
{
  "split": {
    "adds": 2,
    "deletes": 1,
    "original_id": "R2",
    "part_ids": [
      "R2A",
      "R2B"
    ],
    "warnings": []
  }
}
""",
     ""),
    ("trace R1", 0,
     """\
D1  via 31->31 (same, distance=0)
D4  via 31->31 (same, distance=0)
R4A  via 31->31 (same, distance=0)
R4B  via 31->31 (same, distance=0)
""",
     ""),
    ("--format json trace R2A --to test-case --filter equal-or-descendant --include-proposed", 0,
     """\
{
  "filter": "equal-or-descendant",
  "hits": [
    {
      "target": "T1",
      "via": [
        {
          "relation": {
            "distance": 0,
            "kind": "same"
          },
          "source_code": "32Q",
          "target_code": "32Q"
        }
      ]
    }
  ],
  "source": "R2A"
}
""",
     ""),
    ("trace NOPE", 2,
     "",
     "error: no artifact with id 'NOPE'\n"),
    ("coverage --from requirement", 0,
     """\
covered 6/7 (rate 6/7)
uncovered: R3
""",
     ""),
    ("--format json coverage --from requirement --to design-object --filter descendant", 0,
     """\
{
  "covered": [
    "R5"
  ],
  "from_kind": "requirement",
  "policy": "count-unclassifiable",
  "rate": "1/7",
  "to_kind": "design-object",
  "uncovered": [
    "R1",
    "R2A",
    "R2B",
    "R3",
    "R4A",
    "R4B"
  ]
}
""",
     ""),
    ("--strict coverage --from requirement", 1,
     """\
covered 6/7 (rate 6/7)
uncovered: R3
""",
     ""),
    ("--strict coverage --from requirement --to test-case", 1,
     """\
covered 0/7 (rate 0)
uncovered: R1
uncovered: R2A
uncovered: R2B
uncovered: R3
uncovered: R4A
uncovered: R4B
uncovered: R5
""",
     ""),
    ("--strict --format json coverage --from requirement --to test-case"
     " --include-proposed --policy exclude-unclassifiable", 1,
     """\
{
  "covered": [
    "R2A",
    "R2B"
  ],
  "from_kind": "requirement",
  "policy": "exclude-unclassifiable",
  "rate": "1/3",
  "to_kind": "test-case",
  "uncovered": [
    "R1",
    "R4A",
    "R4B",
    "R5"
  ]
}
""",
     ""),
    ("impact R1", 0,
     """\
design-object:
  D1  via 31->31 (same, distance=0)
  D4  via 31->31 (same, distance=0)
requirement:
  R4A  via 31->31 (same, distance=0)
  R4B  via 31->31 (same, distance=0)
""",
     ""),
    ("--format json impact R2A --filter neighborhood:1", 0,
     """\
{
  "changed": "R2A",
  "filter": "neighborhood:1",
  "groups": {
    "design-object": [
      {
        "target": "D2",
        "via": [
          {
            "relation": {
              "distance": 0,
              "kind": "same"
            },
            "source_code": "32Q",
            "target_code": "32Q"
          }
        ]
      }
    ],
    "requirement": [
      {
        "target": "R2B",
        "via": [
          {
            "relation": {
              "distance": 0,
              "kind": "same"
            },
            "source_code": "32Q",
            "target_code": "32Q"
          }
        ]
      }
    ]
  }
}
""",
     ""),
    ("audit comprehensiveness --model v1", 0,
     """\
total 3 classified 3 ratio 1
error: unknown-code D3: code '99Z' does not name a taxonomy class
""",
     ""),
    ("--strict audit comprehensiveness --model v1", 1,
     """\
total 3 classified 3 ratio 1
error: unknown-code D3: code '99Z' does not name a taxonomy class
""",
     ""),
    ("--strict --format json audit comprehensiveness --model v2", 0,
     """\
{
  "classified": 3,
  "findings": [],
  "model": "v2",
  "ratio": "1",
  "total": 3
}
""",
     ""),
    ("audit inter --model v1 --model v2", 0,
     """\
error: inconsistent-type D1,D4: code '31' types ['bridge'] in model a but ['deck'] in model b
""",
     ""),
    ("--strict --format json audit inter --model v1 --model v2 --sample 31", 1,
     """\
{
  "findings": [
    {
      "category": "inconsistent-type",
      "detail": "code '31' types ['bridge'] in model a but ['deck'] in model b",
      "object_ids": [
        "D1",
        "D4"
      ],
      "severity": "error"
    }
  ],
  "models": [
    "v1",
    "v2"
  ],
  "per_code": {
    "31": {
      "a": [
        "bridge"
      ],
      "b": [
        "deck"
      ]
    }
  }
}
""",
     ""),
    ("audit inter --model v1", 2,
     "",
     "error: audit inter needs exactly two --model labels\n"),
    ("diff --from v1 --to v2", 0,
     """\
new in v2: 3, 63
absent in v2: 32Q, 99Z
""",
     ""),
    ("--format json diff --from v1 --to v2 --fingerprint shape", 0,
     """\
{
  "absent_in_v2": [
    "32Q",
    "99Z"
  ],
  "from_model": "v1",
  "match": {
    "ambiguous_fingerprints": [],
    "code_changes": [
      {
        "category": "code-changed",
        "detail": "classification changed from '32Q' to '3'",
        "object_ids": [
          "D2",
          "D5"
        ],
        "severity": "warning"
      }
    ],
    "match_ratio": "2/3",
    "matched_pairs": [
      [
        "D1",
        "D4"
      ],
      [
        "D2",
        "D5"
      ]
    ],
    "unmatched_v1": [
      "D3"
    ],
    "unmatched_v2": [
      "D6"
    ]
  },
  "new_in_v2": [
    "3",
    "63"
  ],
  "per_code_counts": {
    "3": {
      "v1": 0,
      "v2": 1
    },
    "31": {
      "v1": 1,
      "v2": 1
    },
    "32Q": {
      "v1": 1,
      "v2": 0
    },
    "63": {
      "v1": 0,
      "v2": 1
    },
    "99Z": {
      "v1": 1,
      "v2": 0
    }
  },
  "to_model": "v2"
}
""",
     ""),
    ("diff --from v1 --to v2 --fingerprint shape", 0,
     """\
new in v2: 3, 63
absent in v2: 32Q, 99Z
matched 2/3 (ratio 2/3)
warning: code-changed D2,D5: classification changed from '32Q' to '3'
""",
     ""),
    ("cost --scenario s.json --strategy taxonomic", 0,
     "strategy=taxonomic deletes=1 adds=2 touched=3\n",
     ""),
    ("--format json cost --scenario s.json --strategy direct", 0,
     """\
{
  "adds": 4,
  "deletes": 2,
  "strategy": "direct",
  "touched": 6
}
""",
     ""),
    ("trace R1 --to test-case", 0,
     "no hits\n",
     ""),
    ("--format json trace R1 --to test-case", 0,
     """\
{
  "filter": "equal",
  "hits": [],
  "source": "R1"
}
""",
     ""),
    ("impact D6", 0,
     "no impact\n",
     ""),
    ("--format json impact D6", 0,
     """\
{
  "changed": "D6",
  "filter": "equal",
  "groups": {}
}
""",
     ""),
    ("suggest R3", 0,
     "no suggestions\n",
     ""),
    ("--format json suggest R3", 0,
     """\
{
  "artifact": "R3",
  "suggestions": []
}
""",
     ""),
    ("--format json coverage --from requirement --policy exclude-unclassifiable", 0,
     """\
{
  "covered": [
    "R1",
    "R2A",
    "R2B",
    "R4A",
    "R4B",
    "R5"
  ],
  "from_kind": "requirement",
  "policy": "exclude-unclassifiable",
  "rate": "1",
  "to_kind": null,
  "uncovered": []
}
""",
     ""),
    ("--format json diff --from v1 --to v2", 0,
     """\
{
  "absent_in_v2": [
    "32Q",
    "99Z"
  ],
  "from_model": "v1",
  "new_in_v2": [
    "3",
    "63"
  ],
  "per_code_counts": {
    "3": {
      "v1": 0,
      "v2": 1
    },
    "31": {
      "v1": 1,
      "v2": 1
    },
    "32Q": {
      "v1": 1,
      "v2": 0
    },
    "63": {
      "v1": 0,
      "v2": 1
    },
    "99Z": {
      "v1": 1,
      "v2": 0
    }
  },
  "to_model": "v2"
}
""",
     ""),
    ("--format json split R4A --part R4C: --part R4D:", 0,
     """\
{
  "split": {
    "adds": 0,
    "deletes": 1,
    "original_id": "R4A",
    "part_ids": [
      "R4C",
      "R4D"
    ],
    "warnings": [
      "codes ['31'] of 'R4A' are not allocated to any part"
    ]
  }
}
""",
     "warning: codes ['31'] of 'R4A' are not allocated to any part\n"),
]
TRANSCRIPT_REPO_SHA256 = "aa23ad8deeff1105eec6c6690e45d00a4ffae35cfbf1723461aa5b4834df0cda"


def parse_outcome(parse, argv, capsys):
    """The namespace, or the exit code, of ``parse(argv)``, with what it printed."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestLeanParser:
    """``cli.parse_args`` builds only the subparsers its arguments name, and
    gives what the full parser gives: namespace, output and exit code."""

    def test_a_command_builds_only_its_own_subparser(self, monkeypatch):
        built = []
        real = cli._parser

        def spy(commands, parser_class):
            built.append(list(commands))
            return real(commands, parser_class)

        monkeypatch.setattr(cli, "_parser", spy)
        args = cli.parse_args(["--repo", "r.json", "suggest", "R1", "-n", "2"])
        assert (args.func, args.artifact_id, args.n) == (cli.cmd_suggest, "R1", 2)
        assert built == [["suggest"]]

    def test_transcript_argvs_and_their_mutations(self, monkeypatch, capsys):
        monkeypatch.setenv("TTL_REPO", "r.json")
        rng = random.Random(31)
        cases = [[], ["bogus"], ["--repo", "trace", "suggest", "R1"], ["--re=x.json", "validate"],
                 ["--fo", "json", "--st", "validate"], ["--format", "xml", "validate"],
                 ["suggest", "R1", "-n", "two"], ["trace", "trace"]]
        for line, *_ in TRANSCRIPT:
            argv = shlex.split(line)
            cases.append(argv)
            i = rng.randrange(len(argv))
            cases.append(argv[:i] + argv[i + 1:])
            i = rng.randint(0, len(argv))
            cases.append(argv[:i] + ["--unknown"] + argv[i:])
            options = [i for i, token in enumerate(argv) if token.startswith("--")]
            if options:
                i = rng.choice(options)
                cases.append(argv[:i] + [argv[i][:rng.randint(3, len(argv[i]) - 1)]]
                             + argv[i + 1:])
            cases.extend(argv[:i] + ["-h"] + argv[i:] for i in range(len(argv) + 1))

        def full(argv):
            return cli.build_parser().parse_args(argv)

        for argv in cases:
            lean = parse_outcome(cli.parse_args, argv, capsys)
            assert lean == parse_outcome(full, argv, capsys), argv


class TestTranscript:
    def test_every_command_keeps_its_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TTL_REPO", "r.json")
        monkeypatch.setenv("TTL_NOW", NOW_A)
        for name, text in SESSION_FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        for argv, code, out, err in TRANSCRIPT:
            assert run(capsys, *shlex.split(argv)) == (code, out, err), argv
        saved = hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest()
        assert saved == TRANSCRIPT_REPO_SHA256
