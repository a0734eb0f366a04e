"""Edits through ``store.editing``: the writer lock, the sidecar, and saves
that re-encode only the records an edit changed yet write canonical bytes."""

import dataclasses
import fcntl
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import CANONICAL_TAXONOMY_CSV, FENCES_TAXONOMY_CSV, NOW
from taxtrace import cli, linkage, store, taxonomy
from taxtrace.errors import DuplicateAssignment, RepositoryLocked
from taxtrace.store import (
    Artifact,
    add_artifact,
    load_repository,
    new_repository,
    save_repository,
    serialize_repository,
)


def canonical(path):
    """The bytes a full encode of the file's repository gives."""
    return serialize_repository(load_repository(path)).encode("utf-8")


def sidecar(path):
    return f"{path}.lock"


def read(path):
    with open(path, "rb") as f:
        return f.read()


def starting_repo():
    repo = new_repository(taxonomy.parse_taxonomy(CANONICAL_TAXONOMY_CSV))
    for i in range(6):
        add_artifact(repo, Artifact(id=f"R{i}", kind="requirement", title=f"Req {i}",
                                    attrs={"k": "v", "n": str(i)}))
        add_artifact(repo, Artifact(id=f"T{i}", kind="test-case", title=f"Test {i} – ✓"))
    codes = sorted(repo.taxonomy.nodes)
    for i in range(6):
        linkage.assign(repo, f"R{i}", codes[i], now=NOW)
        linkage.assign(repo, f"T{i}", codes[i + 1], now=NOW)
    return repo


@pytest.fixture
def repo_path(tmp_path):
    path = tmp_path / "repo.json"
    save_repository(starting_repo(), path)
    return str(path)


class Commands:
    """Random mutating commands through ``cli.main``, each valid or rejected."""

    def __init__(self, rng, tmp_path, path):
        self.rng, self.tmp_path, self.path = rng, tmp_path, path
        self.serial = 0

    def _file(self, name, text):
        path = self.tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def argv(self):
        rng, repo = self.rng, load_repository(self.path)
        live = sorted(a.id for a in repo.artifacts.values() if not a.archived)
        codes = sorted(repo.taxonomy.nodes)
        self.serial += 1
        roll = rng.random()
        if roll < 0.35:
            return ["assign", rng.choice(live), rng.choice(codes).lower() + "--",
                    "--provenance", rng.choice(sorted(linkage.PROVENANCES))]
        if roll < 0.55:
            active = [(a.artifact_id, a.code) for a in repo.assignments
                      if a.status == linkage.CONFIRMED]
            artifact_id, code = rng.choice(active) if active else (live[0], codes[0])
            return ["unassign", artifact_id, code]
        if roll < 0.7:
            argv = ["mark-unclassifiable", rng.choice(live),
                    rng.choice(linkage.REASON_CATEGORIES)]
            return argv + (["--note", f"why {self.serial} – ✓"] if rng.random() < 0.5 else [])
        if roll < 0.8:
            original = rng.choice(live)
            parts = [f"{original}.{self.serial}{s}" for s in "ab"]
            return ["split", original] + [
                arg for part in parts
                for arg in ("--part", f"{part}:{','.join(rng.sample(codes, 2))}")]
        if roll < 0.87:
            lines = [json.dumps({"id": f"N{self.serial}.{i}", "kind": "source-unit",
                                 "title": f"New {i}", "attrs": {"x": i}}) for i in range(2)]
            if rng.random() < 0.2:
                lines.append(lines[0])  # a duplicate id: the import is rejected
            return ["import", "artifacts", self._file("a.jsonl", "\n".join(lines) + "\n")]
        if roll < 0.94:
            rows = ["object_id,sb11_code,version,type"] + [
                f"X{self.serial}.{i},{rng.choice(codes + ['99ZZ', ''])},v{self.serial},t"
                for i in range(3)]
            return ["import", "model", self._file("m.csv", "\n".join(rows) + "\n")]
        csv = rng.choice([CANONICAL_TAXONOMY_CSV, FENCES_TAXONOMY_CSV])
        return ["import", "taxonomy", self._file("t.csv", csv)]


def run_cli(path, argv, capsys):
    code = cli.main(["--repo", path, *argv])
    capsys.readouterr()
    return code


class TestCanonicalBytes:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_commands_write_what_a_full_encode_writes(self, seed, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setenv("TTL_NOW", NOW)
        rng = random.Random(seed)
        path = str(tmp_path / "repo.json")
        control = str(tmp_path / "control.json")
        for p in (path, control):
            save_repository(starting_repo(), p)
        commands = Commands(rng, tmp_path, path)
        for _ in range(30):
            if rng.random() < 0.15 and os.path.exists(sidecar(path)):
                os.unlink(sidecar(path))
            argv = commands.argv()
            before = read(path)
            stamp = read(sidecar(path)) if os.path.exists(sidecar(path)) else None
            code = run_cli(path, argv, capsys)
            # The control never keeps a sidecar, so it always encodes fully.
            assert run_cli(control, argv, capsys) == code, argv
            if os.path.exists(sidecar(control)):
                os.unlink(sidecar(control))
            assert read(path) == canonical(path) == read(control), argv
            if code != 0:
                assert read(path) == before, argv
                if stamp is not None:
                    assert read(sidecar(path)) == stamp, argv

    def test_library_edits_of_every_record_kind(self, repo_path):
        rng = random.Random(5)
        for step in range(40):
            with store.editing(repo_path) as repo:
                artifacts = sorted(repo.artifacts)
                roll = step % 8
                if roll == 0:
                    repo.artifacts[rng.choice(artifacts)].attrs["k"] = f"v{step}"
                elif roll == 1:
                    repo.artifacts[rng.choice(artifacts)].title = f"Retitled {step}"
                elif roll == 2:
                    add_artifact(repo, Artifact(id=f"A{step}", kind="requirement", title="x"))
                elif roll == 3:
                    repo.assignments[rng.randrange(len(repo.assignments))].note = f"n{step}"
                elif roll == 4:
                    repo.edit_log[rng.randrange(len(repo.edit_log))].cause = f"c{step}"
                elif roll == 5:
                    code = rng.choice(sorted(repo.taxonomy.nodes))
                    repo.taxonomy.nodes[code] = dataclasses.replace(
                        repo.taxonomy.nodes[code], title=f"Class {step}")
                elif roll == 6:
                    repo.taxonomy = taxonomy.parse_taxonomy(FENCES_TAXONOMY_CSV)
                else:
                    pass  # no change at all
            assert read(repo_path) == canonical(repo_path), step

    def test_a_changed_record_is_encoded_and_the_rest_reused(self, repo_path, monkeypatch):
        with store.editing(repo_path):
            pass  # the first save encodes everything and writes the sidecar
        encoded = []
        real = store.encode_record
        monkeypatch.setattr(store, "encode_record", lambda r: encoded.append(r) or real(r))
        monkeypatch.setattr(store, "serialize_repository", None)  # a full encode would fail
        with store.editing(repo_path) as repo:
            linkage.assign(repo, "R0", "63FH", now=NOW)
        assert [sorted(r) for r in encoded] == [
            ["artifact_id", "code", "created_at", "note", "provenance", "status"],
            ["cause", "endpoints", "link_kind", "op"],
        ]
        monkeypatch.undo()
        assert read(repo_path) == canonical(repo_path)


def spaced(text):
    """The same document with extra spaces, all on one line."""
    return json.dumps(json.loads(text), indent=None, separators=(" , ", " : ")) + "\n"


def schema_1(text):
    return json.dumps(dict(json.loads(text), schema_version=1), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def joined_records(text):
    """Canonical lines, but the first two records share one line."""
    return text.replace(",\n", ", ", 1)


def shifted_lines(text):
    """As many lines as the canonical file, but not where its layout puts them."""
    return text.replace('"artifacts": [\n', '"artifacts": [', 1).replace("\n}\n", "\n\n}\n")


def inner_spacing(text):
    """Canonical layout, but one record line spaced differently."""
    return text.replace('"title": "Req 1"', '"title":"Req 1"', 1)


def ascii_escapes(text):
    """Canonical layout, but non-ASCII text written as JSON ``\\uXXXX`` escapes."""
    return text.encode("ascii", "backslashreplace").decode("ascii")


STALE, MISSING, GARBAGE, VALID = "stale", "missing", "garbage", "valid checksum"


class TestNonCanonicalInput:
    def edit_rewritten(self, path, rewrite, lock, capsys):
        """Rewrite a file the editing path wrote, set its sidecar, then edit it."""
        with store.editing(path):
            pass
        stale = read(sidecar(path))
        odd = rewrite(read(path).decode("utf-8")).encode("utf-8")
        assert odd != read(path)
        with open(path, "wb") as f:
            f.write(odd)
        if lock == MISSING:
            os.unlink(sidecar(path))
        else:
            content = {GARBAGE: b"\x00garbage\n", STALE: stale, VALID: store._stamp(odd)}[lock]
            with open(sidecar(path), "wb") as f:
                f.write(content)
        assert run_cli(path, ["assign", "R1", "63FH"], capsys) == 0
        assert read(path) == canonical(path)
        assert read(sidecar(path)) == store._stamp(read(path))

    @pytest.mark.parametrize("rewrite", [spaced, schema_1, joined_records, shifted_lines])
    @pytest.mark.parametrize("lock", [MISSING, GARBAGE, STALE, VALID])
    def test_other_layouts_are_encoded_in_full(self, repo_path, capsys, monkeypatch,
                                               rewrite, lock):
        # A checksum that is right for the bytes does not make the layout right.
        monkeypatch.setenv("TTL_NOW", NOW)
        self.edit_rewritten(repo_path, rewrite, lock, capsys)

    @pytest.mark.parametrize("rewrite", [inner_spacing, ascii_escapes])
    @pytest.mark.parametrize("lock", [MISSING, GARBAGE, STALE])
    def test_hand_edited_lines_are_not_reused(self, repo_path, capsys, monkeypatch,
                                              rewrite, lock):
        monkeypatch.setenv("TTL_NOW", NOW)
        self.edit_rewritten(repo_path, rewrite, lock, capsys)

    def test_crlf_file_is_rewritten_canonically(self, repo_path, capsys):
        text = read(repo_path).replace(b"\n", b"\r\n")
        with open(repo_path, "wb") as f:
            f.write(text)
        assert run_cli(repo_path, ["assign", "R1", "18B"], capsys) == 2  # already assigned
        assert read(repo_path) == text
        assert run_cli(repo_path, ["unassign", "R1", "18B"], capsys) == 0
        assert read(repo_path) == canonical(repo_path)


HOLD_LOCK = """
import fcntl, os, sys
fd = os.open(sys.argv[1], os.O_RDWR | os.O_CREAT, 0o666)
fcntl.flock(fd, fcntl.LOCK_EX)
print("locked", flush=True)
sys.stdin.read()
"""

# A writer that dies at one step of its save, as if killed there.
DIE_AT = """
import os, sys
from taxtrace import cli
setattr(os, sys.argv[1], lambda *args: os._exit(9))
cli.main(sys.argv[2:])
"""

RUN_CLI = """
import sys
from taxtrace import cli
sys.exit(cli.main(sys.argv[1:]))
"""

CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
                 TTL_NOW=NOW)


def active(path):
    return {(a.artifact_id, a.code) for a in load_repository(path).assignments
            if a.status == linkage.CONFIRMED}


class TestWriterLock:
    def test_a_second_writer_fails_fast_and_changes_nothing(self, repo_path, capsys):
        assert run_cli(repo_path, ["assign", "R1", "63FH"], capsys) == 0
        before, stamp = read(repo_path), read(sidecar(repo_path))
        holder = subprocess.Popen([sys.executable, "-c", HOLD_LOCK, sidecar(repo_path)],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "locked\n"
            code = cli.main(["--repo", repo_path, "assign", "R2", "63FH"])
            err = capsys.readouterr().err
            assert code == 2
            assert err == f"error: repository {repo_path} is locked by another writer\n"
            assert read(repo_path) == before
            assert read(sidecar(repo_path)) == stamp
        finally:
            holder.stdin.close()
            holder.wait(timeout=30)
        assert holder.returncode == 0
        assert run_cli(repo_path, ["assign", "R2", "63FH"], capsys) == 0

    def test_concurrent_writers_lose_no_reported_update(self, repo_path):
        for code in ("63N", "63FH"):
            writers = [
                subprocess.Popen([sys.executable, "-c", RUN_CLI, "--repo", repo_path,
                                  "assign", f"R{i}", code],
                                 env=CHILD_ENV, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True)
                for i in range(4)]
            outcomes = [(w.wait(timeout=60), w.stderr.read()) for w in writers]
            for w in writers:
                w.stderr.close()
            added = active(repo_path) & {(f"R{i}", code) for i in range(4)}
            assert added == {(f"R{i}", code) for i, (status, _) in enumerate(outcomes)
                             if status == 0}
            for status, err in outcomes:
                assert status == 0 or (status == 2 and "locked by another writer" in err)
        assert read(repo_path) == canonical(repo_path)

    @pytest.mark.parametrize("step", ["replace", "pwrite"])
    def test_writer_killed_mid_save_leaves_a_loadable_file(self, repo_path, capsys, step):
        assert run_cli(repo_path, ["assign", "R1", "63FH"], capsys) == 0
        before = read(repo_path)
        died = subprocess.run([sys.executable, "-c", DIE_AT, step, "--repo", repo_path,
                               "assign", "R2", "63FH"], env=CHILD_ENV, timeout=60)
        assert died.returncode == 9
        # Before the rename the old file stays; after it, the new one is whole.
        assert (("R2", "63FH") in active(repo_path)) == (step == "pwrite")
        if step == "replace":
            assert read(repo_path) == before
        # The lock died with the writer, and a stale sidecar costs one full encode.
        assert run_cli(repo_path, ["assign", "R3", "63FH"], capsys) == 0
        assert read(repo_path) == canonical(repo_path)

    def test_lock_is_released_however_the_edit_ends(self, repo_path):
        with store.editing(repo_path) as repo:
            linkage.assign(repo, "R1", "63FH", now=NOW)
        before, stamp = read(repo_path), read(sidecar(repo_path))
        with pytest.raises(DuplicateAssignment):
            with store.editing(repo_path) as repo:
                linkage.assign(repo, "R1", "63FH", now=NOW)
        assert read(repo_path) == before
        assert read(sidecar(repo_path)) == stamp
        fd = os.open(sidecar(repo_path), os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # raises if the lock leaked
        finally:
            os.close(fd)

    def test_nested_edit_of_one_file_is_refused(self, repo_path):
        with store.editing(repo_path):
            with pytest.raises(RepositoryLocked):
                with store.editing(repo_path):
                    pass

    def test_missing_repository_gets_no_sidecar(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        code = cli.main(["--repo", path, "assign", "R1", "18B"])
        assert code == 2
        assert "cannot read repository" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_read_only_commands_write_no_sidecar(self, repo_path, capsys):
        for argv in (["trace", "R1"], ["validate"], ["coverage", "--from", "requirement"]):
            assert run_cli(repo_path, argv, capsys) == 0
        assert not os.path.exists(sidecar(repo_path))

    def test_symlinked_repository_is_locked_at_its_target(self, tmp_path, capsys):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        save_repository(starting_repo(), real)
        link.symlink_to(real)
        assert run_cli(str(link), ["assign", "R1", "63FH"], capsys) == 0
        assert link.is_symlink()
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json", "real.json.lock"]
        assert read(real) == canonical(real)
