"""Edits through ``store.editing``: the writer lock, the sidecar, and saves
that keep the edit log's lines, encode every other record and write
canonical bytes; and read commands that read only their sections while
the sidecar's stamp vouches for the file."""

import contextlib
import copy
import dataclasses
import fcntl
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import zlib
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import (
    CANONICAL_TAXONOMY_CSV,
    FENCES_TAXONOMY_CSV,
    NOW,
    clone_object,
    make_object,
    random_repo,
    schema_1_text,
    schema_2_text,
)
from taxtrace import cli, linkage, store, taxonomy
from taxtrace.errors import (
    DuplicateAssignment,
    MalformedRecord,
    ReferentialIntegrityError,
    RepositoryLocked,
)
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


@pytest.fixture
def marked_path(repo_path):
    """``repo_path`` with an unclassifiable marker on T5, saved with its sidecar."""
    with store.editing(repo_path) as repo:
        linkage.mark_unclassifiable(repo, "T5", "vagueness", now=NOW)
    return repo_path


def split_r0(repo):
    parts = [Artifact(id=f"R0{s}", kind="requirement", title=f"Part {s}") for s in "ab"]
    linkage.split_artifact(repo, "R0", parts, {"R0a": {"1"}, "R0b": {"2"}}, now=NOW)


def retitle_63fh(repo):
    nodes = repo.taxonomy.nodes
    nodes["63FH"] = dataclasses.replace(nodes["63FH"], title="Escape lighting")


# Edits of ``marked_path``'s repository, with a name for each edit-log
# entry the edit appends, in order (see ``label``).
EDITS = {
    "assign": (lambda repo: linkage.assign(repo, "R0", "63FH", now=NOW), ["add R0 63FH"]),
    "unassign": (lambda repo: linkage.unassign(repo, "R0", "1"), ["delete R0 1"]),
    "first mark": (lambda repo: linkage.mark_unclassifiable(repo, "R0", "vagueness", now=NOW),
                   []),
    "re-mark": (lambda repo: linkage.mark_unclassifiable(repo, "T5", "compound", "two needs"),
                []),
    "split": (split_r0, ["delete R0 1", "add R0a 1", "add R0b 2"]),
    "retitle a class": (retitle_63fh, []),
}


def label(entry):
    """A short name for an edit-log entry."""
    return f"{entry.op} {' '.join(entry.endpoints)}"


def encoded_log_entries(monkeypatch):
    """The edit-log entries encoded from now on, in order, as ``store._edit_row`` sees them."""
    encoded = []
    real = store._edit_row
    monkeypatch.setattr(store, "_edit_row", lambda e: encoded.append(e) or real(e))
    return encoded


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


def log_lines(data):
    """The record lines of the file's edit-log section, after its header row, without
    separating commas."""
    section = data.partition(b'\n"edit_log": [')[2].partition(b'\n"schema_version"')[0]
    return [line.rstrip(b",") for line in section.split(b"\n")[2:-1]]


def live_pairs(repo):
    """The (artifact, code) pairs of confirmed and proposed assignments."""
    return {(a.artifact_id, a.code) for a in repo.assignments
            if a.status in (linkage.CONFIRMED, linkage.PROPOSED)}


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
        os.unlink(sidecar(control))
        commands = Commands(rng, tmp_path, path)
        for _ in range(30):
            if rng.random() < 0.15 and os.path.exists(sidecar(path)):
                os.unlink(sidecar(path))
            argv = commands.argv()
            before = read(path)
            stamp = read(sidecar(path)) if os.path.exists(sidecar(path)) else None
            code = run_cli(path, argv, capsys)
            # The control never keeps a sidecar, so it always loads in full.
            assert run_cli(control, argv, capsys) == code, argv
            if os.path.exists(sidecar(control)):
                os.unlink(sidecar(control))
            assert read(path) == canonical(path) == read(control), argv
            # The log keeps its lines, appends, and replays to the live links.
            prior = log_lines(before)
            assert log_lines(read(path))[:len(prior)] == prior, argv
            repo = load_repository(path)
            assert linkage.replay_edit_log(repo.edit_log) == live_pairs(repo), argv
            if code != 0:
                assert read(path) == before, argv
                if stamp is not None:
                    assert read(sidecar(path)) == stamp, argv

    def test_padded_taxonomy_codes_round_trip(self, tmp_path, capsys, monkeypatch):
        # A row "AC -" is class "AC", stored as such, so a save writes the
        # same bytes whether the sidecar vouches for the file or not.
        monkeypatch.setenv("TTL_NOW", NOW)
        tax = tmp_path / "tax.csv"
        tax.write_text("code,parent,title,description,synonyms\n"
                       "A,,Alpha,,\nAC -,A,Alpha c,,\nAD\t--,A,Alpha d,,\n", encoding="utf-8")
        path, control = str(tmp_path / "repo.json"), str(tmp_path / "control.json")
        repo = new_repository()
        add_artifact(repo, Artifact(id="R1", kind="requirement", title="Req 1"))
        for p in (path, control):
            save_repository(repo, p)
        os.unlink(sidecar(control))
        for argv in (["import", "taxonomy", str(tax)], ["assign", "R1", "AC -"],
                     ["assign", "R1", "AD"], ["unassign", "R1", "ac"],
                     ["assign", "R1", "AC"], ["unassign", "R1", "AD \t-"]):
            assert run_cli(path, argv, capsys) == 0, argv
            # The control never keeps a sidecar, so it always loads in full.
            assert run_cli(control, argv, capsys) == 0, argv
            os.unlink(sidecar(control))
            assert read(path) == canonical(path) == read(control), argv
        assert sorted(load_repository(path).taxonomy.nodes) == ["A", "AC", "AD"]

    def test_stamp_without_a_codec_revision_is_not_trusted(self, repo_path, capsys,
                                                           monkeypatch):
        # Stamps written before the codec revision vouch for files that may
        # store a taxonomy code padded, as "63FH " from a row "63FH -"; an
        # edit ignores them and loads the file in full.
        monkeypatch.setenv("TTL_NOW", NOW)
        data = read(repo_path).replace(b'["63FH", ', b'["63FH ", ')
        assert data != read(repo_path)
        with open(repo_path, "wb") as f:
            f.write(data)
        with open(sidecar(repo_path), "wb") as f:
            f.write(b"%d %d %d\n" % (store.SCHEMA_VERSION, len(data), zlib.crc32(data)))
        assert run_cli(repo_path, ["assign", "R1", "63FH"], capsys) == 0
        assert b'"63FH "' not in read(repo_path)
        assert read(repo_path) == canonical(repo_path)
        assert read(sidecar(repo_path)) == store._stamp(read(repo_path))

    def test_library_edits_of_every_record_kind(self, repo_path):
        # Records are values: each edit replaces one at its key or position.
        rng = random.Random(5)
        for step in range(40):
            log = load_repository(repo_path).edit_log
            with store.editing(repo_path) as repo:
                artifacts = sorted(repo.artifacts)
                roll = step % 8
                if roll == 0:
                    a = repo.artifacts[rng.choice(artifacts)]
                    repo.artifacts[a.id] = dataclasses.replace(
                        a, attrs={**a.attrs, "k": f"v{step}"})
                elif roll == 1:
                    a = repo.artifacts[rng.choice(artifacts)]
                    repo.artifacts[a.id] = dataclasses.replace(a, title=f"Retitled {step}")
                elif roll == 2:
                    add_artifact(repo, Artifact(id=f"A{step}", kind="requirement", title="x"))
                elif roll == 3:
                    i = rng.randrange(len(repo.assignments))
                    repo.assignments[i] = dataclasses.replace(repo.assignments[i],
                                                              note=f"n{step}")
                elif roll == 4:  # the edit log is append-only
                    repo.edit_log.append(linkage.EditRecord(
                        linkage.ADD, linkage.TAXONOMIC, (rng.choice(artifacts), "1"), f"c{step}"))
                elif roll == 5:
                    code = rng.choice(sorted(repo.taxonomy.nodes))
                    repo.taxonomy.nodes[code] = dataclasses.replace(
                        repo.taxonomy.nodes[code], title=f"Class {step}")
                elif roll == 6:
                    repo.taxonomy = taxonomy.parse_taxonomy(FENCES_TAXONOMY_CSV)
                else:
                    pass  # no change at all
            # The block's log holds only what it appended, after the file's log.
            edited = dataclasses.replace(repo, edit_log=log + repo.edit_log)
            assert read(repo_path) == serialize_repository(edited).encode("utf-8"), step
            assert read(repo_path) == canonical(repo_path), step

    def test_a_change_to_any_field_of_any_record_kind_is_saved(self, repo_path):
        # A new field of a record class needs a value here: a record
        # replaced by a copy with any one field changed must reach the file.
        new_values = {
            Artifact: (lambda repo: repo.artifacts, "Z0", {
                "id": "Z1", "kind": "test-case", "title": "Other", "body": "Body",
                "attrs": {"k": "w"}, "document": "Doc", "version": "v2", "archived": True}),
            linkage.Assignment: (lambda repo: repo.assignments, 0, {
                "artifact_id": "T5", "code": "63N", "provenance": linkage.IMPORTED,
                "status": linkage.PROPOSED, "note": "n", "created_at": "2027-01-01"}),
        }
        # The edit log is append-only inside ``store.editing``: an entry
        # differing from ``entry`` in one field is appended instead.
        entry = linkage.EditRecord(linkage.ADD, linkage.TAXONOMIC, ("R0", "1"), "assign")
        log_values = {"op": linkage.DELETE, "link_kind": linkage.DIRECT,
                      "endpoints": ("R0", "2"), "cause": "changed"}
        with store.editing(repo_path) as repo:
            add_artifact(repo, Artifact(id="Z0", kind="requirement", title="Unlinked"))
        start = read(repo_path), read(sidecar(repo_path))

        def restore():
            for path, data in zip((repo_path, sidecar(repo_path)), start):
                with open(path, "wb") as out:
                    out.write(data)

        for cls, (records_of, key, values) in new_values.items():
            for f in dataclasses.fields(cls):
                restore()
                with store.editing(repo_path) as repo:
                    records = records_of(repo)
                    changed = dataclasses.replace(records[key], **{f.name: values[f.name]})
                    if cls is Artifact:
                        # An artifact is stored under its id; a renamed one moves.
                        del records[key]
                        records[changed.id] = changed
                    else:
                        records[key] = changed
                assert read(repo_path) != start[0], f.name
                assert read(repo_path) == canonical(repo_path), f.name
        for f in dataclasses.fields(linkage.EditRecord):
            restore()
            changed = dataclasses.replace(entry, **{f.name: log_values[f.name]})
            with store.editing(repo_path) as repo:
                repo.edit_log.append(changed)
            assert load_repository(repo_path).edit_log[-1] == changed, f.name
            assert read(repo_path) == canonical(repo_path), f.name

    @pytest.mark.parametrize("edit, expected", EDITS.values(), ids=EDITS)
    def test_a_trusted_edit_encodes_only_its_new_log_entries(self, marked_path, monkeypatch,
                                                              edit, expected):
        encoded = encoded_log_entries(monkeypatch)
        with store.editing(marked_path) as repo:
            edit(repo)
        assert list(map(label, encoded)) == expected
        monkeypatch.undo()
        assert read(marked_path) == canonical(marked_path)

    @pytest.mark.parametrize("change", ["title", "attrs"])
    def test_a_field_set_in_place_is_saved(self, marked_path, change):
        # Records are values by contract, but the save encodes every record
        # but the log's, so a field changed in place still reaches the file.
        with store.editing(marked_path) as repo:
            if change == "title":
                repo.artifacts["R1"].title = "Set in place"
            else:
                repo.artifacts["R1"].attrs["k"] = "set in place"
        saved = load_repository(marked_path).artifacts["R1"]
        assert (saved.title, saved.attrs["k"]) == (
            ("Set in place", "v") if change == "title" else ("Req 1", "set in place"))
        assert read(marked_path) == canonical(marked_path)


def field_values(record):
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def fields_of(repo):
    """Each record object of ``repo``, with a deep copy of every one of its fields."""
    records = [*repo.artifacts.values(), *repo.assignments, *repo.edit_log,
               *repo.taxonomy.nodes.values()]
    return [(r, copy.deepcopy(field_values(r))) for r in records]


def assert_unchanged(before):
    for record, values in before:
        assert field_values(record) == values, record


class TestRecordsAreValues:
    """An edit replaces a record and never changes one in place: the link
    index holds the assignments themselves and finds them by identity."""

    @pytest.mark.parametrize("edit", [edit for edit, _ in EDITS.values()], ids=EDITS)
    def test_library_edit(self, marked_path, edit):
        repo = load_repository(marked_path)
        before = fields_of(repo)
        edit(repo)
        assert_unchanged(before)

    @pytest.mark.parametrize("what, text", [
        ("model", "object_id,sb11_code,version,type\nX1,63fh--,v1,t\nX2,99ZZ,v1,t\nX3,,v1,t\n"),
        ("artifacts", '{"id": "N1", "kind": "source-unit", "title": "New", "attrs": {"x": 1}}\n'),
        ("taxonomy", FENCES_TAXONOMY_CSV),
    ])
    def test_import_command(self, marked_path, tmp_path, capsys, monkeypatch, what, text):
        snapshots = []
        real = cli.cmd_import

        def spy(args, repo):
            snapshots.append(fields_of(repo))
            return real(args, repo)

        monkeypatch.setattr(cli, "cmd_import", spy)
        source = tmp_path / "input"
        source.write_text(text, encoding="utf-8")
        assert run_cli(marked_path, ["import", what, str(source)], capsys) == 0
        [before] = snapshots
        assert_unchanged(before)


# Values of the wrong type for every field of every record kind.  The loader
# rejects a file that holds one, or reads it back as another value.
WRONG_TYPES = {
    Artifact: {
        "id": [5], "kind": [None], "title": [5], "body": [5], "document": [b"doc"],
        "version": [1.5], "attrs": [{"k": 5}, {"k": None}, {5: "v"}, [("k", "v")]],
        "archived": [1, 0, "yes", None],
    },
    linkage.Assignment: {
        "artifact_id": [5], "code": [5], "provenance": [None], "status": [True],
        "note": [5], "created_at": [None],
    },
    linkage.EditRecord: {
        "op": [None], "link_kind": [5], "cause": [None],
        "endpoints": [("R0",), ("R0", 1), ("R0", "1", "2"), "R0", None],
    },
    taxonomy.TaxonomyNode: {
        "code": [5], "title": [None], "description": [5], "parent": [5],
        "synonyms": ["ab", ["a", 5]],
    },
}
WRONG_CASES = [(cls, name, value) for cls, fields in WRONG_TYPES.items()
               for name, values in fields.items() for value in values]
WRONG_IDS = [f"{cls.__name__}.{name}={value!r}" for cls, name, value in WRONG_CASES]


def put_wrong(repo, cls, name, value):
    """Put in ``repo`` a record of kind ``cls`` whose field ``name`` holds ``value``."""
    wrong = {name: value}
    if cls is Artifact:
        repo.artifacts["R1"] = dataclasses.replace(repo.artifacts["R1"], **wrong)
    elif cls is linkage.Assignment:
        repo.assignments[0] = dataclasses.replace(repo.assignments[0], **wrong)
    elif cls is linkage.EditRecord:
        repo.edit_log.append(dataclasses.replace(
            linkage.EditRecord(linkage.ADD, linkage.TAXONOMIC, ("R0", "1"), "assign"), **wrong))
    else:
        nodes = repo.taxonomy.nodes
        nodes["1"] = dataclasses.replace(nodes["1"], **wrong)


class TestWrongFieldTypes:
    """A field of the wrong type fails the save with TypeError, and nothing is written."""

    def test_every_field_of_every_record_kind_has_cases(self):
        for cls, fields in WRONG_TYPES.items():
            assert set(fields) == {f.name for f in dataclasses.fields(cls)}, cls

    @pytest.mark.parametrize("cls, name, value", WRONG_CASES, ids=WRONG_IDS)
    def test_save_repository(self, marked_path, cls, name, value):
        start = read(marked_path), read(sidecar(marked_path))
        repo = load_repository(marked_path)
        put_wrong(repo, cls, name, value)
        with pytest.raises(TypeError):
            save_repository(repo, marked_path)
        assert (read(marked_path), read(sidecar(marked_path))) == start

    @pytest.mark.parametrize("trusted", [True, False], ids=["trusted", "stale stamp"])
    @pytest.mark.parametrize("cls, name, value", WRONG_CASES, ids=WRONG_IDS)
    def test_editing(self, marked_path, cls, name, value, trusted):
        if not trusted:
            with open(sidecar(marked_path), "wb") as f:
                f.write(b"0\n")
        start = read(marked_path), read(sidecar(marked_path))
        with pytest.raises(TypeError):
            with store.editing(marked_path) as repo:
                put_wrong(repo, cls, name, value)
        assert (read(marked_path), read(sidecar(marked_path))) == start


# Values of the right type that the loader refuses, and what the save raises.
REFUSED_VALUES = [
    (Artifact, "kind", "poem", ValueError),
    (linkage.Assignment, "status", "maybe", ValueError),
    (linkage.Assignment, "provenance", "robot", ValueError),
    (linkage.Assignment, "status", linkage.UNCLASSIFIABLE, ValueError),  # a marker with a code
    (linkage.Assignment, "code", None, ValueError),  # a confirmed link without one
    (linkage.EditRecord, "op", "move", ValueError),
    (linkage.EditRecord, "link_kind", "psychic", ValueError),
    (linkage.Assignment, "artifact_id", "R9", ReferentialIntegrityError),  # no such artifact
    (linkage.Assignment, "code", "a -", ReferentialIntegrityError),  # not a normal code
    # A record under a key that is not its own: ``put_wrong`` keeps key R1 or 1.
    (Artifact, "id", "R0", ValueError),  # beside R0, read back as a duplicate
    (Artifact, "id", "R9", ValueError),  # read back as R9
    (taxonomy.TaxonomyNode, "code", "2", ValueError),  # beside 2, read back as a duplicate
    (taxonomy.TaxonomyNode, "code", "9", ValueError),  # read back as class 9
    # A field the parsers strip, drop or refuse.
    (taxonomy.TaxonomyNode, "title", " ", ValueError),  # refused as empty
    (taxonomy.TaxonomyNode, "title", " Alpha ", ValueError),  # read back as "Alpha"
    (taxonomy.TaxonomyNode, "description", "", ValueError),  # read back as None
    (taxonomy.TaxonomyNode, "description", "\t", ValueError),  # read back as None
    (taxonomy.TaxonomyNode, "description", "Alpha\n", ValueError),  # read back as "Alpha"
    (taxonomy.TaxonomyNode, "synonyms", ["x", ""], ValueError),  # read back as ["x"]
    (taxonomy.TaxonomyNode, "synonyms", [" x"], ValueError),  # read back as ["x"]
]
REFUSED_IDS = [f"{cls.__name__}.{name}={value!r}" for cls, name, value, _ in REFUSED_VALUES]


class TestRefusedValues:
    """A value the loader refuses fails the save, and nothing is written."""

    @pytest.mark.parametrize("cls, name, value, error", REFUSED_VALUES, ids=REFUSED_IDS)
    def test_save_repository(self, marked_path, cls, name, value, error):
        start = read(marked_path), read(sidecar(marked_path))
        repo = load_repository(marked_path)
        put_wrong(repo, cls, name, value)
        with pytest.raises(error):
            save_repository(repo, marked_path)
        assert (read(marked_path), read(sidecar(marked_path))) == start

    @pytest.mark.parametrize("trusted", [True, False], ids=["trusted", "stale stamp"])
    @pytest.mark.parametrize("cls, name, value, error", REFUSED_VALUES, ids=REFUSED_IDS)
    def test_editing(self, marked_path, cls, name, value, error, trusted):
        if not trusted:
            with open(sidecar(marked_path), "wb") as f:
                f.write(b"0\n")
        start = read(marked_path), read(sidecar(marked_path))
        with pytest.raises(error):
            with store.editing(marked_path) as repo:
                put_wrong(repo, cls, name, value)
        assert (read(marked_path), read(sidecar(marked_path))) == start

    @pytest.mark.parametrize("cls, value, message", [
        (Artifact, "R0", "artifact 'R0' is stored under key 'R1'"),
        (taxonomy.TaxonomyNode, "2", "taxonomy node '2' is stored under key '1'"),
    ], ids=["artifact", "taxonomy node"])
    def test_a_record_under_another_key_is_named_by_both(self, marked_path, cls, value, message):
        repo = load_repository(marked_path)
        put_wrong(repo, cls, "code" if cls is taxonomy.TaxonomyNode else "id", value)
        with pytest.raises(ValueError) as caught:
            save_repository(repo, marked_path)
        assert str(caught.value) == message

    @pytest.mark.parametrize("trusted", [True, False], ids=["trusted", "stale stamp"])
    @pytest.mark.parametrize("code", ["a -", "A-", " A", "a", "-"])
    def test_a_code_not_in_normal_form_is_refused_under_its_own_key(self, marked_path, code,
                                                                      trusted):
        # Under key "a -", node "a -" would be read back as class A.
        if not trusted:
            with open(sidecar(marked_path), "wb") as f:
                f.write(b"0\n")
        start = read(marked_path), read(sidecar(marked_path))
        message = f"taxonomy node code {code!r} is not in normal form"
        repo = load_repository(marked_path)
        repo.taxonomy.nodes[code] = taxonomy.TaxonomyNode(code, "Alpha")
        with pytest.raises(ValueError) as caught:
            save_repository(repo, marked_path)
        assert str(caught.value) == message
        with pytest.raises(ValueError) as caught:
            with store.editing(marked_path) as repo:
                repo.taxonomy.nodes[code] = taxonomy.TaxonomyNode(code, "Alpha")
        assert str(caught.value) == message
        assert (read(marked_path), read(sidecar(marked_path))) == start

    @pytest.mark.parametrize("fmt", [taxonomy.TABULAR, taxonomy.STRUCTURED])
    @pytest.mark.parametrize("name, value, message", [
        ("code", "b", "taxonomy node code 'b' is not in normal form"),
        ("title", "", "taxonomy node 'B' has a blank or padded title ''"),
        ("title", "Beta ", "taxonomy node 'B' has a blank or padded title 'Beta '"),
        ("description", " ", "taxonomy node 'B' has a blank or padded description ' '"),
        ("description", "\u3000Beta", "taxonomy node 'B' has a blank or padded description"
                                      " '\\u3000Beta'"),
        ("synonyms", ["beta", "\n"], "taxonomy node 'B' has a blank or padded synonym '\\n'"),
    ])
    def test_either_taxonomy_writer_refuses_a_node_it_would_read_back_changed(
            self, fmt, name, value, message):
        t = taxonomy.parse_taxonomy("code,parent,title,description,synonyms\n"
                                    "A,,Alpha,,\nB,,Beta,,\n")
        node = dataclasses.replace(t.nodes.pop("B"), **{name: value})
        t.nodes[node.code] = node
        with pytest.raises(ValueError) as caught:
            taxonomy.write_taxonomy(t, fmt)
        assert str(caught.value) == message

    @pytest.mark.parametrize("fmt", [taxonomy.TABULAR, taxonomy.STRUCTURED])
    def test_either_taxonomy_writer_refuses_a_node_under_another_key(self, fmt):
        # Written as its own code, node C would parse back as another class.
        t = taxonomy.parse_taxonomy("code,parent,title,description,synonyms\n"
                                    "A,,Alpha,,\nB,,Beta,,\n")
        t.nodes["B"] = dataclasses.replace(t.nodes["B"], code="C")
        with pytest.raises(ValueError) as caught:
            taxonomy.write_taxonomy(t, fmt)
        assert str(caught.value) == "taxonomy node 'C' is stored under key 'B'"


class TestAppendOnlyLog:
    """Inside ``store.editing`` the edit log holds only the entries the block
    appends; the save writes the file's log lines and then theirs."""

    @pytest.mark.parametrize("trusted", [True, False], ids=["trusted", "untrusted"])
    def test_the_block_starts_with_an_empty_log(self, marked_path, trusted):
        if not trusted:
            os.unlink(sidecar(marked_path))
        before = read(marked_path)
        with store.editing(marked_path) as repo:
            assert repo.edit_log == []
            linkage.assign(repo, "R0", "63FH", now=NOW)
            assert repo.edit_log == [linkage.EditRecord(
                linkage.ADD, linkage.TAXONOMIC, ("R0", "63FH"), "assign")]
        after = read(marked_path)
        assert log_lines(after) == log_lines(before) + [
            b'["add", "taxonomic", ["R0", "63FH"], "assign"]']
        assert after == canonical(marked_path)

    def test_a_trusted_edit_neither_decodes_nor_encodes_the_files_log(
            self, marked_path, capsys, monkeypatch):
        decoded = []
        real = store._decode

        def decode(table, records, where):
            if table.cls is store.EditRecord:
                decoded.extend(records)
            return real(table, records, where)

        monkeypatch.setattr(store, "_decode", decode)
        encoded = encoded_log_entries(monkeypatch)
        assert run_cli(marked_path, ["assign", "R0", "63FH"], capsys) == 0
        assert decoded == []
        assert list(map(label, encoded)) == ["add R0 63FH"]
        # Without the sidecar every entry is decoded, and checked, as a load
        # does, then encoded again.
        os.unlink(sidecar(marked_path))
        encoded.clear()
        assert run_cli(marked_path, ["unassign", "R0", "63FH"], capsys) == 0
        entries = len(log_lines(read(marked_path)))
        assert len(decoded) == entries - 1
        assert len(encoded) == entries

    def forge(self, path, old, new, stamp):
        """Replace one log line of the file; stamp the new bytes or keep the old stamp."""
        data = read(path)
        assert data.count(old) == 1
        forged = data.replace(old, new)
        with open(path, "wb") as f:
            f.write(forged)
        if stamp:
            with open(sidecar(path), "wb") as f:
                f.write(store._stamp(forged))
        return forged

    def test_a_trusted_stamp_vouches_for_the_log_unchecked(self, marked_path, capsys):
        # The stamp is a CRC-32 of bytes this module wrote: a forged one is
        # believed, and the edit neither reads nor checks the log.
        first = log_lines(read(marked_path))[0]
        moved = b'["move", "taxonomic", ["R0", "1"], ""]'
        before = log_lines(self.forge(marked_path, first, moved, stamp=True))
        assert before[0] == moved
        assert run_cli(marked_path, ["assign", "R1", "63FH"], capsys) == 0
        assert log_lines(read(marked_path))[:len(before)] == before
        # A full load still rejects it.
        assert cli.main(["--repo", marked_path, "validate"]) == 2
        assert capsys.readouterr().err == "error: edit_log[0]: unknown op 'move'\n"

    def test_a_trusted_stamp_over_a_one_line_log_loads_it_in_full(self, marked_path, monkeypatch):
        data = read(marked_path)
        head, _, rest = data.partition(b'\n"edit_log": [\n')
        log, _, tail = rest.partition(b"\n],\n")
        forged = head + b'\n"edit_log": [' + log.replace(b",\n", b", ") + b"],\n" + tail
        with open(marked_path, "wb") as f:
            f.write(forged)
        with open(sidecar(marked_path), "wb") as f:
            f.write(store._stamp(forged))
        encoded = encoded_log_entries(monkeypatch)
        with store.editing(marked_path) as repo:
            assert repo.edit_log == []
        assert len(encoded) == len(log_lines(data))
        assert read(marked_path) == data

    @pytest.mark.parametrize("line, old, new", [
        (0, b",\n", b"\n"), (-1, b"\n],\n", b",\n],\n"), (0, b",\n", b",\n,\n"),
    ], ids=["a line without its comma", "the last line with a comma", "an empty line"])
    def test_a_trusted_stamp_over_misplaced_log_commas_is_not_believed(
            self, marked_path, capsys, line, old, new):
        # Kept as they are, the lines would stay a file that is not JSON.
        record = log_lines(read(marked_path))[line]
        forged = self.forge(marked_path, record + old, record + new, stamp=True)
        stamp = read(sidecar(marked_path))
        for argv in (["assign", "R1", "63FH"],
                     ["split", "R2", "--part", "R2a:2", "--part", "R2b:3"]):
            assert cli.main(["--repo", marked_path, *argv]) == 2
            assert capsys.readouterr().err.startswith(
                "error: repository file is not valid JSON: "), argv
            assert (read(marked_path), read(sidecar(marked_path))) == (forged, stamp)

    @pytest.mark.parametrize("where, second", [
        ("after", '"edit_log": [["op", "link_kind", "endpoints", "cause"], '
                  '["add", "taxonomic", ["R2", "1"], "c"]],'),
        ("after", '"edit_log": [["op", "link_kind", "endpoints", "cause"]],'),
        ("before", '"edit_log": [["op", "link_kind", "endpoints", "cause"], '
                   '["add", "taxonomic", ["R2", "1"], "c"]],'),
    ], ids=["later, with an entry", "later, empty", "earlier, with an entry"])
    def test_a_trusted_stamp_over_a_second_log_key_is_not_believed(
            self, marked_path, tmp_path, capsys, where, second):
        # JSON keeps the last of two equal keys, and so does the full load.
        text = read(marked_path).decode("utf-8")
        anchor = '\n"schema_version": ' if where == "after" else '\n"artifacts": '
        forged = text.replace(anchor, f"\n{second}{anchor}", 1).encode("utf-8")
        control = str(tmp_path / "control.json")
        for path in (marked_path, control):
            with open(path, "wb") as f:
                f.write(forged)
        with open(sidecar(marked_path), "wb") as f:
            f.write(store._stamp(forged))
        for path in (marked_path, control):
            assert run_cli(path, ["assign", "R1", "63FH"], capsys) == 0
        assert read(marked_path) == read(control) == canonical(control)

    def test_a_stamp_over_other_bytes_is_not_trusted(self, marked_path, capsys):
        first = log_lines(read(marked_path))[0]
        assert first.startswith(b'["add", ')
        forged = self.forge(marked_path, first, first.replace(b'"add"', b'"adc"'), stamp=False)
        assert cli.main(["--repo", marked_path, "assign", "R1", "63FH"]) == 2
        assert capsys.readouterr().err == "error: edit_log[0]: unknown op 'adc'\n"
        assert read(marked_path) == forged


def spaced(text):
    """The same document with extra spaces, all on one line."""
    return json.dumps(json.loads(text), indent=None, separators=(" , ", " : ")) + "\n"


def schema_1(text):
    """The same repository as the schema-1 writer wrote it: keyed records, indented."""
    return schema_1_text(store.deserialize_repository(text))


def joined_records(text):
    """Canonical lines, but the first two records share one line."""
    return text.replace(",\n", ", ", 1)


def shifted_lines(text):
    """As many lines as the canonical file, but not where its layout puts them."""
    return text.replace('"artifacts": [\n', '"artifacts": [', 1).replace("\n}\n", "\n\n}\n")


def inner_spacing(text):
    """Canonical layout, but one record line spaced differently."""
    return text.replace('"requirement", "Req 1"', '"requirement","Req 1"', 1)


def ascii_escapes(text):
    """Canonical layout, but non-ASCII text written as JSON ``\\uXXXX`` escapes.

    ``json.dumps`` escapes a character above U+FFFF as a surrogate pair.
    """
    return "".join(c if c.isascii() else json.dumps(c)[1:-1] for c in text)


def trailing_value(text):
    """Canonical lines, but a second value after the artifacts: not JSON."""
    return text.replace('\n],\n"assignments": ', '\n] [],\n"assignments": ', 1)


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
    @pytest.mark.parametrize("lock", [MISSING, GARBAGE, STALE, VALID])
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


def model_repo(seed):
    """A seeded random repository with requirements that have text, and two model versions."""
    rng = random.Random(seed)
    repo = random_repo(rng, max_artifacts=40, max_assignments=80, taxonomy_nodes=25)
    codes = sorted(repo.taxonomy.nodes)
    ids = sorted(repo.artifacts)
    for artifact_id in rng.sample(ids, len(ids) // 2):
        titles = [repo.taxonomy.nodes[code].title for code in rng.sample(codes, 2)]
        repo.artifacts[artifact_id] = dataclasses.replace(
            repo.artifacts[artifact_id], kind="requirement", body=" and ".join(titles))
    first = repo.taxonomy.nodes[codes[0]].title
    store.add_artifact(repo, Artifact(id="R1", kind="requirement", title="Req 1",
                                      body=f"{first} – Brücke ✓"))
    for i in range(rng.randint(2, 10)):
        code = rng.choice(codes + ["99ZZ", None])
        v1 = make_object(f"M{i}", code, type_label=rng.choice("ab"))
        overrides = {"sb11_code": rng.choice(codes)} if code is not None and i % 3 == 0 else {}
        store.add_artifact(repo, v1)
        store.add_artifact(repo, clone_object(v1, f"N{i}", **overrides))
    return repo


def read_commands(repo, rng):
    """One of each read command, with arguments drawn from ``repo``."""
    ids = sorted(repo.artifacts)
    spec = rng.choice(["equal", "sibling", "equal-or-descendant", "neighborhood:2"])
    return [
        ["suggest", rng.choice([i for i in ids if repo.artifacts[i].body])],
        ["audit", "comprehensiveness", "--model", "v1"],
        ["audit", "inter", "--model", "v1", "--model", "v2"],
        ["diff", "--from", "v1", "--to", "v2", "--fingerprint", "default"],
        ["trace", rng.choice(ids), "--filter", spec],
        ["coverage", "--from", "requirement"],
        ["coverage", "--from", "requirement", "--to", "design-object", "--filter", spec],
        ["impact", rng.choice(ids), "--filter", spec, "--include-proposed"],
        ["validate"],
    ]


def outcome(path, argv, capsys):
    """Exit code, stdout and stderr of one command, in either format."""
    results = []
    for fmt in ("text", "json"):
        code = cli.main(["--repo", path, "--format", fmt, *argv])
        out, err = capsys.readouterr()
        results.append((code, out, err))
    return results


def count_decoded(monkeypatch):
    """The taxonomies, assignments and edit-log entries decoded from now on, by section."""
    decoded = {"taxonomy": 0, "assignments": 0, "edit_log": 0}
    sections = {store.Assignment: "assignments", store.EditRecord: "edit_log"}
    real_nodes, real_decode = store._node_rows, store._decode

    def nodes(rows):
        decoded["taxonomy"] += 1
        return real_nodes(rows)

    def decode(table, records, where):
        if table.cls in sections:
            decoded[sections[table.cls]] += len(records)
        return real_decode(table, records, where)

    monkeypatch.setattr(store, "_node_rows", nodes)
    monkeypatch.setattr(store, "_decode", decode)
    return decoded


def built_artifacts(monkeypatch):
    """The ids of the artifacts ``store`` decodes from now on, in order."""
    built = []
    real = store._decode

    def decode(table, records, where):
        decoded = real(table, records, where)
        if table.cls is store.Artifact:
            built.extend(a.id for a in decoded)
        return decoded

    monkeypatch.setattr(store, "_decode", decode)
    return built


def decoded_classes(monkeypatch):
    """The codes of the taxonomy rows ``store`` decodes from now on, in order."""
    codes = []
    real = store._node_rows

    def nodes(rows):
        codes.extend(row[0] for row in rows)
        return real(rows)

    monkeypatch.setattr(store, "_node_rows", nodes)
    return codes


VOUCHING, STALE_STAMP, NO_SIDECAR = "stamp vouching", "stamp stale", "no sidecar"


class TestVouchedReads:
    """Under a stamp that vouches for the file, a read command decodes only its
    sections; its output is the same as after a full load."""

    def set_sidecar(self, path, state):
        if state == NO_SIDECAR:
            if os.path.exists(sidecar(path)):
                os.unlink(sidecar(path))
            return
        data = read(path) if state == VOUCHING else read(path) + b" "
        with open(sidecar(path), "wb") as f:
            f.write(store._stamp(data))

    @pytest.mark.parametrize("seed", range(8))
    def test_every_read_command_prints_the_same_in_every_sidecar_state(
            self, seed, tmp_path, capsys):
        path = str(tmp_path / "repo.json")
        repo = model_repo(seed)
        save_repository(repo, path)
        before = read(path)
        for argv in read_commands(repo, random.Random(seed)):
            seen = {}
            for state in (VOUCHING, STALE_STAMP, NO_SIDECAR):
                self.set_sidecar(path, state)
                seen[state] = outcome(path, argv, capsys)
            assert seen[VOUCHING] == seen[STALE_STAMP] == seen[NO_SIDECAR], argv
        assert read(path) == before

    @pytest.mark.parametrize("rewrite", [spaced, schema_1, joined_records, shifted_lines,
                                         inner_spacing, ascii_escapes, trailing_value])
    def test_a_stamp_over_another_layout_reads_as_a_full_load(self, rewrite, tmp_path, capsys):
        path = str(tmp_path / "repo.json")
        repo = model_repo(1)
        save_repository(repo, path)
        odd = rewrite(read(path).decode("utf-8")).encode("utf-8")
        assert odd != read(path)
        with open(path, "wb") as f:
            f.write(odd)
        for argv in read_commands(repo, random.Random(1)):
            self.set_sidecar(path, VOUCHING)
            vouched = outcome(path, argv, capsys)
            self.set_sidecar(path, NO_SIDECAR)
            assert outcome(path, argv, capsys) == vouched, argv

    @pytest.mark.parametrize("argv, reads", [
        (["suggest", "R1"], {"taxonomy"}),
        (["audit", "comprehensiveness", "--model", "v1"], {"taxonomy"}),
        (["diff", "--from", "v1", "--to", "v1"], set()),
        (["trace", "R1"], {"taxonomy", "assignments"}),
        (["coverage", "--from", "requirement"], {"taxonomy", "assignments"}),
        (["impact", "R1"], {"taxonomy", "assignments"}),
        (["validate"], {"taxonomy", "assignments", "edit_log"}),
    ])
    def test_skipped_sections_are_not_decoded(self, marked_path, argv, reads, capsys,
                                              monkeypatch):
        repo = load_repository(marked_path)
        every = {"taxonomy": 1, "assignments": len(repo.assignments),
                 "edit_log": len(repo.edit_log)}
        assert min(every.values()) > 0
        decoded = count_decoded(monkeypatch)
        assert run_cli(marked_path, argv, capsys) == 0
        assert decoded == {name: n if name in reads else 0 for name, n in every.items()}
        os.unlink(sidecar(marked_path))
        decoded.update(taxonomy=0, assignments=0, edit_log=0)
        assert run_cli(marked_path, argv, capsys) == 0
        assert decoded == every

    def test_one_artifact_edits_decode_only_its_records(self, marked_path, capsys,
                                                          monkeypatch):
        repo = load_repository(marked_path)
        own = sum(a.artifact_id == "R1" for a in repo.assignments)
        assert 0 < own < len(repo.assignments) and repo.edit_log
        decoded, built = count_decoded(monkeypatch), built_artifacts(monkeypatch)

        def run(argv, state):
            self.set_sidecar(marked_path, state)
            decoded.update(taxonomy=0, assignments=0, edit_log=0)
            built.clear()
            assert run_cli(marked_path, argv, capsys) == 0
            return dict(decoded), list(built)

        assert run(["assign", "R1", "63FH"], VOUCHING) == (
            {"taxonomy": 1, "assignments": own, "edit_log": 0}, ["R1"])
        repo = load_repository(marked_path)
        every = sorted(repo.artifacts)
        assert run(["unassign", "R1", "63FH"], NO_SIDECAR) == (
            {"taxonomy": 1, "assignments": len(repo.assignments),
             "edit_log": len(repo.edit_log)}, every)
        # A split decodes the original's assignments alone: its parts are
        # absent, so they have none.
        own = sum(a.artifact_id == "R2" for a in load_repository(marked_path).assignments)
        assert own > 0
        monkeypatch.undo()
        decoded = count_decoded(monkeypatch)
        self.set_sidecar(marked_path, VOUCHING)
        assert run_cli(marked_path, ["split", "R2", "--part", "R2a:2", "--part", "R2b:3"],
                       capsys) == 0
        assert decoded == {"taxonomy": 1, "assignments": own, "edit_log": 0}
        assert read(marked_path) == canonical(marked_path)

    def test_one_artifact_edits_decode_only_the_classes_they_name(self, marked_path, capsys,
                                                                 monkeypatch):
        # R1 holds 18B, below 1, and T0 holds 18B too; 31B is below 31, below 3.
        classes, built = decoded_classes(monkeypatch), built_artifacts(monkeypatch)

        def run(argv, code=0):
            classes.clear()
            built.clear()
            assert cli.main(["--repo", marked_path, *argv]) == code
            capsys.readouterr()
            return sorted(classes), built

        assert run(["assign", "R1", "63FH"]) == (["1", "18B", "63FH"], ["R1"])
        assert run(["assign", "R1", "31b -"]) == (["1", "18B", "3", "31", "31B", "63FH"], ["R1"])
        # A split builds the original and those of its parts that are stored:
        # none, or T0, which is refused.
        assert run(["split", "R2", "--part", "R2a:2", "--part", "R2b:63n"]) == (
            ["2", "63N"], ["R2"])
        assert run(["split", "R3", "--part", "R3a:3", "--part", "T0:"], 2) == (
            ["1", "18B", "3"], ["R3", "T0"])
        assert read(marked_path) == canonical(marked_path)

    @pytest.mark.parametrize("state", [STALE_STAMP, NO_SIDECAR, "import"])
    def test_a_full_load_decodes_every_class(self, marked_path, tmp_path, capsys, monkeypatch,
                                             state):
        every = sorted(load_repository(marked_path).taxonomy.nodes)
        argv = ["assign", "R1", "63FH"]
        if state == "import":  # under a stamp that vouches for the file
            jsonl = tmp_path / "a.jsonl"
            jsonl.write_text('{"id": "N1", "kind": "source-unit", "title": "New"}\n')
            argv = ["import", "artifacts", str(jsonl)]
        else:
            self.set_sidecar(marked_path, state)
        decoded, classes = count_decoded(monkeypatch), decoded_classes(monkeypatch)
        assert run_cli(marked_path, argv, capsys) == 0
        assert (decoded["taxonomy"], sorted(classes)) == (1, every)

    def test_a_stamp_vouches_only_for_the_sections_a_command_skips(self, marked_path, capsys):
        # As with the edit log under an edit, a forged stamp is believed for
        # what a command does not read; what it reads is checked as a load does.
        data = read(marked_path)
        first = data.partition(b'\n"assignments": [\n')[2].split(b"\n")[1]  # after the header
        forged = data.replace(first, first.replace(b'"confirmed"', b'"maybe"'), 1)
        assert forged != data
        with open(marked_path, "wb") as f:
            f.write(forged)
        with open(sidecar(marked_path), "wb") as f:
            f.write(store._stamp(forged))
        assert run_cli(marked_path, ["suggest", "R1"], capsys) == 0
        for argv in (["trace", "R1"], ["validate"]):
            assert cli.main(["--repo", marked_path, *argv]) == 2
            assert capsys.readouterr().err == "error: assignments[0]: unknown status 'maybe'\n"
        os.unlink(sidecar(marked_path))
        assert cli.main(["--repo", marked_path, "suggest", "R1"]) == 2
        assert capsys.readouterr().err == "error: assignments[0]: unknown status 'maybe'\n"

    def forge(self, path, old, new):
        """Replace ``old`` by ``new`` in the file once, under a stamp of the new bytes."""
        data = read(path)
        assert data.count(old) == 1, old
        forged = data.replace(old, new)
        with open(path, "wb") as f:
            f.write(forged)
        with open(sidecar(path), "wb") as f:
            f.write(store._stamp(forged))

    def test_suggest_builds_only_the_artifact_it_ranks(self, marked_path, capsys, monkeypatch):
        every = sorted(load_repository(marked_path).artifacts)
        built = built_artifacts(monkeypatch)
        for state, ids in ((VOUCHING, ["R1"]), (STALE_STAMP, every), (NO_SIDECAR, every)):
            self.set_sidecar(marked_path, state)
            built.clear()
            assert run_cli(marked_path, ["suggest", "R1"], capsys) == 0
            assert built == ids, state

    def test_an_unknown_id_fails_alike_in_every_sidecar_state(self, marked_path, capsys):
        seen = {}
        for state in (VOUCHING, STALE_STAMP, NO_SIDECAR):
            self.set_sidecar(marked_path, state)
            seen[state] = outcome(marked_path, ["suggest", "NOPE"], capsys)
        assert seen[VOUCHING] == seen[STALE_STAMP] == seen[NO_SIDECAR]
        assert seen[VOUCHING][0] == (2, "", "error: no artifact with id 'NOPE'\n")

    R1_LINE = b'["R1", "requirement", "Req 1", null, {"k": "v", "n": "1"}, null, null, false],\n'

    @pytest.mark.parametrize("extra, message", [
        (R1_LINE, "artifact id 'R1' appears twice"),
        (b"5,\n", "artifacts[2]: expected a list of 8 values"),
    ], ids=["id stored twice", "non-object"])
    def test_an_untrusted_artifacts_list_fails_as_a_full_load_does(self, marked_path, capsys,
                                                                    extra, message):
        # The extra record follows R1's own, which is well formed: only a
        # decode of the whole list reports it.
        self.forge(marked_path, self.R1_LINE, self.R1_LINE + extra)
        for state in (VOUCHING, NO_SIDECAR):
            self.set_sidecar(marked_path, state)
            assert cli.main(["--repo", marked_path, "suggest", "R1"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n", state

    def test_a_malformed_requested_artifact_fails_as_a_full_load_does(self, marked_path,
                                                                      capsys):
        self.forge(marked_path, b'["R1", "requirement"', b'["R1", "widget"')
        message = "error: artifacts[1]: unknown artifact kind 'widget'\n"
        for argv in (["suggest", "R1"], ["validate"]):
            assert cli.main(["--repo", marked_path, *argv]) == 2
            assert capsys.readouterr().err == message, argv
        self.set_sidecar(marked_path, NO_SIDECAR)
        assert cli.main(["--repo", marked_path, "suggest", "R1"]) == 2
        assert capsys.readouterr().err == message

    def test_a_stamp_vouches_for_the_artifacts_suggest_does_not_rank(self, marked_path,
                                                                      capsys):
        # A forged stamp is believed for every artifact but the one ranked;
        # a command that reads them all checks them all.
        ranked = outcome(marked_path, ["suggest", "R1"], capsys)
        self.forge(marked_path, b'["R2", "requirement"', b'["R2", "widget"')
        assert outcome(marked_path, ["suggest", "R1"], capsys) == ranked
        message = "error: artifacts[2]: unknown artifact kind 'widget'\n"
        for argv in (["diff", "--from", "v1", "--to", "v2"], ["validate"]):
            assert cli.main(["--repo", marked_path, *argv]) == 2
            assert capsys.readouterr().err == message, argv
        self.set_sidecar(marked_path, NO_SIDECAR)
        assert cli.main(["--repo", marked_path, "suggest", "R1"]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("escaped", [False, True])
    def test_an_id_with_non_ascii_text_and_a_quote(self, escaped, tmp_path, capsys,
                                                   monkeypatch):
        # Escaped, the stored id is "R\"\u00fc\u20131": only a parse finds it.
        path = str(tmp_path / "repo.json")
        repo = model_repo(2)
        odd = 'R"ü–1'
        store.add_artifact(repo, Artifact(id=odd, kind="requirement", title="Odd",
                                          body=repo.artifacts["R1"].body))
        save_repository(repo, path)
        if escaped:
            self.forge(path, json.dumps(odd, ensure_ascii=False).encode("utf-8"),
                       json.dumps(odd).encode("ascii"))
        built = built_artifacts(monkeypatch)
        seen = {}
        for state in (VOUCHING, STALE_STAMP, NO_SIDECAR):
            self.set_sidecar(path, state)
            built.clear()
            seen[state] = outcome(path, ["suggest", odd], capsys)
            if state == VOUCHING:
                assert built == [odd, odd]  # once for each format
        assert seen[VOUCHING] == seen[STALE_STAMP] == seen[NO_SIDECAR]
        code, out, err = seen[VOUCHING][1]
        assert (code, err) == (0, "") and json.loads(out)["artifact"] == odd


# A schema-2 file, written by that schema's writer from ``model_repo(1)``.
SCHEMA_2_FILE = os.path.join(os.path.dirname(__file__), "data", "schema2.json")


class TestSchema2File:
    """A file an earlier release wrote loads as it was, and its next edit writes schema 3."""

    @pytest.fixture
    def old_path(self, tmp_path):
        path = str(tmp_path / "repo.json")
        with open(SCHEMA_2_FILE, "rb") as src, open(path, "wb") as dst:
            dst.write(src.read())
        return path

    def test_it_loads_equal_to_the_repository_it_was_written_from(self, old_path):
        assert json.loads(read(old_path))["schema_version"] == 2
        assert load_repository(old_path) == model_repo(1)
        # The helpers that rebuild older files write what that writer wrote.
        assert read(old_path).decode("utf-8") == schema_2_text(model_repo(1))

    def test_a_schema_2_stamp_does_not_vouch_for_it(self, old_path, capsys, monkeypatch):
        data = read(old_path)
        # The stamp a schema-2 release wrote beside the bytes it saved.
        old_stamp = b"2 %d %d %d\n" % (store._CODEC_REVISION, len(data), zlib.crc32(data))
        assert store._stamp(data) != old_stamp
        with open(sidecar(old_path), "wb") as f:
            f.write(old_stamp)
        repo = load_repository(old_path)
        linked = next(a.artifact_id for a in repo.assignments if a.status == linkage.CONFIRMED)
        decoded = count_decoded(monkeypatch)
        # A read the stamp vouched for would decode neither the log nor the
        # artifacts; this one loads the whole file.
        assert run_cli(old_path, ["trace", linked], capsys) == 0
        assert decoded["edit_log"] == len(repo.edit_log) > 0

    @pytest.mark.parametrize("stamp", ["schema 2", "none"])
    def test_assign_rewrites_it_as_schema_3_with_a_log_that_replays(
            self, old_path, capsys, monkeypatch, stamp):
        monkeypatch.setenv("TTL_NOW", NOW)
        before = load_repository(old_path)
        if stamp == "schema 2":
            data = read(old_path)
            with open(sidecar(old_path), "wb") as f:
                f.write(b"2 %d %d %d\n" % (store._CODEC_REVISION, len(data), zlib.crc32(data)))
        held = {a.code for a in before.assignments if a.artifact_id == "R1"}
        code = min(set(before.taxonomy.nodes) - held)
        assert cli.main(["--repo", old_path, "assign", "R1", code]) == 0
        assert capsys.readouterr().err == ""
        after = load_repository(old_path)
        assert json.loads(read(old_path))["schema_version"] == 3
        assert read(old_path) == canonical(old_path)
        assert read(sidecar(old_path)) == store._stamp(read(old_path))
        assert after.edit_log[:len(before.edit_log)] == before.edit_log
        assert after.edit_log[len(before.edit_log):] == [
            linkage.EditRecord(linkage.ADD, linkage.TAXONOMIC, ("R1", code), "assign")]
        assert linkage.replay_edit_log(after.edit_log) == live_pairs(after)
        assert (after.artifacts, after.taxonomy) == (before.artifacts, before.taxonomy)


# The classes of ``CANONICAL_TAXONOMY_CSV`` and 0A, whose parent 63FH sorts after it.
LATE_PARENT_CSV = os.path.join(os.path.dirname(__file__), "data", "late_parent.csv")
# Artifact ids whose JSON needs an escape (a quote, a backslash, a control
# character) or that a save writes as they are (non-ASCII, above U+FFFF).
ODD_IDS = ['R"q', "R\\b", "R\x07", "Rü–1", "R\U0001F600"]
JUDGED_IDS = st.sampled_from(["R1", "T5", "NOPE", *ODD_IDS])
JUDGED_CODES = st.sampled_from(["63FH", "63fh -", "1", "18B", "99ZZ"])
# Part ids that sort before every stored artifact, between two, just
# before the last, after all (two by two), that are stored already, or
# whose JSON needs an escape or holds non-ASCII text; and parts without a
# colon or without an id.
PART_IDS = st.sampled_from(["A0", "R1a", "R1b", "R4x", "T4x", "Z8", "Z9", "R3", "T5",
                            'P"q', "P\\b", "P\x07", "Pü–1", "P\U0001F600"])
PARTS = st.one_of(
    st.builds(lambda i, codes: f"{i}:{','.join(codes)}", PART_IDS,
              st.lists(JUDGED_CODES, max_size=2)),
    st.sampled_from(["R1c", ":1"]),
)
NAMED_EDITS = st.one_of(
    st.builds(lambda i, c: ["assign", i, c], JUDGED_IDS, JUDGED_CODES),
    st.builds(lambda i, c: ["unassign", i, c], JUDGED_IDS, JUDGED_CODES),
    st.builds(lambda i, category, note: ["mark-unclassifiable", i, category]
              + (["--note", note] if note else []),
              JUDGED_IDS, st.sampled_from(["vagueness", "compound"]),
              st.sampled_from([None, "why – ✓", 'a "quoted" note'])),
    st.builds(lambda i, parts: ["split", i, *[arg for part in parts for arg in ("--part", part)]],
              JUDGED_IDS, st.lists(PARTS, min_size=1, max_size=3)),
)


def sidecar_bytes(path):
    """The sidecar's bytes; none when it is absent."""
    return read(sidecar(path)) if os.path.exists(sidecar(path)) else b""


class TestOneArtifactEdits:
    """``assign``, ``unassign``, ``mark-unclassifiable`` and ``split`` load the
    records of the artifacts they name under a stamp that vouches for the
    file, and splice them back: what they print and write is what a full
    load, the same edit and a full encode give."""

    @seed(26)
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.booleans(), st.sets(st.sampled_from(ODD_IDS)),
           st.lists(NAMED_EDITS, min_size=1, max_size=8))
    @example(False, set(), [["mark-unclassifiable", "T5", "vagueness"], ["assign", "R1", "1"]])
    @example(True, set(), [
        ["assign", "R1", "63FH"], ["assign", "R1", "63fh -"], ["assign", "NOPE", "1"],
        ["assign", "R1", "99ZZ"], ["unassign", "R1", "63FH"], ["unassign", "R1", "63FH"],
        ["mark-unclassifiable", "R1", "vagueness"],
        ["mark-unclassifiable", "R1", "compound", "--note", "why – ✓"]])
    @example(True, {"Rü–1", "R\U0001F600"}, [
        ["assign", "Rü–1", "1"], ["assign", "R\U0001F600", "1"], ["unassign", "Rü–1", "1"],
        ["mark-unclassifiable", "R\U0001F600", "compound"],
        ["mark-unclassifiable", "R\U0001F600", "vagueness"]])
    @example(True, set(ODD_IDS), [
        ["assign", 'R"q', "1"], ["mark-unclassifiable", "R\\b", "vagueness"],
        ["unassign", "R\x07", "1"], ["assign", "R\x07", "18B"]])
    # Parts before the first artifact, between two, just before and after
    # the last, and two or three at one place; a part stored already or
    # named twice; a --part without a colon; an unknown code; a code left
    # unallocated (a warning).
    @example(True, set(), [
        ["split", "R1", "--part", "A0:18B", "--part", "R1a:18B,1"],
        ["split", "T4", "--part", "T4x:31B", "--part", "T4y:31B"],
        ["split", "T5", "--part", "Z8:32GDC", "--part", "Z9:32GDC"],
        ["split", "R2", "--part", "R2b:2", "--part", "R2a:2", "--part", "R2c:"],
        ["split", "R3", "--part", "R3:3", "--part", "R3x:3"],
        ["split", "R3", "--part", "R3x:3", "--part", "T5:3"],
        ["split", "R4", "--part", "R4a:31", "--part", "R4a:31"],
        ["split", "R4", "--part", "R4a", "--part", "R4b:31"],
        ["split", "R4", "--part", "R4a:99ZZ", "--part", "R4b:31"],
        ["split", "R4", "--part", "R4a:1", "--part", "R4b:"],
        ["split", "NOPE", "--part", "N1:1", "--part", "N2:1"]])
    @example(False, set(), [
        ["split", "R1", "--part", "A0:1", "--part", "Z9:63fh -"],
        ["split", "Z9", "--part", "Z9a:63FH", "--part", "Z9b:1"]])
    # Part ids whose JSON needs an escape, or that hold non-ASCII text, and
    # a split of such an id.
    @example(True, {"Rü–1", "R\U0001F600"}, [
        ["split", "R\U0001F600", "--part", "Pü–1:1", "--part", "P\U0001F600:1"],
        ["split", "Rü–1", "--part", "Rü–1a:1", "--part", "Rü–1b:"]])
    @example(True, set(ODD_IDS), [
        ["split", "R1", "--part", 'P"q:18B', "--part", "P\\b:18B"],
        ["split", 'R"q', "--part", "P\x07:1", "--part", "R\x07a:1"]])
    # A deep class, given padded; a class whose parent's row comes after its
    # own; splits whose parts get classes that no loaded assignment names.
    @example(True, set(), [
        ["assign", "R1", "31b -"], ["assign", "T5", "31B"], ["unassign", "R1", "31B"],
        ["import", "taxonomy", LATE_PARENT_CSV], ["assign", "R1", "0a"], ["assign", "R2", "0A"],
        ["unassign", "R1", "0A"], ["split", "R1", "--part", "R1a:31B,63N", "--part", "R1b:0A"]])
    @example(False, set(), [
        ["split", "R2", "--part", "R2a:63N", "--part", "R2b:31b-"],
        ["split", "R2a", "--part", "R2c:63FH,3", "--part", "R2d:"]])
    def test_every_sidecar_state_prints_and_writes_alike(self, linked, stored, commands):
        # Without links, the file's assignments and log are empty lists.
        repo = starting_repo()
        if linked:
            linkage.mark_unclassifiable(repo, "T5", "vagueness", now=NOW)
        else:
            repo.assignments.clear()
            repo.edit_log.clear()
        for i, artifact_id in enumerate(sorted(stored)):
            add_artifact(repo, Artifact(id=artifact_id, kind="requirement", title=f"Odd {i}"))
            if linked:
                linkage.assign(repo, artifact_id, "1", now=NOW)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, TTL_NOW=NOW):
            paths = {state: os.path.join(tmp, f"{i}.json")
                     for i, state in enumerate((VOUCHING, STALE_STAMP, NO_SIDECAR))}
            for path in paths.values():
                save_repository(repo, path)
            for argv in commands:
                seen = {}
                for state, path in paths.items():
                    if state == STALE_STAMP:
                        with open(sidecar(path), "wb") as f:
                            f.write(store._stamp(read(path) + b" "))
                    elif state == NO_SIDECAR and os.path.exists(sidecar(path)):
                        os.unlink(sidecar(path))
                    before = read(path), sidecar_bytes(path)
                    if state == VOUCHING:
                        assert before[1] == store._stamp(before[0])
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(["--repo", path, "--format", "json", *argv])
                    after = read(path), sidecar_bytes(path)
                    if code == 0:
                        assert after[1] == store._stamp(after[0]), (state, argv)
                    else:
                        assert after == before, (state, argv)
                    seen[state] = code, out.getvalue(), err.getvalue(), after[0]
                assert seen[VOUCHING] == seen[STALE_STAMP] == seen[NO_SIDECAR], argv
                assert seen[VOUCHING][3] == canonical(paths[NO_SIDECAR]), argv

    forge = TestVouchedReads.forge

    def test_a_stamp_vouches_for_the_records_of_other_artifacts(self, marked_path, capsys):
        # A forged stamp is believed for every record the edit does not
        # load: they are copied, and covered by the new stamp.
        self.forge(marked_path, b'["R2", "requirement"', b'["R2", "widget"')
        assert run_cli(marked_path, ["assign", "R1", "63FH"], capsys) == 0
        assert b'["R2", "widget"' in read(marked_path)
        assert read(sidecar(marked_path)) == store._stamp(read(marked_path))
        assert cli.main(["--repo", marked_path, "validate"]) == 2
        assert capsys.readouterr().err == "error: artifacts[2]: unknown artifact kind 'widget'\n"

    R1_LINK = b'["R1", "18B", "manual", "confirmed", null, "2026-01-15T09:00:00+00:00"]'
    CLASS_1 = b'["1", "Compound building components", null, [], null],\n'
    CLASS_63FH = b'["63FH", "Emergency lighting", null, [], null],\n'

    ASSIGN = ["assign", "R1", "63FH"]

    @pytest.mark.parametrize("old, new, argv", [
        (b'["R1", "requirement"', b'["R1", "widget"', ASSIGN),
        (R1_LINK, R1_LINK.replace(b'"confirmed"', b'"maybe"'), ASSIGN),
        (R1_LINK, R1_LINK.replace(b'"18B"', b'"99ZZ"'), ASSIGN),
        (R1_LINK, R1_LINK.replace(b'00:00"]', b'00:00", "R2"]'), ASSIGN),
        # A split's parts are placed by comparing their ids with stored ones,
        # those on either side of their place among them: R1a goes before R2.
        (b'["R2", "requirement"', b'[2, "requirement"', ["split", "R1", "--part", "R1a:18B", "--part", "R1b:"]),
        # A line written twice, of its artifact, of the class it assigns or
        # of an ancestor of the class of its assignment (18B, below 1).
        (TestVouchedReads.R1_LINE, TestVouchedReads.R1_LINE * 2, ASSIGN),
        (CLASS_63FH, CLASS_63FH * 2, ASSIGN),
        (CLASS_1, CLASS_1 * 2, ASSIGN),
    ], ids=["its artifact", "its assignment", "its assignment's code",
            "an assignment with a value past its last column", "a stored id a part is placed by",
            "its artifact twice", "its class twice", "an ancestor class twice"])
    def test_a_fault_in_a_record_it_loads_is_reported_as_a_full_load_does(
            self, marked_path, tmp_path, capsys, old, new, argv):
        self.forge(marked_path, old, new)
        control = str(tmp_path / "control.json")
        with open(control, "wb") as f:
            f.write(read(marked_path))
        start = read(marked_path), read(sidecar(marked_path))
        seen = outcome(marked_path, argv, capsys)
        assert seen == outcome(control, argv, capsys)
        assert read(marked_path) == read(control)
        if seen[0][0] != 0:
            assert (read(marked_path), read(sidecar(marked_path))) == start

    def test_a_stamp_vouches_for_the_classes_an_edit_does_not_load(self, marked_path, capsys):
        # Assigning 63FH to R1, which holds 18B, loads 63FH, 18B and 1 alone.
        self.forge(marked_path, b'["32QD", "Fences", ', b'["32QD", " ", ')
        assert run_cli(marked_path, self.ASSIGN, capsys) == 0
        assert b'["32QD", " ", ' in read(marked_path)
        assert read(sidecar(marked_path)) == store._stamp(read(marked_path))
        assert cli.main(["--repo", marked_path, "validate"]) == 2
        assert capsys.readouterr().err == "error: nodes[7]: empty title for code '32QD'\n"

    @pytest.mark.parametrize("line", [b'["Z0", "requirement", "Unlinked"',
                                      b'["63FH", "Emergency lighting"',
                                      b'"Unlinked", null', b'"Emergency lighting", null'],
                             ids=["its artifact", "a class", "inside its artifact's line",
                                  "inside a class's row"])
    def test_a_hand_spaced_line_it_loads_is_encoded_again(self, marked_path, capsys, line):
        # Z0 has no links, so only the check of its own line sees the spacing.
        with store.editing(marked_path) as repo:
            add_artifact(repo, Artifact(id="Z0", kind="requirement", title="Unlinked"))
        self.forge(marked_path, line, line.replace(b", ", b",", 1))
        assert run_cli(marked_path, ["assign", "Z0", "63FH"], capsys) == 0
        assert read(marked_path) == canonical(marked_path)

    def test_without_codes_every_class_is_loaded_and_checked(self, marked_path):
        # The splice would copy a class row spaced by hand; the full save encodes it again.
        self.forge(marked_path, b'"Emergency lighting", null', b'"Emergency lighting",null')
        with store.editing(marked_path, ("R1",)) as repo:
            assert len(repo.taxonomy.nodes) == 11
            linkage.assign(repo, "R1", "63N", now=NOW)
        assert read(marked_path) == canonical(marked_path)

    @pytest.mark.parametrize("change", ["artifact", "assignment"])
    def test_a_field_set_in_place_is_saved(self, marked_path, change):
        with store.editing(marked_path, ("R1",)) as repo:
            assert list(repo.artifacts) == ["R1"]
            if change == "artifact":
                repo.artifacts["R1"].title = "Set in place"
            else:
                repo.assignments[0].note = "set in place"
        saved = load_repository(marked_path)
        if change == "artifact":
            assert saved.artifacts["R1"].title == "Set in place"
        else:
            assert [a.note for a in saved.assignments if a.artifact_id == "R1"] == ["set in place"]
        assert read(marked_path) == canonical(marked_path)

    @pytest.mark.parametrize("ids, edit", [
        (("R1",), lambda repo: add_artifact(repo, Artifact(id="Z9", kind="requirement",
                                                           title="z"))),
        (("R1",), lambda repo: repo.artifacts.pop("R1")),
        (("R1",), lambda repo: repo.assignments.pop()),
        (("R1",), lambda repo: repo.assignments.append(dataclasses.replace(
            repo.assignments[0], artifact_id="R2", code="3"))),
        (("R1",), lambda repo: repo.taxonomy.nodes.pop("63N")),
        # R1a is named and absent, so it may be added; Z9 is not named.
        (("R1", "R1a"), lambda repo: [add_artifact(repo, Artifact(id=i, kind="requirement",
                                                                  title="z"))
                                      for i in ("R1a", "Z9")]),
    ], ids=["another artifact", "its artifact removed", "an assignment removed",
            "another artifact's assignment", "a class removed",
            "an artifact it did not name, beside one it did"])
    def test_a_change_to_other_records_is_refused(self, marked_path, ids, edit):
        start = read(marked_path), read(sidecar(marked_path))
        with pytest.raises(ValueError) as caught:
            with store.editing(marked_path, ids) as repo:
                assert list(repo.artifacts) == ["R1"]
                edit(repo)
        assert str(caught.value) == "an edit of artifact 'R1' changed other records"
        assert (read(marked_path), read(sidecar(marked_path))) == start

    set_sidecar = TestVouchedReads.set_sidecar

    @pytest.mark.parametrize("state", [VOUCHING, STALE_STAMP, NO_SIDECAR])
    def test_a_split_of_an_archived_artifact_is_refused(self, repo_path, capsys, state):
        # The first split archives R1; a second, with other parts, is refused.
        assert run_cli(repo_path, ["split", "R1", "--part", "R1a:18B", "--part", "R1b:"],
                       capsys) == 0
        self.set_sidecar(repo_path, state)
        start = read(repo_path), sidecar_bytes(repo_path)
        code = cli.main(["--repo", repo_path, "split", "R1", "--part", "R1c:18B",
                         "--part", "R1d:"])
        assert (code, capsys.readouterr().err) == (2, "error: artifact 'R1' is archived\n")
        assert (read(repo_path), sidecar_bytes(repo_path)) == start


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
        # The lock died with the writer, and a stale sidecar costs one full load.
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
        reads = (["trace", "R1"], ["validate"], ["coverage", "--from", "requirement"],
                 ["suggest", "R1"])
        stamp = read(sidecar(repo_path))
        for argv in reads:
            assert run_cli(repo_path, argv, capsys) == 0
        assert read(sidecar(repo_path)) == stamp == store._stamp(read(repo_path))
        os.unlink(sidecar(repo_path))
        for argv in reads:
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


@pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
def collector(request):
    """The cyclic garbage collector's state before the test, as the caller set it."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


class TestCollectorState:
    """Loads and commands pause the cyclic collector and leave it as they found it."""

    @pytest.mark.parametrize("argv, code", [
        (["trace", "R1"], 0),
        (["assign", "R1", "63FH"], 0),
        (["trace", "NOPE"], 2),
        (["assign", "NOPE", "63FH"], 2),
    ], ids=["read", "edit", "read of an unknown artifact", "edit of an unknown artifact"])
    def test_command(self, repo_path, capsys, collector, argv, code):
        assert run_cli(repo_path, argv, capsys) == code
        assert gc.isenabled() is collector

    def test_command_on_a_locked_repository(self, repo_path, capsys, collector):
        fd = os.open(sidecar(repo_path), os.O_RDWR | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert run_cli(repo_path, ["assign", "R1", "63FH"], capsys) == 2
        finally:
            os.close(fd)
        assert gc.isenabled() is collector

    def test_load_of_a_malformed_file(self, repo_path, collector):
        doc = json.loads(read(repo_path))
        doc["assignments"][1][3] = "maybe"  # the status of the first row after the header
        with open(repo_path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        with pytest.raises(MalformedRecord):
            load_repository(repo_path)
        assert gc.isenabled() is collector

    def test_read_handlers_run_paused_and_edit_handlers_do_not(self, repo_path, capsys,
                                                                monkeypatch, collector):
        # An edit handler runs as the caller left the collector: pausing it
        # too raised the edit benchmark's peak RSS by about 4%.
        seen = {}

        def spy(handler):
            def run(args, repo):
                seen[handler.__name__] = gc.isenabled()
                return handler(args, repo)
            return run

        for name in ("cmd_validate", "cmd_assign"):
            monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
        assert run_cli(repo_path, ["validate"], capsys) == 0
        assert run_cli(repo_path, ["assign", "R1", "63FH"], capsys) == 0
        assert seen == {"cmd_validate": False, "cmd_assign": collector}
