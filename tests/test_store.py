"""Repository storage: filtering, canonical persistence, ingestion."""

import dataclasses
import json
import os
import random
import stat
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import oracles
from conftest import (CANONICAL_TAXONOMY_CSV, NOW, keyed_document, random_repo, schema_1_text,
                      tax_from_parents)
from test_editing import REFUSED_VALUES, WRONG_TYPES
from taxtrace import cli, linkage, store, taxonomy
from taxtrace.errors import (
    CycleDetected,
    DuplicateCode,
    DuplicateId,
    MalformedRecord,
    ReferentialIntegrityError,
    RepositoryIOError,
    SchemaVersionMismatch,
    TaxTraceError,
    UnknownId,
    UnknownParent,
)
from taxtrace.store import (
    Artifact,
    add_artifact,
    deserialize_repository,
    get_artifact,
    list_artifacts,
    load_repository,
    new_repository,
    read_artifacts_jsonl,
    read_design_objects_csv,
    save_repository,
    serialize_repository,
)
from taxtrace.taxonomy import Taxonomy, TaxonomyNode


def mixed_fixture(canon_tax):
    repo = new_repository(canon_tax)
    kinds = [
        "requirement", "design-object", "test-case", "source-unit",
        "compliance-clause", "design-object", "requirement", "test-case",
        "design-object", "source-unit",
    ]
    for i, kind in enumerate(kinds):
        add_artifact(repo, Artifact(id=f"M{i}", kind=kind, title=f"Mixed {i}"))
    return repo


class TestArtifacts:
    def test_add_then_get_returns_same_record(self, canon_tax):
        repo = new_repository(canon_tax)
        artifact = Artifact(id="R3", kind="requirement", title="Gate width",
                            body="width of at least 25m")
        add_artifact(repo, artifact)
        assert get_artifact(repo, "R3") is artifact

    def test_duplicate_id_rejected(self, canon_tax):
        repo = new_repository(canon_tax)
        add_artifact(repo, Artifact(id="X", kind="requirement", title="One"))
        with pytest.raises(DuplicateId):
            add_artifact(repo, Artifact(id="X", kind="test-case", title="Two"))

    def test_unknown_id(self, canon_tax):
        with pytest.raises(UnknownId):
            get_artifact(new_repository(canon_tax), "NOPE")

    def test_unknown_kind_rejected(self, canon_tax):
        with pytest.raises(ValueError):
            add_artifact(new_repository(canon_tax),
                         Artifact(id="X", kind="sculpture", title="No"))

    def test_list_empty_repo(self, canon_tax):
        assert list_artifacts(new_repository(canon_tax)) == []

    def test_list_kind_filter_matches_linear_scan(self, canon_tax):
        repo = mixed_fixture(canon_tax)
        got = list_artifacts(repo, kind="design-object")
        expected = sorted(
            (a for a in repo.artifacts.values() if a.kind == "design-object"),
            key=lambda a: a.id,
        )
        assert got == expected
        assert len(got) == 3

    def test_list_is_ordered_by_id(self, canon_tax):
        repo = mixed_fixture(canon_tax)
        ids = [a.id for a in list_artifacts(repo)]
        assert ids == sorted(ids)


# Strings that imitate the file's own layout, or need escaping.
TRICKY = ('}, {', '"},\n{"', 'a "quoted" word', 'back\\slash \\"', 'two\nlines\r\n',
          'Brücke – 橋 ✓', '],\n"edit_log": [')


def tricky_repo(rng):
    """A seeded repository with tricky text in every kind of record."""
    def text():
        return "<" + "".join(rng.choice(TRICKY) for _ in range(rng.randint(1, 3))) + ">"

    tax = tax_from_parents(oracles.random_forest(rng, rng.randint(1, 12)))
    for code, node in tax.nodes.items():
        tax.nodes[code] = dataclasses.replace(
            node, title=text(), description=text(), synonyms=[text(), text()])
    repo = new_repository(tax)
    ids = [f"{text()}{i}" for i in range(rng.randint(1, 8))]
    for artifact_id in ids:
        add_artifact(repo, Artifact(
            id=artifact_id, kind="requirement", title=text(), body=text(),
            attrs={text(): text()}, document=text(), version=text(),
        ))
        linkage.assign(repo, artifact_id, rng.choice(sorted(tax.nodes)), now=NOW)
    linkage.unassign(repo, ids[0], repo.assignments[0].code, now=NOW)
    linkage.mark_unclassifiable(repo, ids[-1], "vagueness", note=text(), now=NOW)
    return repo


SECTIONS = {'"artifacts": [': "artifacts", '"assignments": [': "assignments",
            '"edit_log": [': "edit_log", '"taxonomy": [': "taxonomy"}


def record_lines(text):
    """The lines between each section's opening and closing line: its header row, then its records."""
    found, current = {}, None
    for line in text.split("\n"):
        if current is None:
            current = SECTIONS.get(line)
            if current is not None:
                found[current] = []
        elif line in ("],", "]"):
            current = None
        else:
            found[current].append(line)
    return found


class TestPersistence:
    def test_save_then_load_is_structurally_equal(self, sampled_repo, tmp_path):
        path = tmp_path / "repo.json"
        save_repository(sampled_repo, path)
        loaded = load_repository(path)
        assert serialize_repository(loaded) == serialize_repository(sampled_repo)

    def test_two_saves_are_byte_identical(self, sampled_repo, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_repository(sampled_repo, a)
        save_repository(sampled_repo, b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_bytes_on_random_repos(self):
        rng = random.Random(99)
        for _ in range(10):
            repo = random_repo(rng, max_artifacts=40, max_assignments=80)
            text = serialize_repository(repo)
            assert serialize_repository(deserialize_repository(text)) == text

    def test_missing_file(self, tmp_path):
        with pytest.raises(RepositoryIOError):
            load_repository(tmp_path / "absent.json")

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(RepositoryIOError):
            load_repository(path)

    def test_schema_version_mismatch(self, sampled_repo):
        doc = json.loads(serialize_repository(sampled_repo))
        doc["schema_version"] = 99
        with pytest.raises(SchemaVersionMismatch):
            deserialize_repository(json.dumps(doc))

    @pytest.mark.parametrize("version", [0, 4, True, "2", None])
    def test_unsupported_schema_versions_are_rejected(self, sampled_repo, version):
        doc = json.loads(serialize_repository(sampled_repo))
        doc["schema_version"] = version
        with pytest.raises(SchemaVersionMismatch):
            deserialize_repository(json.dumps(doc))

    def test_schema_1_file_loads_and_is_saved_as_schema_3(self, sampled_repo, tmp_path):
        rng = random.Random(12)
        repos = [sampled_repo, new_repository()]
        repos += [tricky_repo(rng) for _ in range(5)]
        repos += [random_repo(rng, max_artifacts=40, max_assignments=80) for _ in range(5)]
        path = tmp_path / "repo.json"
        for repo in repos:
            old = schema_1_text(repo)
            path.write_text(old, encoding="utf-8")
            save_repository(load_repository(path), path)
            saved = path.read_text(encoding="utf-8")
            assert saved == serialize_repository(repo)
            assert keyed_document(load_repository(path), 1) == json.loads(old)

    def test_each_record_is_one_line(self):
        rng = random.Random(21)
        for _ in range(30):
            repo = tricky_repo(rng)
            text = serialize_repository(repo)
            doc = json.loads(text)
            found = record_lines(text)
            assert set(found) == {"artifacts", "assignments", "edit_log", "taxonomy"}
            for name, lines in found.items():
                header, *records = doc[name]
                assert lines[0] == json.dumps(header) + ("," if records else "")
                assert [json.loads(line.removesuffix(",")) for line in lines] == doc[name]
                assert [line.removesuffix(",") for line in lines] == [
                    json.dumps(row, ensure_ascii=False) for row in doc[name]]
                assert all(line.endswith("],") for line in lines[:-1])
                assert lines[-1].endswith("]") and not lines[-1].endswith("],")
            assert serialize_repository(deserialize_repository(text)) == text

    def test_an_empty_section_is_its_header_row_alone(self):
        assert serialize_repository(new_repository()) == (
            '{\n"artifacts": [\n["id", "kind", "title", "body", "attrs", "document", "version", '
            '"archived"]\n],\n'
            '"assignments": [\n["artifact_id", "code", "provenance", "status", "note", '
            '"created_at"]\n],\n'
            '"edit_log": [\n["op", "link_kind", "endpoints", "cause"]\n],\n'
            '"schema_version": 3,\n'
            '"taxonomy": [\n["code", "title", "description", "synonyms", "parent"]\n]\n}\n'
        )

    @pytest.mark.parametrize("failure, raised", [
        (OSError("disk full"), RepositoryIOError),
        (KeyboardInterrupt(), KeyboardInterrupt),
    ])
    def test_failed_replace_keeps_the_old_file(self, sampled_repo, tmp_path, monkeypatch,
                                               failure, raised):
        path, sidecar = tmp_path / "repo.json", tmp_path / "repo.json.lock"
        save_repository(new_repository(), path)
        before = path.read_bytes()
        stamp = sidecar.read_bytes()
        assert stamp == store._stamp(before)

        def refuse(src, dst):
            raise failure

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(raised):
            save_repository(sampled_repo, path)
        assert path.read_bytes() == before
        assert sidecar.read_bytes() == stamp
        assert sorted(os.listdir(tmp_path)) == ["repo.json", "repo.json.lock"]
        monkeypatch.undo()
        save_repository(sampled_repo, path)
        assert path.read_text(encoding="utf-8") == serialize_repository(sampled_repo)
        assert sidecar.read_bytes() == store._stamp(path.read_bytes())
        assert sorted(os.listdir(tmp_path)) == ["repo.json", "repo.json.lock"]

    def test_save_fsyncs_the_directory_after_the_rename(self, sampled_repo, tmp_path,
                                                        monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            directory = stat.S_ISDIR(info.st_mode)
            events.append(("fsync", directory, directory and info.st_ino == tmp_path.stat().st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace",))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_repository(sampled_repo, tmp_path / "repo.json")
        assert events == [("fsync", False, False), ("replace",), ("fsync", True, True)]

    def test_save_follows_symlink_and_keeps_mode(self, sampled_repo, tmp_path):
        real, link = tmp_path / "real.json", tmp_path / "repo.json"
        save_repository(new_repository(), real)
        os.chmod(real, 0o600)
        link.symlink_to(real)
        save_repository(sampled_repo, link)
        assert link.is_symlink()
        assert stat.S_IMODE(real.stat().st_mode) == 0o600
        assert real.read_text(encoding="utf-8") == serialize_repository(sampled_repo)
        assert sorted(os.listdir(tmp_path)) == ["real.json", "real.json.lock", "repo.json"]
        assert (tmp_path / "real.json.lock").read_bytes() == store._stamp(real.read_bytes())

    def test_a_sidecar_that_cannot_be_written_does_not_fail_the_save(self, sampled_repo,
                                                                     tmp_path):
        path = tmp_path / "repo.json"
        (tmp_path / "repo.json.lock").mkdir()
        save_repository(sampled_repo, path)
        assert path.read_text(encoding="utf-8") == serialize_repository(sampled_repo)
        assert load_repository(path) == store.read_sections(path, ("taxonomy", "artifacts",
                                                                   "assignments"))

    def test_assignment_to_missing_artifact_names_it(self, canon_tax):
        repo = new_repository(canon_tax)
        add_artifact(repo, Artifact(id="R1", kind="requirement", title="R1"))
        linkage.assign(repo, "R1", "18B", now=NOW)
        doc = json.loads(serialize_repository(repo))
        doc["artifacts"] = doc["artifacts"][:1]  # the header row alone
        with pytest.raises(ReferentialIntegrityError, match="R1"):
            deserialize_repository(json.dumps(doc))

    def test_assignment_to_missing_code(self, canon_tax):
        repo = new_repository(canon_tax)
        add_artifact(repo, Artifact(id="R1", kind="requirement", title="R1"))
        linkage.assign(repo, "R1", "18B", now=NOW)
        doc = json.loads(serialize_repository(repo))
        doc["taxonomy"] = doc["taxonomy"][:1]  # the header row alone
        with pytest.raises(ReferentialIntegrityError, match="18B"):
            deserialize_repository(json.dumps(doc))

    @pytest.mark.parametrize("taxonomy, error", [
        ({"nodes": [{"code": "18B", "title": "Tunnels", "colour": "red"}]}, MalformedRecord),
        ({"nodes": [{"code": "18B", "title": "  "}]}, MalformedRecord),
        ({"nodes": {"18B": {"title": "Tunnels"}}}, MalformedRecord),
        ({"nodes": [{"code": "18B", "title": "Tunnels", "parent": "1"}]}, UnknownParent),
        ({"nodes": [{"code": "A", "title": "Alpha", "parent": "B"},
                    {"code": "B", "title": "Beta", "parent": "A"}]}, CycleDetected),
        ({"nodes": [{"code": "A", "title": "Alpha"},
                    {"code": "a--", "title": "Alpha too"}]}, DuplicateCode),
    ])
    def test_stored_taxonomy_is_validated(self, canon_tax, taxonomy, error):
        doc = keyed_document(new_repository(canon_tax))
        doc["taxonomy"] = taxonomy
        with pytest.raises(error):
            deserialize_repository(json.dumps(doc))

    def test_serialization_ends_with_newline_and_sorted_keys(self, sampled_repo):
        text = serialize_repository(sampled_repo)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == sorted(doc)


def base_repo():
    """A small valid repository: three artifacts, two links, one marker, two log entries."""
    repo = new_repository(taxonomy.parse_taxonomy(
        "code,parent,title,description,synonyms\nA,,Alpha,,\nB,A,Beta,,\n"))
    add_artifact(repo, Artifact(id="R1", kind="requirement", title="One"))
    add_artifact(repo, Artifact(id="R2", kind="requirement", title="Two"))
    add_artifact(repo, Artifact(id="R3", kind="requirement", title="Three"))
    linkage.assign(repo, "R1", "A", now=NOW)
    linkage.assign(repo, "R2", "B", now=NOW)
    linkage.mark_unclassifiable(repo, "R3", "vagueness", now=NOW)
    return repo


def base_doc():
    """``base_repo``'s schema-2 document.

    Its records are keyed objects, which a load turns into rows and
    decodes as it decodes a schema-3 file's rows.
    """
    return keyed_document(base_repo())


def load_error(doc):
    with pytest.raises(Exception) as info:
        deserialize_repository(json.dumps(doc))
    return type(info.value), str(info.value)


DROP = object()


def patched(record, **changes):
    """``record`` with ``changes`` applied; a value of ``DROP`` removes the key."""
    out = dict(record)
    for key, value in changes.items():
        if value is DROP:
            out.pop(key, None)
        else:
            out[key] = value
    return out


# Each case replaces the record at index 1 of its list; a plain value
# replaces it whole, a dict of changes patches the valid record.
ARTIFACT_REJECTS = [
    ("x", "artifacts[1]: expected an object"),
    (None, "artifacts[1]: expected an object"),
    ({"id": DROP}, "artifacts[1]: missing or non-string 'id'"),
    ({"id": 5}, "artifacts[1]: missing or non-string 'id'"),
    ({"kind": DROP}, "artifacts[1]: missing or non-string 'kind'"),
    ({"kind": ["requirement"]}, "artifacts[1]: missing or non-string 'kind'"),
    ({"title": None}, "artifacts[1]: missing or non-string 'title'"),
    ({"id": 5, "kind": 6, "title": 7}, "artifacts[1]: missing or non-string 'id'"),
    ({"kind": "poem"}, "artifacts[1]: unknown artifact kind 'poem'"),
    ({"kind": "poem", "attrs": [1]}, "artifacts[1]: unknown artifact kind 'poem'"),
    ({"attrs": [1]}, "artifacts[1]: attrs must be an object"),
    ({"attrs": "a=b"}, "artifacts[1]: attrs must be an object"),
    ({"archived": "false"}, "artifacts[1]: archived must be true or false"),
    ({"archived": 0}, "artifacts[1]: archived must be true or false"),
    ({"archived": None}, "artifacts[1]: archived must be true or false"),
    ({"body": 5}, "artifacts[1]: body must be a string or null"),
    ({"document": []}, "artifacts[1]: document must be a string or null"),
    ({"version": {"v": 1}}, "artifacts[1]: version must be a string or null"),
    ({"attrs": [1], "archived": "no"}, "artifacts[1]: attrs must be an object"),
    ({"attrs": {"a": None}}, "artifacts[1]: attr 'a' must be a string, number or boolean"),
    ({"attrs": {"a": "x", "b": [1]}},
     "artifacts[1]: attr 'b' must be a string, number or boolean"),
    ({"attrs": {"a": {"c": "d"}}}, "artifacts[1]: attr 'a' must be a string, number or boolean"),
    ({"colour": "red"}, "artifacts[1]: unknown fields ['colour']"),
    ({"kind": "poem", "z": 1, "a": 2}, "artifacts[1]: unknown fields ['a', 'z']"),
]

ASSIGNMENT_REJECTS = [
    (7, "assignments[1]: expected an object"),
    ({"artifact_id": DROP}, "assignments[1]: missing artifact_id"),
    ({"artifact_id": 1, "provenance": "robot"}, "assignments[1]: missing artifact_id"),
    ({"provenance": "robot"}, "assignments[1]: unknown provenance 'robot'"),
    ({"provenance": DROP}, "assignments[1]: unknown provenance None"),
    ({"provenance": "robot", "status": "maybe"}, "assignments[1]: unknown provenance 'robot'"),
    ({"status": "maybe"}, "assignments[1]: unknown status 'maybe'"),
    ({"status": 1}, "assignments[1]: unknown status 1"),
    ({"code": 5}, "assignments[1]: code must be a string or null"),
    ({"code": None}, "assignments[1]: code must be null exactly for unclassifiable status"),
    ({"code": "A", "status": "unclassifiable"},
     "assignments[1]: code must be null exactly for unclassifiable status"),
    ({"provenance": []}, "assignments[1]: unknown provenance []"),
    ({"status": {"a": 1}}, "assignments[1]: unknown status {'a': 1}"),
    ({"note": ["x"]}, "assignments[1]: note must be a string or null"),
    ({"note": 5}, "assignments[1]: note must be a string or null"),
    ({"note": False, "created_at": 0}, "assignments[1]: note must be a string or null"),
    ({"created_at": 0}, "assignments[1]: created_at must be a string or null"),
    ({"created_at": {"t": 1}}, "assignments[1]: created_at must be a string or null"),
    ({"artifact": "R1"}, "assignments[1]: unknown fields ['artifact']"),
]

EDIT_LOG_REJECTS = [
    ([], "edit_log[1]: expected an object"),
    ({"op": "move"}, "edit_log[1]: unknown op 'move'"),
    ({"op": DROP}, "edit_log[1]: unknown op None"),
    ({"op": ["add"]}, "edit_log[1]: unknown op ['add']"),
    ({"op": "move", "link_kind": "x"}, "edit_log[1]: unknown op 'move'"),
    ({"link_kind": "x"}, "edit_log[1]: unknown link_kind 'x'"),
    ({"link_kind": {}}, "edit_log[1]: unknown link_kind {}"),
    ({"endpoints": "R1"}, "edit_log[1]: endpoints must be a pair of strings"),
    ({"endpoints": ["R1"]}, "edit_log[1]: endpoints must be a pair of strings"),
    ({"endpoints": ["R1", "A", "B"]}, "edit_log[1]: endpoints must be a pair of strings"),
    ({"endpoints": ["R1", None]}, "edit_log[1]: endpoints must be a pair of strings"),
    ({"endpoints": DROP}, "edit_log[1]: endpoints must be a pair of strings"),
    ({"cause": ["x"]}, "edit_log[1]: cause must be a string or null"),
    ({"cause": 0}, "edit_log[1]: cause must be a string or null"),
    ({"cause": True}, "edit_log[1]: cause must be a string or null"),
    ({"op": "move", "at": NOW}, "edit_log[1]: unknown fields ['at']"),
]

NODE_REJECTS = [
    ([1], MalformedRecord, "nodes[1]: expected an object"),
    ({"colour": "red"}, MalformedRecord, "nodes[1]: unknown fields ['colour']"),
    ({"title": DROP, "z": 1, "a": 2}, MalformedRecord, "nodes[1]: unknown fields ['a', 'z']"),
    ({"code": DROP}, MalformedRecord, "nodes[1]: 'code' and 'title' are required"),
    ({"code": None}, MalformedRecord, "nodes[1]: 'code' and 'title' are required"),
    ({"title": None}, MalformedRecord, "nodes[1]: 'code' and 'title' are required"),
    ({"synonyms": ["s", None]}, MalformedRecord, "nodes[1]: synonyms must not be null"),
    ({"title": DROP}, MalformedRecord, "nodes[1]: 'code' and 'title' are required"),
    ({"code": " -- "}, MalformedRecord, "nodes[1]: empty code"),
    ({"code": "--", "title": ""}, MalformedRecord, "nodes[1]: empty code"),
    ({"title": " "}, MalformedRecord, "nodes[1]: empty title for code 'B'"),
    ({"parent": "-"}, MalformedRecord, "nodes[1]: unusable parent"),
    ({"synonyms": "x|y"}, MalformedRecord, "nodes[1]: synonyms must be a list"),
    ({"code": "a--"}, DuplicateCode, "code 'A' appears more than once"),
    ({"parent": "Z"}, UnknownParent, "node 'B' names unknown parent 'Z'"),
    ({"parent": "B"}, CycleDetected, "cycle through node 'B'"),
]


# The same nodes built directly as a ``Taxonomy`` must fail as the load does.
FOREST_REJECTS = [case for case in NODE_REJECTS if case[1] in (UnknownParent, CycleDetected)]


def build_error(nodes):
    """``load_error`` for the node records built directly as a ``Taxonomy``."""
    with pytest.raises(Exception) as info:
        Taxonomy({n["code"]: TaxonomyNode(**n) for n in nodes})
    return type(info.value), str(info.value)


def case_ids(cases):
    """Test ids from each case's message, without the record's position."""
    return [case[-1].split("]: ", 1)[-1] for case in cases]


def _reject(section, index, change):
    doc = base_doc()
    records = doc["taxonomy"]["nodes"] if section == "nodes" else doc[section]
    records[index] = patched(records[index], **change) if isinstance(change, dict) else change
    return doc


def _reject_at(section, change, position):
    """``_reject`` at index 1, with that record moved to ``position``; and its index there.

    The other records are valid: the document's own, and copies of the
    first record of the list, under new ids and codes where those must be
    unique.
    """
    doc = _reject(section, 1, change)
    records = doc["taxonomy"]["nodes"] if section == "nodes" else doc[section]
    key = {"artifacts": "id", "nodes": "code"}.get(section)
    fillers = [patched(records[0], **({key: f"F{j}"} if key else {})) for j in range(6)]
    changed = records.pop(1)
    if position == "last":
        records += fillers + [changed]
        return doc, len(records) - 1
    records[1:1] = fillers[:5] + [changed]  # after several valid records, and before one
    records.append(fillers[5])
    return doc, 6


# Every located reject, as (section, change, error, message at index 1).
LOCATED_REJECTS = (
    [("artifacts", change, MalformedRecord, message) for change, message in ARTIFACT_REJECTS]
    + [("assignments", change, MalformedRecord, message)
       for change, message in ASSIGNMENT_REJECTS]
    + [("edit_log", change, MalformedRecord, message) for change, message in EDIT_LOG_REJECTS]
    + [("nodes", *case) for case in NODE_REJECTS]
)


class TestRecordRejects:
    """Every reject path of the record decoders, with its class and message."""

    @pytest.mark.parametrize("change, message", ARTIFACT_REJECTS, ids=case_ids(ARTIFACT_REJECTS))
    def test_artifact(self, change, message):
        assert load_error(_reject("artifacts", 1, change)) == (MalformedRecord, message)

    def test_duplicate_artifact_id(self):
        doc = _reject("artifacts", 1, {"id": "R1"})
        assert load_error(doc) == (ReferentialIntegrityError, "artifact id 'R1' appears twice")

    @pytest.mark.parametrize("position", ["after several", "last"])
    @pytest.mark.parametrize("section, change, error, message", LOCATED_REJECTS,
                             ids=[f"{case[0]} {case_id}" for case, case_id in
                                  zip(LOCATED_REJECTS, case_ids(LOCATED_REJECTS))])
    def test_location_of_a_later_record(self, section, change, error, message, position):
        # A record's location is formatted only once it fails, so it is
        # pinned at more positions than the second.
        doc, index = _reject_at(section, change, position)
        located = message.replace(f"{section}[1]", f"{section}[{index}]")
        assert load_error(doc) == (error, located)

    def test_the_first_faulty_artifact_in_file_order_is_reported(self):
        doc = base_doc()
        doc["artifacts"] += [doc["artifacts"][0], "x"]
        assert load_error(doc) == (ReferentialIntegrityError, "artifact id 'R1' appears twice")
        doc["artifacts"][3:] = ["x", doc["artifacts"][0]]
        assert load_error(doc) == (MalformedRecord, "artifacts[3]: expected an object")

    @pytest.mark.parametrize("change, message", ASSIGNMENT_REJECTS,
                             ids=case_ids(ASSIGNMENT_REJECTS))
    def test_assignment(self, change, message):
        assert load_error(_reject("assignments", 1, change)) == (MalformedRecord, message)

    @pytest.mark.parametrize("change, message", EDIT_LOG_REJECTS, ids=case_ids(EDIT_LOG_REJECTS))
    def test_edit_log(self, change, message):
        assert load_error(_reject("edit_log", 1, change)) == (MalformedRecord, message)

    @pytest.mark.parametrize("change, error, message", NODE_REJECTS, ids=case_ids(NODE_REJECTS))
    def test_taxonomy_node(self, change, error, message):
        assert load_error(_reject("nodes", 1, change)) == (error, message)

    @pytest.mark.parametrize("change, error, message", FOREST_REJECTS,
                             ids=case_ids(FOREST_REJECTS))
    def test_taxonomy_node_built_directly(self, change, error, message):
        assert build_error(_reject("nodes", 1, change)["taxonomy"]["nodes"]) == (error, message)

    @pytest.mark.parametrize("doc", [[], [1], "x", 5, None], ids=repr)
    def test_repository_that_is_not_an_object(self, doc):
        assert load_error(doc) == (RepositoryIOError, "repository file must hold a JSON object")

    @pytest.mark.parametrize("taxonomy_doc", ["A", {"nodes": {}}, {"nodes": None}, {"node": []}])
    def test_taxonomy_document(self, taxonomy_doc):
        doc = base_doc()
        doc["taxonomy"] = taxonomy_doc
        assert load_error(doc) == (MalformedRecord, "expected an object with a 'nodes' list")

    @pytest.mark.parametrize("section", ["artifacts", "assignments", "edit_log"])
    @pytest.mark.parametrize("value", [5, 0, 1.5, True, False, "x", "", {"a": 1}, {}],
                             ids=repr)
    def test_record_list_that_is_not_a_list(self, section, value):
        doc = base_doc()
        doc[section] = value
        assert load_error(doc) == (MalformedRecord, f"{section} must be a list")

    @pytest.mark.parametrize("section", ["artifacts", "assignments", "edit_log"])
    def test_missing_or_null_record_list_is_empty(self, section):
        doc = base_doc()
        doc["assignments"], doc["edit_log"] = [], []
        doc[section] = None
        assert getattr(deserialize_repository(json.dumps(doc)), section) in ([], {})
        del doc[section]
        assert getattr(deserialize_repository(json.dumps(doc)), section) in ([], {})

    def test_non_string_attrs_still_load_as_text(self):
        doc = base_doc()
        doc["artifacts"][1]["attrs"] = {"n": 5, "f": 1.5, "s": "x", "t": True}
        attrs = deserialize_repository(json.dumps(doc)).artifacts["R2"].attrs
        assert attrs == {"n": "5", "f": "1.5", "s": "x", "t": "true"}

    def test_null_or_absent_note_created_at_and_cause_keep_their_defaults(self):
        doc = base_doc()
        doc["assignments"][1].update(note=None, created_at=None)
        del doc["assignments"][0]["note"], doc["assignments"][0]["created_at"]
        doc["edit_log"][1]["cause"] = None
        del doc["edit_log"][0]["cause"]
        repo = deserialize_repository(json.dumps(doc))
        assert [(a.note, a.created_at) for a in repo.assignments[:2]] == [(None, "")] * 2
        assert [e.cause for e in repo.edit_log[:2]] == ["", ""]

    @pytest.mark.parametrize("section, width", [("artifacts", 8), ("assignments", 6),
                                                ("edit_log", 4), ("taxonomy", 5)])
    @pytest.mark.parametrize("fault", ["short", "long", "object", "null"])
    def test_a_row_that_is_not_one_value_per_column(self, section, width, fault):
        doc = json.loads(serialize_repository(base_repo()))
        header, _, row, *_ = doc[section]
        doc[section][2] = {"short": row[:-1], "long": [*row, None],
                           "object": dict(zip(header, row)), "null": None}[fault]
        where = "nodes" if section == "taxonomy" else section
        assert load_error(doc) == (MalformedRecord, f"{where}[1]: expected a list of {width} values")

    @pytest.mark.parametrize("section", ["artifacts", "assignments", "edit_log", "taxonomy"])
    @pytest.mark.parametrize("change", ["missing", "reordered", "one column short", "empty"])
    def test_a_section_without_its_header_row(self, section, change):
        doc = json.loads(serialize_repository(base_repo()))
        header, *rows = doc[section]
        doc[section] = {"missing": rows, "reordered": [header[::-1], *rows],
                        "one column short": [header[:-1], *rows], "empty": []}[change]
        assert load_error(doc) == (
            MalformedRecord, f"{section}: the first row must be the header {header}")

    def test_taxonomy_is_checked_before_the_records(self):
        doc = _reject("artifacts", 0, "x")
        doc["taxonomy"]["nodes"][1]["title"] = ""
        assert load_error(doc) == (MalformedRecord, "nodes[1]: empty title for code 'B'")

    def test_valid_optional_fields_load(self):
        doc = base_doc()
        doc["artifacts"][1].update(body=None, document="Spec", version=None, archived=True)
        del doc["artifacts"][0]["archived"]
        repo = deserialize_repository(json.dumps(doc))
        assert repo.artifacts["R1"].archived is False
        assert repo.artifacts["R2"].archived is True
        assert repo.artifacts["R2"].document == "Spec"
        assert repo.artifacts["R2"].body is None


def cycle_error(nodes):
    """The load's error, which building the same nodes directly must match."""
    doc = base_doc()
    doc["taxonomy"] = {"nodes": nodes}
    doc["assignments"], doc["edit_log"] = [], []
    error = load_error(doc)
    assert build_error(nodes) == error
    return error


def node(code, parent=None):
    return {"code": code, "title": code, "parent": parent}


class TestCycles:
    def test_node_below_a_cycle_is_named_when_it_comes_first(self):
        nodes = [node("C", "A"), node("A", "B"), node("B", "A")]
        assert cycle_error(nodes) == (CycleDetected, "cycle through node 'C'")

    def test_first_node_of_the_cycle_is_named(self):
        nodes = [node("R"), node("B", "A"), node("A", "B"), node("C", "A")]
        assert cycle_error(nodes) == (CycleDetected, "cycle through node 'B'")

    def test_self_parent(self):
        nodes = [node("R"), node("S", "R"), node("X", "X")]
        assert cycle_error(nodes) == (CycleDetected, "cycle through node 'X'")

    @pytest.mark.parametrize("order", ["bottom-up", "top-down"])
    def test_deep_chain_closed_at_the_top(self, order):
        depth = 1000
        nodes = [node(f"N{i}", f"N{i + 1}") for i in range(depth)]
        nodes.append(node(f"N{depth}", "N500"))
        if order == "top-down":
            nodes.reverse()
        first = "N0" if order == "bottom-up" else f"N{depth}"
        assert cycle_error(nodes) == (CycleDetected, f"cycle through node {first!r}")

    def test_deep_chain_to_a_root_loads(self):
        depth = 1000
        nodes = [node(f"N{i}", f"N{i + 1}" if i < depth else None) for i in range(depth + 1)]
        doc = base_doc()
        doc["taxonomy"] = {"nodes": nodes}
        doc["assignments"], doc["edit_log"] = [], []
        repo = deserialize_repository(json.dumps(doc))
        assert taxonomy.ancestors(repo.taxonomy, "N0")[-1] == f"N{depth}"
        built = Taxonomy({n["code"]: TaxonomyNode(**n) for n in nodes})
        assert taxonomy.ancestors(built, "N0") == taxonomy.ancestors(repo.taxonomy, "N0")


# Text the tricky repositories lack: control characters, line and paragraph
# separators, a no-break space, astral characters, quotes and backslashes.
MORE_TEXT = ("\x00\x01\x1f\x7f\x85", "\u2028 \u2029 \u00a0 \ufeff", "\U0001f600 \uffff",
             '"\\"\\\\', "\t\b\f")


def edge_records(repo):
    """``repo`` with records whose optional fields are empty and with ``MORE_TEXT``."""
    nodes = repo.taxonomy.nodes
    code = min(nodes)
    nodes[code] = dataclasses.replace(nodes[code], description=None, synonyms=[])
    for i, text in enumerate(MORE_TEXT):
        add_artifact(repo, Artifact(id=f"{text}{i}", kind="test-case", title=text,
                                    archived=i % 2 == 0))
        add_artifact(repo, Artifact(id=f"E{i}", kind="design-object", title="t",
                                    body=text, attrs={text: text}, version=text))
        note = None if i % 2 else text
        repo.assignments.append(linkage.Assignment(f"E{i}", code, linkage.SUGGESTED,
                                                   linkage.PROPOSED, note, text))
        repo.edit_log.append(linkage.EditRecord(linkage.DELETE, linkage.DIRECT, (text, code),
                                                text))
        nodes[f"X{i}"] = TaxonomyNode(f"X{i}", f"<{text}>", f"<{text}>", [f"<{text}>"],
                                      parent=code)
    return repo


def decoder(section):
    """The decoder of one stored row of ``section``, as a load decodes it."""
    if section == "taxonomy":
        return lambda row: taxonomy._node_rows([row])[0]
    return lambda row: store._decode(store._TABLES[section], [row], section)[0]


class TestLineEncoders:
    """Each record kind's line is ``json.dumps`` of its stored row; a node's
    line in the structured format is ``json.dumps`` of its keyed document."""

    def test_lines_are_json_dumps_and_decode_to_equal_records(self):
        for seed in range(12):
            repo = tricky_repo(random.Random(seed))
            if seed % 2:
                repo = edge_records(repo)
            kinds = [
                (repo.artifacts.values(), store._artifact_row, decoder("artifacts")),
                (repo.assignments, store._assignment_row, decoder("assignments")),
                (repo.edit_log, store._edit_row, decoder("edit_log")),
                (repo.taxonomy.nodes.values(), taxonomy._node_row, decoder("taxonomy")),
            ]
            for records, row_of, decode in kinds:
                for record in records:
                    line = row_of(record)
                    row = json.loads(line)
                    assert line == json.dumps(row, ensure_ascii=False)
                    assert decode(row) == record
            for node in repo.taxonomy.nodes.values():
                line = taxonomy._node_line(node)
                doc = json.loads(line)
                assert line == json.dumps(doc, sort_keys=True, ensure_ascii=False)
                assert taxonomy._structured_records({"nodes": [doc]}) == [node]

    def test_empty_optional_fields_are_null_or_left_out(self):
        artifact = Artifact(id="R1", kind="requirement", title="One")
        assert store._artifact_row(artifact) == (
            '["R1", "requirement", "One", null, {}, null, null, false]')
        mark = linkage.Assignment("R1", None, linkage.MANUAL, linkage.UNCLASSIFIABLE)
        assert store._assignment_row(mark) == (
            '["R1", null, "manual", "unclassifiable", null, ""]')
        assert taxonomy._node_row(TaxonomyNode("A", "Alpha")) == '["A", "Alpha", null, [], null]'
        assert taxonomy._node_line(TaxonomyNode("A", "Alpha")) == '{"code": "A", "title": "Alpha"}'


class TestOneNodeEncoder:
    """A repository's node rows and the structured format hold the same nodes."""

    @pytest.mark.parametrize("edge", [False, True], ids=["canonical", "edge records"])
    def test_write_taxonomy_writes_the_stored_taxonomy(self, tmp_path, edge):
        repo = new_repository(taxonomy.parse_taxonomy(CANONICAL_TAXONOMY_CSV))
        if edge:
            repo = edge_records(repo)
        path = tmp_path / "repo.json"
        save_repository(repo, path)
        header, *rows = json.loads(path.read_text(encoding="utf-8"))["taxonomy"]
        structured = json.loads(taxonomy.write_taxonomy(repo.taxonomy, "structured"))["nodes"]
        assert [{k: v for k, v in zip(header, row) if v not in (None, [])} for row in rows] == (
            structured)
        assert taxonomy.parse_taxonomy(taxonomy.write_taxonomy(repo.taxonomy, "structured"),
                                       "structured") == load_repository(path).taxonomy


# Values as a save writes them, and per field the edge values that only a
# hand-written file holds: some the record-by-record decoding normalizes
# (a padded code or title, a number in attrs), some it refuses.
SAVED_CODES = ["A", "AB", "B", "B1", "C", "\u00c4"]
SAVED_TEXTS = ["Alpha", "Alpha beta", "x|y", "\u00e9t\u00e9"]
EDGE_TEXTS = ["", " ", " Alpha ", "Alpha ", "\u3000Beta", "\n", 0, 5, False, None, ["x"]]
NODE_EDGES = {
    "code": ["ab -", " a", "b1-", "A-", "a", "", "-", " ", 5, 1.5, True, None, ["A"], {"a": 1}],
    "parent": ["ab -", " a", "a", "", "-", 5, True, "ZZ", ["A"], {"a": 1}],
    "title": [*EDGE_TEXTS, 1.5, True, {"a": 1}],
    "description": [*EDGE_TEXTS, 1.5, True, {"a": 1}],
    "synonyms": [None, [], "", 0, "x", ["x", " y "], [""], [" "], [None], [0], ["x", 5],
                 [False, 1.5], ["x", {"a": 1}], [["x"]]],
    "extra": [1],
}
ARTIFACT_EDGES = {
    "id": [None, 5, ["R1"]],
    "kind": ["requirment", "", None, 5, ["requirement"]],
    "title": EDGE_TEXTS,
    "body": EDGE_TEXTS,
    "document": EDGE_TEXTS,
    "version": EDGE_TEXTS,
    "attrs": [None, {}, "x", [], {"n": 2}, {"f": 2.5}, {"t": True}, {"z": None}, {"l": [1]},
              {"d": {}}, {"a": "x", "n": 0}],
    "archived": [0, 1, "false", None],
    "extra": [1],
}

SAVED_NODES = st.fixed_dictionaries(
    {"code": st.sampled_from(SAVED_CODES), "title": st.sampled_from(SAVED_TEXTS)},
    optional={"parent": st.sampled_from(SAVED_CODES),
              "description": st.sampled_from(SAVED_TEXTS),
              "synonyms": st.lists(st.sampled_from(SAVED_TEXTS), max_size=3)})
SAVED_ARTIFACTS = st.fixed_dictionaries(
    {"id": st.sampled_from(["R1", "R2", "G1", "G2", "T1"]),
     "kind": st.sampled_from(sorted(store.ARTIFACT_KINDS)),
     "title": st.sampled_from(SAVED_TEXTS),
     "attrs": st.dictionaries(st.sampled_from(["type", "volume", store.CODE_ATTR]),
                              st.sampled_from(["gate", "", " 4.5 "]), max_size=3),
     "archived": st.booleans()},
    optional={key: st.one_of(st.none(), st.sampled_from(SAVED_TEXTS))
              for key in ("body", "document", "version")})
# Between them, the assignment and edit-log edges hold every value that
# ``ASSIGNMENT_REJECTS`` and ``EDIT_LOG_REJECTS`` refuse, and the nulls a load
# reads as a field's default; ``sections`` leaves a key out or inserts a
# non-object.
ASSIGNMENT_EDGES = {
    "artifact_id": [None, 1, "", ["R1"]],
    "code": [5, None, "A", "", ["A"]],
    "provenance": ["robot", "", None, 1, [], {"a": 1}],
    "status": ["maybe", "", None, 1, True, {"a": 1}, linkage.UNCLASSIFIABLE,
               linkage.CONFIRMED],
    "note": [None, "", ["x"], 5, False],
    "created_at": [None, "", 0, False, {"t": 1}],
    "extra": [1],
}
EDIT_EDGES = {
    "op": ["move", "", None, 5, ["add"]],
    "link_kind": ["x", "", None, 5, {}],
    "endpoints": ["R1", None, [], ["R1"], ["R1", "A", "B"], ["R1", None], [5, "A"],
                  {"R1": "A"}],
    "cause": [None, "", ["x"], 0, True],
    "extra": [1],
}

SAVED_ASSIGNMENTS = st.one_of(
    st.fixed_dictionaries(
        {"artifact_id": st.sampled_from(["R1", "R2", "G1"]),
         "code": st.sampled_from(SAVED_CODES),
         "provenance": st.sampled_from(sorted(linkage.PROVENANCES)),
         "status": st.sampled_from([linkage.CONFIRMED, linkage.PROPOSED, linkage.REJECTED]),
         "note": st.one_of(st.none(), st.sampled_from(SAVED_TEXTS)),
         "created_at": st.sampled_from(["", NOW])}),
    st.fixed_dictionaries(
        {"artifact_id": st.sampled_from(["R1", "R2", "G1"]), "code": st.none(),
         "provenance": st.sampled_from(sorted(linkage.PROVENANCES)),
         "status": st.just(linkage.UNCLASSIFIABLE),
         "note": st.one_of(st.none(), st.sampled_from(SAVED_TEXTS)),
         "created_at": st.sampled_from(["", NOW])}))
SAVED_EDITS = st.fixed_dictionaries(
    {"op": st.sampled_from([linkage.ADD, linkage.DELETE]),
     "link_kind": st.sampled_from([linkage.TAXONOMIC, linkage.DIRECT]),
     "endpoints": st.lists(st.sampled_from(["R1", "G1", *SAVED_CODES]), min_size=2, max_size=2),
     "cause": st.sampled_from(["assign", "split", *SAVED_TEXTS])})


@st.composite
def sections(draw, saved, edges, key):
    """Records as a save writes them, with distinct ``key`` values unless ``key`` is
    None, often with one edge record inserted: a saved one with one or two
    fields set to edge values and perhaps one left out, or not an object at all."""
    records = draw(st.lists(saved, max_size=6,
                            unique_by=None if key is None else lambda record: record[key]))
    if draw(st.booleans()):
        if draw(st.integers(0, 9)):
            record = dict(draw(saved))
            for name in draw(st.lists(st.sampled_from(sorted(edges)), min_size=1, max_size=2,
                                      unique=True)):
                record[name] = draw(st.sampled_from(edges[name]))
            for name in draw(st.lists(st.sampled_from(sorted(record)), max_size=1)):
                del record[name]
        else:
            record = draw(st.sampled_from([None, 5, "A", []]))
        records.insert(draw(st.integers(0, len(records))), record)
    return records


def outcome(decode, value):
    """What decoding ``value`` gives: the records' fields, or the error's class and message."""
    try:
        return "decoded", decode(value)
    except oracles.Rejected as exc:
        return exc.error, str(exc)
    except TaxTraceError as exc:
        return type(exc).__name__, str(exc)


# A row of a schema-3 section to cut short or lengthen by one value: its
# index, modulo the number of rows, and how.
ROW_SHAPES = st.one_of(st.none(), st.tuples(st.integers(0, 6), st.sampled_from(["short", "long"])))


def as_rows(records, columns, absent, shape):
    """``records`` as rows of ``columns``, as a schema-3 file stores them, reshaped by ``shape``.

    An object's fields go in column order, an absent one as ``absent``'s
    value or null, and a key that is no column is dropped; any other
    record stays as it is.
    """
    rows = [[record.get(c, absent.get(c)) for c in columns] if type(record) is dict else record
            for record in records]
    if shape is not None and rows and type(rows[shape[0] % len(rows)]) is list:
        i = shape[0] % len(rows)
        rows[i] = rows[i][:-1] if shape[1] == "short" else [*rows[i], None]
    return rows


def as_row_refusal(result, width):
    """``result`` with a record refused as not an object refused as not a row of ``width`` values."""
    kind, value = result
    if kind == "MalformedRecord" and value.endswith(": expected an object"):
        return kind, value.replace("expected an object", f"expected a list of {width} values")
    return result


def row_reference(oracle, rows, columns):
    """The reference's outcome for ``rows``: each row of one value per column is the
    object of its fields; a row of another length is refused where a non-object is."""
    docs = [dict(zip(columns, row)) if type(row) is list and len(row) == len(columns) else None
            for row in rows]
    return as_row_refusal(outcome(oracle, docs), len(columns))


def assert_both_forms_match_the_reference(decode, oracle, records, columns, absent, shape):
    """``decode`` of ``records`` keyed, as schema 2 stores them, and as schema-3 rows
    with their header row, each against the record-by-record ``oracle``.

    When every record has a row that holds all of it, the two forms decode
    to the same records, or are refused with the same message at the same
    index.
    """
    keyed = outcome(lambda value: decode(value, True), records)
    assert keyed == outcome(oracle, records)
    rows = as_rows(records, columns, absent, shape)
    got = outcome(lambda value: decode([list(columns), *value], False), rows)
    assert got == row_reference(oracle, rows, columns)
    if shape is None and all(set(r) <= set(columns) for r in records if type(r) is dict):
        assert got == as_row_refusal(keyed, len(columns))


class TestBulkDecoding:
    """A load builds a section in one pass when every record is as a save
    writes it; whatever the records, keyed (schemas 1 and 2) or rows
    (schema 3), it decodes them as the record-by-record reference does, or
    refuses them with its error."""

    @seed(24)
    @settings(max_examples=400, deadline=None, database=None)
    @given(sections(SAVED_NODES, NODE_EDGES, "code"), ROW_SHAPES)
    @example([{"code": "A", "title": "Alpha"},
              {"code": "ab -", "parent": " a", "title": " Alpha beta "}], None)
    @example([{"code": "A", "title": "Alpha", "synonyms": []}], None)
    @example([{"code": "A", "title": "Alpha"}, {"code": "B", "title": " "}], (0, "long"))
    def test_taxonomy_section_matches_the_reference(self, nodes, shape):
        def decode(value, keyed):
            stored = store._section("taxonomy", {"nodes": value} if keyed else value, keyed)
            return [vars(node) for node in stored.nodes.values()]

        assert_both_forms_match_the_reference(
            decode, lambda value: oracles.taxonomy_section_oracle({"nodes": value}), nodes,
            taxonomy._NODE_COLUMNS, {}, shape)

    @seed(24)
    @settings(max_examples=400, deadline=None, database=None)
    @given(sections(SAVED_ARTIFACTS, ARTIFACT_EDGES, "id"), ROW_SHAPES)
    @example([{"id": "R1", "kind": "requirement", "title": "One", "attrs": {"n": 2},
               "archived": False}], None)
    @example([{"id": "R1", "kind": "requirement", "title": "One"},
              {"id": "R1", "kind": "requirement", "title": "Two"}], (1, "short"))
    def test_artifacts_section_matches_the_reference(self, records, shape):
        assert_both_forms_match_the_reference(
            lambda value, keyed: list(map(vars, store._section("artifacts", value,
                                                               keyed).values())),
            oracles.artifacts_section_oracle, records, store._TABLES["artifacts"].fields,
            store._TABLES["artifacts"].absent, shape)

    @seed(29)
    @settings(max_examples=400, deadline=None, database=None)
    @given(sections(SAVED_ASSIGNMENTS, ASSIGNMENT_EDGES, None), ROW_SHAPES)
    @example([{"artifact_id": "R1", "code": "A", "provenance": "manual", "status": "confirmed",
               "note": None, "created_at": None}], None)
    @example([{"artifact_id": "R1", "code": None, "provenance": "manual",
               "status": "unclassifiable"}], None)
    @example([{"artifact_id": "R1", "code": "A", "provenance": "manual", "status": 1}], None)
    @example([{"artifact_id": "R1", "code": "A", "provenance": "manual", "status": "confirmed",
               "note": False, "created_at": 0}], None)
    def test_assignments_section_matches_the_reference(self, records, shape):
        assert_both_forms_match_the_reference(
            lambda value, keyed: list(map(vars, store._section("assignments", value, keyed))),
            oracles.assignments_section_oracle, records, store._TABLES["assignments"].fields,
            {}, shape)

    @seed(29)
    @settings(max_examples=400, deadline=None, database=None)
    @given(sections(SAVED_EDITS, EDIT_EDGES, None), ROW_SHAPES)
    @example([{"op": "add", "link_kind": "taxonomic", "endpoints": ["R1", "A"], "cause": None},
              {"op": "add", "link_kind": "direct", "endpoints": ["R1", "G1"]}], None)
    @example([{"op": "add", "link_kind": "direct", "endpoints": ["R1", "G1"], "cause": True}],
             None)
    def test_edit_log_section_matches_the_reference(self, records, shape):
        assert_both_forms_match_the_reference(
            lambda value, keyed: list(map(vars, store._section("edit_log", value, keyed))),
            oracles.edit_log_section_oracle, records, store._TABLES["edit_log"].fields, {},
            shape)

    def test_saved_sections_take_the_bulk_path(self, monkeypatch):
        # Each record of a saved file decodes in the one pass, and any edge
        # value sends its section to the record-by-record decoding.
        repo = edge_records(tricky_repo(random.Random(3)))
        doc = json.loads(serialize_repository(repo))
        nodes, artifacts = doc["taxonomy"][1:], doc["artifacts"][1:]
        assert taxonomy._saved_nodes(list(zip(*nodes))) == list(repo.taxonomy.nodes.values())
        # A record kind of ``store`` is checked in one pass of its rules over
        # the columns, and a value a load accepts is converted in it too; only
        # a value it refuses is looked for record by record.
        checked = []
        real = store._fault
        monkeypatch.setattr(store, "_fault", lambda rules, values, converted=None: checked.append(
            len(values(rules[0][0]))) or real(rules, values, converted))
        for name in ("artifacts", "assignments", "edit_log"):
            rows = doc[name][1:]
            checked.clear()
            assert store._decode(store._TABLES[name], rows, name) == (
                sorted(repo.artifacts.values(), key=lambda a: a.id) if name == "artifacts"
                else getattr(repo, name)), name
            assert checked == [len(rows)], name
        columns = store._TABLES["artifacts"].fields
        for field, value, fault in [("attrs", {"n": 2}, None),
                                    ("archived", 0, "archived must be true or false"),
                                    ("kind", "requirment", "unknown artifact kind 'requirment'"),
                                    ("body", 5, "body must be a string or null")]:
            checked.clear()
            changed = {**dict(zip(columns, artifacts[0])), "id": "new", field: value}
            rows = [*artifacts, [changed[c] for c in columns]]
            if fault is None:
                assert store._decode(store._TABLES["artifacts"], rows, "")[-1].attrs == {
                    "n": "2"}
                assert checked == [len(rows)], field
                continue
            with pytest.raises(MalformedRecord) as caught:
                store._decode(store._TABLES["artifacts"], rows, "artifacts[{}]")
            assert str(caught.value) == f"artifacts[{len(artifacts)}]: {fault}"
            assert checked[:2] == [len(rows), 1], field
        for field, value in [("code", "a"), ("parent", " A"), ("title", " Alpha"),
                             ("description", ""), ("synonyms", [" x"])]:
            node = {**dict(zip(taxonomy._NODE_COLUMNS, ["ZZ", "Z", None, [], None])), field: value}
            assert taxonomy._saved_nodes(list(zip(
                *nodes, [node[c] for c in taxonomy._NODE_COLUMNS]))) is None, field


def law_values():
    """Per record kind and field, the values a save may be given by mistake.

    Those are the values of the wrong type, the values a load refuses, and
    the edge values of a hand-written file, refused values first.
    """
    values = {(cls, name): list(wrong) for cls, fields in WRONG_TYPES.items()
              for name, wrong in fields.items()}
    for cls, name, value, _ in REFUSED_VALUES:
        values[cls, name].insert(0, value)
    for cls, edges in [(Artifact, ARTIFACT_EDGES), (linkage.Assignment, ASSIGNMENT_EDGES),
                       (linkage.EditRecord, EDIT_EDGES), (TaxonomyNode, NODE_EDGES)]:
        for name, edge in edges.items():
            if (cls, name) in values:  # not an unknown field
                values[cls, name] += edge
    return values


LAW_VALUES = law_values()


def with_value(repo, cls, name, value, pick):
    """``repo`` with field ``name`` of one record of kind ``cls`` set to ``value``.

    ``pick`` chooses the artifact, assignment or node.  An edit-log entry is
    appended instead, since inside ``store.editing`` the log starts empty.
    """
    change = {name: value}
    if cls is Artifact:
        key = sorted(repo.artifacts)[pick % len(repo.artifacts)]
        repo.artifacts[key] = dataclasses.replace(repo.artifacts[key], **change)
    elif cls is linkage.Assignment:
        i = pick % len(repo.assignments)
        repo.assignments[i] = dataclasses.replace(repo.assignments[i], **change)
    elif cls is linkage.EditRecord:
        repo.edit_log.append(dataclasses.replace(
            linkage.EditRecord(linkage.ADD, linkage.TAXONOMIC, ("R1", "A"), "assign"), **change))
    else:
        nodes = repo.taxonomy.nodes
        code = sorted(nodes)[pick % len(nodes)]
        nodes[code] = dataclasses.replace(nodes[code], **change)
    return repo


def file_bytes(path):
    """The bytes of the repository file and of its sidecar."""
    with open(path, "rb") as f, open(f"{path}.lock", "rb") as sidecar:
        return f.read(), sidecar.read()


def assert_saved_or_untouched(path, save, expected):
    """``save()`` raises and leaves the file and its sidecar as they were, or the
    file loads as ``expected``."""
    before = file_bytes(path)
    try:
        save()
    except (TypeError, ValueError, TaxTraceError):
        assert file_bytes(path) == before
    else:
        assert load_repository(path) == expected


class TestSaveLoadLaw:
    """For any repository the library can build, a save raises and writes
    nothing, or the next load returns an equal repository; so does an edit,
    under a stamp that vouches for the file and under a stale one."""

    @pytest.mark.parametrize("cls, name", list(LAW_VALUES),
                             ids=[f"{cls.__name__}.{name}" for cls, name in LAW_VALUES])
    @seed(12)
    @settings(max_examples=20, deadline=None, database=None)
    @given(data=st.data(), repo_seed=st.integers(0, 30), edge=st.booleans(),
           pick=st.integers(0, 99))
    def test_one_field_of_one_record(self, cls, name, data, repo_seed, edge, pick):
        value = data.draw(st.sampled_from(LAW_VALUES[cls, name]), label="value")

        def built():
            repo = tricky_repo(random.Random(repo_seed))
            return edge_records(repo) if edge else repo

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "repo.json")
            save_repository(built(), path)
            changed = with_value(built(), cls, name, value, pick)
            assert_saved_or_untouched(path, lambda: save_repository(changed, path), changed)
            for trusted in (True, False):
                save_repository(built(), path)
                if not trusted:
                    with open(f"{path}.lock", "wb") as f:
                        f.write(b"0\n")

                def edit():
                    with store.editing(path) as repo:
                        with_value(repo, cls, name, value, pick)

                assert_saved_or_untouched(path, edit, changed)


# Each module with the package modules it must not load: taxonomy <- store <- linkage;
# the maintenance-cost simulation is loaded by the ``cost`` command alone.
LAYERS = [
    ("taxtrace.store", ("taxtrace.linkage",)),
    ("taxtrace.taxonomy", ("taxtrace.store", "taxtrace.linkage")),
    ("taxtrace.cli", ("taxtrace.cost",)),
    ("taxtrace.linkage", ("taxtrace.cost",)),
]


class TestLayering:
    @pytest.mark.parametrize("module, above", LAYERS, ids=[m for m, _ in LAYERS])
    def test_a_module_loads_no_module_above_it(self, module, above):
        code = f"import sys, {module}; print(sorted(set({above!r}) & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(store.__file__)))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "[]\n"


class TestJsonlIngestion:
    def test_reads_artifacts_with_coerced_attrs(self):
        lines = "\n".join([
            '{"id": "R1", "kind": "requirement", "title": "One", "body": "text"}',
            '{"id": "D1", "kind": "design-object", "title": "Obj", "attrs": {"volume": 4.5}}',
            "",
        ])
        artifacts = read_artifacts_jsonl(lines)
        assert [a.id for a in artifacts] == ["R1", "D1"]
        assert artifacts[1].attrs == {"volume": "4.5"}

    @pytest.mark.parametrize("before, after", [(0, 2), (5, 1), (5, 0)],
                             ids=["first", "after several", "last"])
    def test_reject_names_its_line(self, before, after):
        valid = [f'{{"id": "A{i}", "kind": "requirement", "title": "x"}}'
                 for i in range(before + after)]
        bad = '{"id": "B", "kind": "poem", "title": "x"}'
        lines = valid[:before] + [bad] + valid[before:]
        if before:
            lines.insert(1, "")  # a blank line is skipped, and counted
        with pytest.raises(MalformedRecord) as info:
            read_artifacts_jsonl("\n".join(lines) + "\n")
        lineno = lines.index(bad) + 1
        assert str(info.value) == f"line {lineno}: unknown artifact kind 'poem'"

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"],
                             ids=["U+0085", "U+2028", "U+2029"])
    def test_a_line_separator_inside_a_string_stays_in_its_line(self, char, tmp_path, capsys):
        # ``json.dumps(..., ensure_ascii=False)`` writes these characters as
        # they are; only "\n" ends a line.
        lines = [json.dumps({"id": "R1", "kind": "requirement", "title": f"Gate{char}Bridge"},
                            ensure_ascii=False),
                 "",
                 json.dumps({"id": f"R{char}2", "kind": "test-case", "title": "x"},
                            ensure_ascii=False)]
        text = "\n".join(lines) + "\n"
        artifacts = read_artifacts_jsonl(text)
        assert [(a.id, a.title) for a in artifacts] == [("R1", f"Gate{char}Bridge"),
                                                        (f"R{char}2", "x")]
        bad = text + json.dumps({"id": "B", "kind": "poem", "title": char}, ensure_ascii=False)
        with pytest.raises(MalformedRecord) as info:
            read_artifacts_jsonl(bad)
        assert str(info.value) == "line 4: unknown artifact kind 'poem'"
        path, source = str(tmp_path / "r.json"), tmp_path / "a.jsonl"
        source.write_text(text, encoding="utf-8")
        assert cli.main(["init", path]) == 0
        assert cli.main(["--repo", path, "import", "artifacts", str(source)]) == 0
        capsys.readouterr()
        assert load_repository(path).artifacts["R1"].title == f"Gate{char}Bridge"
        source.write_text(bad, encoding="utf-8")
        assert cli.main(["--repo", path, "import", "artifacts", str(source)]) == 2
        assert capsys.readouterr().err == "error: line 4: unknown artifact kind 'poem'\n"

    def test_an_unknown_key_is_refused(self):
        # As in a schema 1 or 2 file, a key the record has no field for is
        # refused, not dropped.
        with pytest.raises(MalformedRecord) as info:
            read_artifacts_jsonl('{"id": "A", "kind": "requirement", "title": "x"}\n'
                                 '{"id": "B", "kind": "requirement", "title": "y", "codes": []}\n')
        assert str(info.value) == "line 2: unknown fields ['codes']"

    def test_invalid_json_names_line(self):
        with pytest.raises(MalformedRecord, match="line 2"):
            read_artifacts_jsonl('{"id": "A", "kind": "requirement", "title": "x"}\n{oops\n')

    def test_unknown_kind_rejected(self):
        with pytest.raises(MalformedRecord):
            read_artifacts_jsonl('{"id": "A", "kind": "poem", "title": "x"}')

    def test_nested_attr_rejected(self):
        with pytest.raises(MalformedRecord) as info:
            read_artifacts_jsonl(
                '{"id": "A", "kind": "requirement", "title": "x", "attrs": {"a": [1]}}'
            )
        assert str(info.value) == "line 1: attr 'a' must be a string, number or boolean"

    def test_attrs_follow_the_rule_of_a_load(self):
        [artifact] = read_artifacts_jsonl(
            '{"id": "A", "kind": "requirement", "title": "x", "attrs": {"t": true, "n": 2}}')
        assert artifact.attrs == {"t": "true", "n": "2"}
        with pytest.raises(MalformedRecord) as info:
            read_artifacts_jsonl(
                '{"id": "A", "kind": "requirement", "title": "x", "attrs": {"a": null}}')
        assert str(info.value) == "line 1: attr 'a' must be a string, number or boolean"


class TestModelCsvIngestion:
    def test_reads_objects_with_attr_columns(self):
        text = (
            "object_id,sb11_code,version,type,volume\n"
            "G1,32QG--,v1,gate,4.5\n"
            "B1,,v1,bridge,9\n"
        )
        objects = read_design_objects_csv(text)
        assert [o.id for o in objects] == ["G1", "B1"]
        assert objects[0].kind == "design-object"
        assert objects[0].attrs["sb11_code"] == "32QG--"
        assert objects[0].attrs["type"] == "gate"
        assert objects[0].version == "v1"
        assert "sb11_code" not in objects[1].attrs

    def test_bad_header(self):
        with pytest.raises(MalformedRecord, match="object_id"):
            read_design_objects_csv("id,code,version\nA,B,C\n")

    def test_short_row(self):
        with pytest.raises(MalformedRecord, match="row 2"):
            read_design_objects_csv("object_id,sb11_code,version,type\nG1,32QG,v1\n")

    def test_empty_object_id(self):
        with pytest.raises(MalformedRecord):
            read_design_objects_csv("object_id,sb11_code,version\n ,32QG,v1\n")

    def test_empty_file(self):
        with pytest.raises(MalformedRecord) as info:
            read_design_objects_csv("")
        assert str(info.value) == "empty design-object file"

    @pytest.mark.parametrize("text, column", [
        ("object_id,sb11_code,version,type,type\nG1,32QG,v1,gate,bridge\n", "type"),
        # The fourth column would have stood in for the empty code cell.
        ("object_id,sb11_code,version,sb11_code\nG1,,v1,ZZ\n", "sb11_code"),
        ("object_id,sb11_code,version,object_id\nG1,32QG,v1,G2\n", "object_id"),
    ], ids=["attr", "code", "object_id"])
    def test_a_header_that_repeats_a_column_is_refused(self, text, column):
        with pytest.raises(MalformedRecord) as info:
            read_design_objects_csv(text)
        assert str(info.value) == f"header repeats column {column!r}"

    def test_import_model_exits_2_on_a_repeated_column(self, tmp_path, capsys):
        path, tax, model = (str(tmp_path / name) for name in ("r.json", "t.json", "model.csv"))
        with open(tax, "w", encoding="utf-8") as f:
            f.write('{"nodes": [{"code": "ZZ", "title": "Zed"}]}')
        with open(model, "w", encoding="utf-8") as f:
            f.write("object_id,sb11_code,version,sb11_code\nG1,,v1,ZZ\n")
        assert cli.main(["init", path]) == 0
        assert cli.main(["--repo", path, "import", "taxonomy", "--taxonomy-format", "structured",
                         tax]) == 0
        capsys.readouterr()
        before = (tmp_path / "r.json").read_bytes()
        assert cli.main(["--repo", path, "import", "model", model]) == 2
        assert capsys.readouterr() == ("", "error: header repeats column 'sb11_code'\n")
        assert (tmp_path / "r.json").read_bytes() == before
