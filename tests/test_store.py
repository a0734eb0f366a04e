"""Repository storage: filtering, canonical persistence, ingestion."""

import dataclasses
import json
import os
import random
import stat

import pytest

import oracles
from conftest import NOW, random_repo, tax_from_parents
from taxtrace import linkage, store, taxonomy
from taxtrace.errors import (
    CycleDetected,
    DuplicateCode,
    DuplicateId,
    MalformedRecord,
    ReferentialIntegrityError,
    RepositoryIOError,
    SchemaVersionMismatch,
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


def schema_1_text(repo):
    """The file the schema-1 writer made: the same document, indented."""
    doc = {
        "schema_version": 1,
        "taxonomy": taxonomy._structured_doc(repo.taxonomy),
        "artifacts": [store._artifact_to_dict(repo.artifacts[i]) for i in sorted(repo.artifacts)],
        "assignments": [a.to_dict() for a in repo.assignments],
        "edit_log": [e.to_dict() for e in repo.edit_log],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


SECTIONS = {'"artifacts": [': "artifacts", '"assignments": [': "assignments",
            '"edit_log": [': "edit_log", '"taxonomy": {"nodes": [': "nodes"}


def record_lines(text):
    """The lines between each record list's opening and closing line."""
    found, current = {}, None
    for line in text.split("\n"):
        if current is None:
            current = SECTIONS.get(line)
            if current is not None:
                found[current] = []
        elif line in ("],", "]}"):
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

    @pytest.mark.parametrize("version", [0, 3, True, "2", None])
    def test_unsupported_schema_versions_are_rejected(self, sampled_repo, version):
        doc = json.loads(serialize_repository(sampled_repo))
        doc["schema_version"] = version
        with pytest.raises(SchemaVersionMismatch):
            deserialize_repository(json.dumps(doc))

    def test_schema_1_file_loads_and_is_saved_as_schema_2(self, sampled_repo, tmp_path):
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
            assert json.loads(saved) == dict(json.loads(old), schema_version=2)

    def test_each_record_is_one_line(self):
        rng = random.Random(21)
        for _ in range(30):
            repo = tricky_repo(rng)
            text = serialize_repository(repo)
            doc = json.loads(text)
            expected = {"artifacts": doc["artifacts"], "assignments": doc["assignments"],
                        "edit_log": doc["edit_log"], "nodes": doc["taxonomy"]["nodes"]}
            found = record_lines(text)
            assert set(found) == set(expected)
            for name, records in expected.items():
                lines = found[name]
                assert [json.loads(line.removesuffix(",")) for line in lines] == records
                assert all(line.endswith("},") for line in lines[:-1])
                assert lines[-1].endswith("}")
            assert serialize_repository(deserialize_repository(text)) == text

    def test_empty_lists_are_written_inline(self):
        assert serialize_repository(new_repository()) == (
            '{\n"artifacts": [],\n"assignments": [],\n"edit_log": [],\n'
            '"schema_version": 2,\n"taxonomy": {"nodes": []}\n}\n'
        )

    @pytest.mark.parametrize("failure, raised", [
        (OSError("disk full"), RepositoryIOError),
        (KeyboardInterrupt(), KeyboardInterrupt),
    ])
    def test_failed_replace_keeps_the_old_file(self, sampled_repo, tmp_path, monkeypatch,
                                               failure, raised):
        path = tmp_path / "repo.json"
        save_repository(new_repository(), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise failure

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(raised):
            save_repository(sampled_repo, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["repo.json"]
        monkeypatch.undo()
        save_repository(sampled_repo, path)
        assert path.read_text(encoding="utf-8") == serialize_repository(sampled_repo)
        assert os.listdir(tmp_path) == ["repo.json"]

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
        assert sorted(os.listdir(tmp_path)) == ["real.json", "repo.json"]

    def test_assignment_to_missing_artifact_names_it(self, canon_tax):
        repo = new_repository(canon_tax)
        add_artifact(repo, Artifact(id="R1", kind="requirement", title="R1"))
        linkage.assign(repo, "R1", "18B", now=NOW)
        doc = json.loads(serialize_repository(repo))
        doc["artifacts"] = []
        with pytest.raises(ReferentialIntegrityError, match="R1"):
            deserialize_repository(json.dumps(doc))

    def test_assignment_to_missing_code(self, canon_tax):
        repo = new_repository(canon_tax)
        add_artifact(repo, Artifact(id="R1", kind="requirement", title="R1"))
        linkage.assign(repo, "R1", "18B", now=NOW)
        doc = json.loads(serialize_repository(repo))
        doc["taxonomy"] = {"nodes": []}
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
        doc = json.loads(serialize_repository(new_repository(canon_tax)))
        doc["taxonomy"] = taxonomy
        with pytest.raises(error):
            deserialize_repository(json.dumps(doc))

    def test_serialization_ends_with_newline_and_sorted_keys(self, sampled_repo):
        text = serialize_repository(sampled_repo)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == sorted(doc)


def base_doc():
    """A small valid document: three artifacts, two links, one marker, two log entries."""
    repo = new_repository(taxonomy.parse_taxonomy(
        "code,parent,title,description,synonyms\nA,,Alpha,,\nB,A,Beta,,\n"))
    add_artifact(repo, Artifact(id="R1", kind="requirement", title="One"))
    add_artifact(repo, Artifact(id="R2", kind="requirement", title="Two"))
    add_artifact(repo, Artifact(id="R3", kind="requirement", title="Three"))
    linkage.assign(repo, "R1", "A", now=NOW)
    linkage.assign(repo, "R2", "B", now=NOW)
    linkage.mark_unclassifiable(repo, "R3", "vagueness", now=NOW)
    return json.loads(serialize_repository(repo))


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


class TestRecordRejects:
    """Every reject path of the record decoders, with its class and message."""

    @pytest.mark.parametrize("change, message", ARTIFACT_REJECTS, ids=case_ids(ARTIFACT_REJECTS))
    def test_artifact(self, change, message):
        assert load_error(_reject("artifacts", 1, change)) == (MalformedRecord, message)

    def test_duplicate_artifact_id(self):
        doc = _reject("artifacts", 1, {"id": "R1"})
        assert load_error(doc) == (ReferentialIntegrityError, "artifact id 'R1' appears twice")

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


# Text that needs escaping or is not ASCII.
ENCODE_TEXT = ["", "plain", "Brücke – 橋 ✓", "tab\tnew\nline", "\x00\x01\x1f\x7f",
               'quote " and \\ slash', "  ", "😀 emoji", "𝄞"]


def random_value(rng, depth=0):
    roll = rng.randrange(8 if depth < 2 else 5)
    if roll == 0:
        return None
    if roll == 1:
        return rng.choice([True, False])
    if roll == 2:
        return rng.randint(-10**6, 10**6)
    if roll in (3, 4):
        return rng.choice(ENCODE_TEXT) + rng.choice(ENCODE_TEXT)
    if roll == 5:
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return random_record(rng, depth + 1)


def random_record(rng, depth=0):
    keys = sorted({rng.choice(ENCODE_TEXT) + str(rng.randrange(5))
                   for _ in range(rng.randint(0, 6))}, reverse=True)
    return {key: random_value(rng, depth) for key in keys}


class TestEncodeRecord:
    def test_matches_json_dumps(self):
        rng = random.Random(31)
        for _ in range(300):
            record = random_record(rng)
            record["attrs"] = {k: str(v) for k, v in random_record(rng, 2).items()}
            expected = json.dumps(record, sort_keys=True, ensure_ascii=False)
            assert store.encode_record(record) == expected

    def test_matches_json_dumps_on_saved_records(self):
        rng = random.Random(32)
        for _ in range(10):
            doc = json.loads(serialize_repository(tricky_repo(rng)))
            records = doc["artifacts"] + doc["assignments"] + doc["edit_log"]
            for record in records + doc["taxonomy"]["nodes"]:
                if "attrs" in record:
                    record["attrs"] = dict(reversed(record["attrs"].items()))
                expected = json.dumps(record, sort_keys=True, ensure_ascii=False)
                assert store.encode_record(record) == expected


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
