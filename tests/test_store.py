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
        with pytest.raises(MalformedRecord, match="scalar"):
            read_artifacts_jsonl(
                '{"id": "A", "kind": "requirement", "title": "x", "attrs": {"a": [1]}}'
            )


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
