"""Artifact repository: one store for every artifact kind, plus persistence.

Requirements, design objects, test cases, source units, and compliance
clauses all live in a single repository file together with the taxonomy,
the artifact-to-class assignments, and the edit log.  Persistence is a
canonical JSON document: sorted keys, stable ordering, trailing newline,
so that saving the same repository twice yields byte-identical files.
Schema 2 writes each artifact, assignment, edit-log entry and taxonomy
node as one compact line, so a change to one record is one line in a
diff.  Schema 1 files, the same document indented, still load and are
rewritten as schema 2 by their next save.

The repository is single-writer: mutating helpers (here and in the
linkage module) must not run concurrently; reads between mutations may.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
from dataclasses import dataclass, field

from .errors import (
    DuplicateId,
    MalformedRecord,
    ReferentialIntegrityError,
    RepositoryIOError,
    SchemaVersionMismatch,
    UnknownId,
)
from .linkage import Assignment, EditRecord, LinkIndex
from .taxonomy import Taxonomy, _build, _decode, _structured_doc, _structured_records

REQUIREMENT = "requirement"
DESIGN_OBJECT = "design-object"
TEST_CASE = "test-case"
SOURCE_UNIT = "source-unit"
COMPLIANCE_CLAUSE = "compliance-clause"

ARTIFACT_KINDS = frozenset(
    {REQUIREMENT, DESIGN_OBJECT, TEST_CASE, SOURCE_UNIT, COMPLIANCE_CLAUSE}
)

SCHEMA_VERSION = 2

# One C encoder for ``json.dumps(record, sort_keys=True, ensure_ascii=False)``,
# built once here because ``JSONEncoder.encode`` builds a new one per call.
_encoder = json.encoder.c_make_encoder(
    None,  # markers: records hold no cycles to check
    json.JSONEncoder().default,
    json.encoder.encode_basestring,  # ensure_ascii=False
    None,  # indent
    ": ",
    ", ",
    True,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)


def encode_record(record: dict) -> str:
    """One record as compact canonical JSON with sorted keys, on one line."""
    return "".join(_encoder(record, 0))

CODE_ATTR = "sb11_code"


@dataclass
class Artifact:
    """One engineering artifact of any kind.

    ``attrs`` values are opaque strings; numeric interpretation is the
    audit module's business.  ``archived`` marks artifacts retired by a
    split: they stay on record but drop out of queries.
    """

    id: str
    kind: str
    title: str
    body: str | None = None
    attrs: dict[str, str] = field(default_factory=dict)
    document: str | None = None
    version: str | None = None
    archived: bool = False


@dataclass
class Repository:
    """Taxonomy, artifacts, assignments, and the append-only edit log.

    ``links`` is the link index that ``linkage.links`` builds from the
    assignments on first use.  Once it exists, assignments change only
    through ``linkage`` (``assign``, ``unassign``, ``mark_unclassifiable``
    and ``split_artifact``), which keep it up to date.
    """

    taxonomy: Taxonomy
    artifacts: dict[str, Artifact] = field(default_factory=dict)
    assignments: list[Assignment] = field(default_factory=list)
    edit_log: list[EditRecord] = field(default_factory=list)
    links: LinkIndex | None = field(default=None, repr=False, compare=False)


def new_repository(t: Taxonomy | None = None) -> Repository:
    return Repository(taxonomy=t if t is not None else Taxonomy())


def check_kind(kind: str) -> None:
    """Raise ValueError unless ``kind`` is one of ARTIFACT_KINDS."""
    if kind not in ARTIFACT_KINDS:
        raise ValueError(f"unknown artifact kind {kind!r}")


def add_artifact(repo: Repository, artifact: Artifact) -> str:
    """Append an artifact.  Ids are caller-supplied and unique."""
    check_kind(artifact.kind)
    if artifact.id in repo.artifacts:
        raise DuplicateId(f"artifact id {artifact.id!r} already exists")
    repo.artifacts[artifact.id] = artifact
    return artifact.id


def get_artifact(repo: Repository, artifact_id: str) -> Artifact:
    try:
        return repo.artifacts[artifact_id]
    except KeyError:
        raise UnknownId(f"no artifact with id {artifact_id!r}") from None


def list_artifacts(repo: Repository, kind: str | None = None) -> list[Artifact]:
    """Artifacts ordered by id, restricted to one kind when ``kind`` is given.

    Archived artifacts are listed too; query operations apply their own
    exclusion.
    """
    result = []
    for artifact_id in sorted(repo.artifacts):
        artifact = repo.artifacts[artifact_id]
        if kind is None or artifact.kind == kind:
            result.append(artifact)
    return result


def check_integrity(repo: Repository) -> None:
    """Full-scan referential check: assignments point at real things."""
    for i, a in enumerate(repo.assignments):
        if a.artifact_id not in repo.artifacts:
            raise ReferentialIntegrityError(
                f"assignment #{i} ({a.artifact_id!r} -> {a.code!r}) references a missing artifact"
            )
        if a.code is not None and a.code not in repo.taxonomy.nodes:
            raise ReferentialIntegrityError(
                f"assignment #{i} ({a.artifact_id!r} -> {a.code!r}) references a missing taxonomy code"
            )


# --- canonical serialization ---


def _artifact_to_dict(artifact: Artifact) -> dict:
    doc: dict = {
        "id": artifact.id,
        "kind": artifact.kind,
        "title": artifact.title,
        "attrs": artifact.attrs,
        "archived": artifact.archived,
    }
    if artifact.body is not None:
        doc["body"] = artifact.body
    if artifact.document is not None:
        doc["document"] = artifact.document
    if artifact.version is not None:
        doc["version"] = artifact.version
    return doc


_STR_OR_NONE = (str, type(None))
_OPTIONAL_TEXT = ("body", "document", "version")


def _artifact_from_dict(doc: dict, where: str) -> Artifact:
    if not isinstance(doc, dict):
        raise MalformedRecord(f"{where}: expected an object")
    get = doc.get
    artifact_id, kind, title = get("id"), get("kind"), get("title")
    if not (isinstance(artifact_id, str) and isinstance(kind, str) and isinstance(title, str)):
        key = next(k for k in ("id", "kind", "title") if not isinstance(get(k), str))
        raise MalformedRecord(f"{where}: missing or non-string {key!r}")
    if kind not in ARTIFACT_KINDS:
        raise MalformedRecord(f"{where}: unknown artifact kind {kind!r}")
    attrs = get("attrs") or {}
    if not isinstance(attrs, dict):
        raise MalformedRecord(f"{where}: attrs must be an object")
    if attrs and not all(isinstance(v, str) for v in attrs.values()):
        attrs = {k: str(v) for k, v in attrs.items()}
    body, document, version = get("body"), get("document"), get("version")
    if not (
        isinstance(body, _STR_OR_NONE)
        and isinstance(document, _STR_OR_NONE)
        and isinstance(version, _STR_OR_NONE)
    ):
        key = next(k for k in _OPTIONAL_TEXT if not isinstance(get(k), _STR_OR_NONE))
        raise MalformedRecord(f"{where}: {key} must be a string or null")
    archived = get("archived", False)
    if not isinstance(archived, bool):
        raise MalformedRecord(f"{where}: archived must be true or false")
    return Artifact(artifact_id, kind, title, body, attrs, document, version, archived)


def _record_lines(records) -> str:
    """A JSON list with one ``encode_record`` line per record; ``[]`` when empty."""
    if not records:
        return "[]"
    # ``encode_record`` inlined: a call per record costs more than its join.
    return "[\n" + ",\n".join(["".join(_encoder(r, 0)) for r in records]) + "\n]"


def serialize_repository(repo: Repository) -> str:
    """Render the repository as canonical JSON text, one record per line."""
    artifacts = _record_lines(
        [_artifact_to_dict(repo.artifacts[artifact_id]) for artifact_id in sorted(repo.artifacts)]
    )
    assignments = _record_lines([a.to_dict() for a in repo.assignments])
    edit_log = _record_lines([e.to_dict() for e in repo.edit_log])
    nodes = _record_lines(_structured_doc(repo.taxonomy)["nodes"])
    return (
        f'{{\n"artifacts": {artifacts},\n"assignments": {assignments},\n'
        f'"edit_log": {edit_log},\n"schema_version": {SCHEMA_VERSION},\n'
        f'"taxonomy": {{"nodes": {nodes}}}\n}}\n'
    )


def deserialize_repository(text: str) -> Repository:
    """Rebuild a repository from canonical JSON text.

    The stored taxonomy is validated from the decoded document with the
    same checks as a structured taxonomy file, without re-encoding it.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RepositoryIOError(f"repository file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise RepositoryIOError("repository file must hold a JSON object")
    version = doc.get("schema_version")
    # Schema 1 is the same document indented, so both decode alike.
    if type(version) is not int or version not in (1, SCHEMA_VERSION):
        raise SchemaVersionMismatch(
            f"repository schema version {version!r}, expected 1 or {SCHEMA_VERSION}"
        )
    taxonomy = _build(_structured_records(doc.get("taxonomy") or {"nodes": []}))
    artifacts: dict[str, Artifact] = {}
    for i, item in enumerate(doc.get("artifacts") or []):
        artifact = _artifact_from_dict(item, f"artifacts[{i}]")
        if artifact.id in artifacts:
            raise ReferentialIntegrityError(f"artifact id {artifact.id!r} appears twice")
        artifacts[artifact.id] = artifact
    assignments = [
        Assignment.from_dict(item, f"assignments[{i}]")
        for i, item in enumerate(doc.get("assignments") or [])
    ]
    edit_log = [
        EditRecord.from_dict(item, f"edit_log[{i}]")
        for i, item in enumerate(doc.get("edit_log") or [])
    ]
    repo = Repository(taxonomy, artifacts, assignments, edit_log)
    check_integrity(repo)
    return repo


def save_repository(repo: Repository, path: str | os.PathLike) -> None:
    """Write the repository to ``path`` atomically, always as the current schema.

    The text goes to ``<path>.tmp`` in the same directory, which is
    flushed, fsynced and then renamed over ``path`` with ``os.replace``,
    so a crash leaves either the old file or the new one.  As with a
    write in place, a symlink at ``path`` is followed and the replaced
    file's permission bits are kept; a new file gets the umask's.  On any
    failure the temporary file is removed; an ``OSError`` is raised as
    ``RepositoryIOError``.  Nothing stops a second concurrent writer.
    """
    text = serialize_repository(repo)
    target = os.path.realpath(path)
    tmp = f"{target}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            with contextlib.suppress(FileNotFoundError):
                shutil.copymode(target, tmp)
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise RepositoryIOError(f"cannot write repository {path!s}: {exc}") from exc
        raise


def load_repository(path: str | os.PathLike) -> Repository:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise RepositoryIOError(f"cannot read repository {path!s}: {exc}") from exc
    return deserialize_repository(text)


# --- bulk ingestion ---


def read_artifacts_jsonl(source) -> list[Artifact]:
    """Parse artifacts from JSON-Lines text, one object per line."""
    text = _decode(source)
    artifacts = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"line {lineno}: invalid JSON: {exc}") from exc
        if isinstance(doc, dict) and "attrs" in doc and isinstance(doc["attrs"], dict):
            coerced = {}
            for k, v in doc["attrs"].items():
                if isinstance(v, (dict, list)):
                    raise MalformedRecord(f"line {lineno}: attr {k!r} must be scalar")
                coerced[str(k)] = v if isinstance(v, str) else json.dumps(v)
            doc = dict(doc, attrs=coerced)
        artifacts.append(_artifact_from_dict(doc, f"line {lineno}"))
    return artifacts


def read_design_objects_csv(source) -> list[Artifact]:
    """Parse a design-model export: `object_id,sb11_code,version,<attr...>`.

    Every column after the three fixed ones becomes an attribute.  The
    classification code lands in attr ``sb11_code`` exactly as exported
    (audits need the faulty spelling, so no normalization here); an empty
    code cell leaves the attribute unset.
    """
    text = _decode(source)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise MalformedRecord("empty design-object file")
    header = rows[0]
    if header[:3] != ["object_id", CODE_ATTR, "version"]:
        raise MalformedRecord(
            f"expected header to start with 'object_id,{CODE_ATTR},version', got {','.join(header[:3])!r}"
        )
    attr_names = header[3:]
    artifacts = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise MalformedRecord(
                f"row {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        object_id = row[0].strip()
        if not object_id:
            raise MalformedRecord(f"row {lineno}: empty object_id")
        attrs = {name: value.strip() for name, value in zip(attr_names, row[3:])}
        code = row[1].strip()
        if code:
            attrs[CODE_ATTR] = code
        artifacts.append(
            Artifact(
                id=object_id,
                kind=DESIGN_OBJECT,
                title=object_id,
                attrs=attrs,
                version=row[2].strip() or None,
            )
        )
    return artifacts
