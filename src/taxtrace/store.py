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

Commands that change the repository go through ``editing``: one writer
at a time holds an exclusive lock on the sidecar file ``<path>.lock``, and
the save re-encodes only the records the edit changed.  The sidecar never
holds data; deleting it costs the next save one full encode.  Library
callers that mutate a repository and ``save_repository`` it take no lock,
so they must not run alongside a command that edits the same file.
"""

from __future__ import annotations

import contextlib
import csv
import fcntl
import io
import itertools
import json
import operator
import os
import shutil
import zlib
from dataclasses import dataclass, field

from .errors import (
    DuplicateId,
    MalformedRecord,
    ReferentialIntegrityError,
    RepositoryIOError,
    RepositoryLocked,
    SchemaVersionMismatch,
    UnknownId,
)
from .linkage import _STR_OR_NONE, Assignment, EditRecord, LinkIndex
from .taxonomy import Taxonomy, _build, _structured_doc, _structured_records

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
        for k, v in attrs.items():
            if v is None or isinstance(v, (list, dict)):
                raise MalformedRecord(f"{where}: attr {k!r} must be a string, number or boolean")
        # As the JSON spelled them: ``true``, not Python's ``True``.
        attrs = {k: v if isinstance(v, str) else json.dumps(v) for k, v in attrs.items()}
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


def _encoded(records) -> list[str]:
    # ``encode_record`` inlined: a call per record costs more than its join.
    return ["".join(_encoder(r, 0)) for r in records]


def _record_lines(lines: list[str]) -> str:
    """A JSON list with one encoded record per line; ``[]`` when empty."""
    return "[\n" + ",\n".join(lines) + "\n]" if lines else "[]"


def _document(artifacts: str, assignments: str, edit_log: str, nodes: str) -> str:
    """The schema-2 file around each section's ``_record_lines``."""
    return (
        f'{{\n"artifacts": {artifacts},\n"assignments": {assignments},\n'
        f'"edit_log": {edit_log},\n"schema_version": {SCHEMA_VERSION},\n'
        f'"taxonomy": {{"nodes": {nodes}}}\n}}\n'
    )


def serialize_repository(repo: Repository) -> str:
    """Render the repository as canonical JSON text, one record per line."""
    # One section at a time, so that only one section's records are held.
    return _document(
        _record_lines(_encoded(
            [_artifact_to_dict(repo.artifacts[k]) for k in sorted(repo.artifacts)])),
        _record_lines(_encoded([a.to_dict() for a in repo.assignments])),
        _record_lines(_encoded([e.to_dict() for e in repo.edit_log])),
        _record_lines(_encoded(_structured_doc(repo.taxonomy)["nodes"])),
    )


def _records(doc: dict, key: str) -> list:
    """The record list under ``key``; a missing key or null means none."""
    records = doc.get(key)
    if records is None:
        return []
    if not isinstance(records, list):
        raise MalformedRecord(f"{key} must be a list")
    return records


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
    for i, item in enumerate(_records(doc, "artifacts")):
        artifact = _artifact_from_dict(item, f"artifacts[{i}]")
        if artifact.id in artifacts:
            raise ReferentialIntegrityError(f"artifact id {artifact.id!r} appears twice")
        artifacts[artifact.id] = artifact
    assignments = [
        Assignment.from_dict(item, f"assignments[{i}]")
        for i, item in enumerate(_records(doc, "assignments"))
    ]
    edit_log = [
        EditRecord.from_dict(item, f"edit_log[{i}]")
        for i, item in enumerate(_records(doc, "edit_log"))
    ]
    repo = Repository(taxonomy, artifacts, assignments, edit_log)
    check_integrity(repo)
    return repo


def _write(text: str, path: str | os.PathLike) -> bytes:
    """Write ``text`` over ``path`` atomically and durably; return the bytes written.

    The bytes go to ``<path>.tmp`` in the same directory, which is
    flushed, fsynced and then renamed over ``path`` with ``os.replace``;
    the directory is fsynced after the rename, so that the rename itself
    survives a crash.  A crash leaves either the old file or the new one.
    As with a write in place, a symlink at ``path`` is followed and the
    replaced file's permission bits are kept; a new file gets the umask's.
    On any failure the temporary file is removed; an ``OSError`` is
    raised as ``RepositoryIOError``.
    """
    data = text.encode("utf-8")
    target = os.path.realpath(path)
    tmp = f"{target}.tmp"
    try:
        with open(tmp, "wb") as f:
            with contextlib.suppress(FileNotFoundError):
                shutil.copymode(target, tmp)
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
        directory = os.open(os.path.dirname(target), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise RepositoryIOError(f"cannot write repository {path!s}: {exc}") from exc
        raise
    return data


def save_repository(repo: Repository, path: str | os.PathLike) -> None:
    """Write the repository to ``path`` atomically, always as the current schema.

    See ``_write`` for how.  This takes no lock and writes no sidecar;
    commands save through ``editing``.
    """
    _write(serialize_repository(repo), path)


def _read(path: str | os.PathLike) -> bytes:
    """The repository file's bytes; an ``OSError`` is raised as ``RepositoryIOError``."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise RepositoryIOError(f"cannot read repository {path!s}: {exc}") from exc


def load_repository(path: str | os.PathLike) -> Repository:
    return deserialize_repository(_read(path).decode("utf-8"))


# --- editing: one locked writer, re-encoding only what changed ---


def _artifact_fields(a: Artifact) -> tuple:
    return (a.id, a.kind, a.title, a.body, tuple(a.attrs.items()), a.document, a.version,
            a.archived)


_assignment_fields = operator.attrgetter(
    "artifact_id", "code", "provenance", "status", "note", "created_at")
_edit_fields = operator.attrgetter("op", "link_kind", "endpoints", "cause")


def _section_lines(text: str, repo: Repository) -> list[list[str]] | None:
    """The record lines of each section of ``text``, which loaded as ``repo``.

    None unless ``text`` is exactly ``_document``'s output for those lines.
    """
    counts = (len(repo.artifacts), len(repo.assignments), len(repo.edit_log),
              len(repo.taxonomy.nodes))
    lines = text.split("\n")
    if len(lines) != 4 + sum(n + 2 if n else 1 for n in counts):
        return None
    sections = []
    start = 1  # the opening brace
    for n, after in zip(counts, (0, 0, 1, 0)):  # the schema line follows the edit log
        body = lines[start + 1:start + 1 + n]
        # Each record line but a section's last ends with the separating comma.
        sections.append([line[:-1] for line in body[:-1]] + body[-1:])
        start += (n + 2 if n else 1) + after
    return sections if _document(*map(_record_lines, sections)) == text else None


class _Loaded:
    """Each record's fields at load, with the line of the file that encodes them."""

    def __init__(self, repo: Repository, sections: list[list[str]]) -> None:
        artifact_lines, self.assignment_lines, self.edit_lines, self.node_lines = sections
        self.artifact_fields = {a.id: _artifact_fields(a) for a in repo.artifacts.values()}
        self.artifact_lines = dict(zip(repo.artifacts, artifact_lines))
        self.assignment_fields = list(map(_assignment_fields, repo.assignments))
        self.edit_fields = list(map(_edit_fields, repo.edit_log))
        self.nodes = list(repo.taxonomy.nodes.values())

    def serialize(self, repo: Repository) -> str:
        """``serialize_repository(repo)``, encoding only the records changed since load."""
        ids = sorted(repo.artifacts)
        artifacts = _kept(list(map(repo.artifacts.__getitem__, ids)), _artifact_fields,
                          _artifact_to_dict, list(map(self.artifact_fields.get, ids)),
                          list(map(self.artifact_lines.get, ids)))
        nodes = repo.taxonomy.nodes
        # Nodes are frozen: the same node objects in the same order encode alike.
        same_nodes = len(nodes) == len(self.nodes) and all(
            map(operator.is_, nodes.values(), self.nodes))
        return _document(
            _record_lines(artifacts),
            _record_lines(_kept(repo.assignments, _assignment_fields, Assignment.to_dict,
                                self.assignment_fields, self.assignment_lines)),
            _record_lines(_kept(repo.edit_log, _edit_fields, EditRecord.to_dict,
                                self.edit_fields, self.edit_lines)),
            _record_lines(self.node_lines if same_nodes
                          else _encoded(_structured_doc(repo.taxonomy)["nodes"])),
        )


def _kept(records: list, fields_of, to_dict, fields: list, lines: list) -> list[str]:
    """Each record's loaded line while its fields equal those at its position, else its encoding.

    Records past the end of ``fields`` are new, and are encoded.
    """
    out = lines[:len(records)]
    for i in itertools.compress(range(len(out)), map(operator.ne, map(fields_of, records), fields)):
        out[i] = encode_record(to_dict(records[i]))
    out += [encode_record(to_dict(r)) for r in records[len(out):]]
    return out


def _stamp(data: bytes) -> bytes:
    """The sidecar's record of bytes this module wrote: schema, length and CRC-32."""
    return b"%d %d %d\n" % (SCHEMA_VERSION, len(data), zlib.crc32(data))


@contextlib.contextmanager
def editing(path: str | os.PathLike):
    """Load the repository at ``path`` for one edit, and save it if the block succeeds.

    An exclusive ``flock`` on the sidecar ``<path>.lock`` (next to a
    symlink's target) is held from before the read until after the save,
    so a second writer fails at once with ``RepositoryLocked``.  Closing
    the descriptor releases it however the block ends; a block that raises
    leaves the file and the sidecar as they were.  Once the lock is held, a
    ``<path>.tmp`` is deleted: only a writer killed mid-save leaves one.

    The load makes every check ``load_repository`` makes.  After a save,
    the sidecar holds the ``_stamp`` of the bytes written, rewritten in
    place because renaming over a locked file would void the lock.  When
    the file still holds exactly those bytes, the save reuses the line of
    every record whose fields are unchanged since load and encodes only
    the others; otherwise (no sidecar, a schema-1 file, a hand edit) it
    encodes every record.  Either way the file gets
    ``serialize_repository``'s bytes.
    """
    target = os.path.realpath(path)
    try:
        os.stat(path)  # a missing repository gets no sidecar
    except OSError as exc:
        raise RepositoryIOError(f"cannot read repository {path!s}: {exc}") from exc
    try:
        lock = os.open(f"{target}.lock", os.O_RDWR | os.O_CREAT, 0o666)
    except OSError as exc:
        raise RepositoryIOError(f"cannot lock repository {path!s}: {exc}") from exc
    try:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RepositoryLocked(f"repository {path!s} is locked by another writer") from None
        with contextlib.suppress(OSError):
            os.unlink(f"{target}.tmp")
        data = _read(path)
        trusted = os.pread(lock, 64, 0) == _stamp(data)  # a stamp is shorter
        text = data.decode("utf-8")
        del data  # the file is held once, as text
        repo = deserialize_repository(text)
        sections = _section_lines(text, repo) if trusted else None
        loaded = _Loaded(repo, sections) if sections is not None else None
        del text
        yield repo
        stamp = _stamp(_write(serialize_repository(repo) if loaded is None
                              else loaded.serialize(repo), path))
        os.pwrite(lock, stamp, 0)
        os.ftruncate(lock, len(stamp))
    finally:
        os.close(lock)


# --- bulk ingestion ---


def read_artifacts_jsonl(text: str) -> list[Artifact]:
    """Parse artifacts from JSON-Lines text, one object per line."""
    artifacts = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"line {lineno}: invalid JSON: {exc}") from exc
        artifacts.append(_artifact_from_dict(doc, f"line {lineno}"))
    return artifacts


def read_design_objects_csv(text: str) -> list[Artifact]:
    """Parse a design-model export: `object_id,sb11_code,version,<attr...>`.

    Every column after the three fixed ones becomes an attribute.  The
    classification code lands in attr ``sb11_code`` exactly as exported
    (audits need the faulty spelling, so no normalization here); an empty
    code cell leaves the attribute unset.
    """
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
