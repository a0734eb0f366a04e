"""Artifact repository: the records and their file format, plus persistence.

Requirements, design objects, test cases, source units, and compliance
clauses all live in a single repository file together with the taxonomy,
the artifact-to-class assignments, and the edit log.  This module owns
the records' stored format: it declares ``Artifact``, ``Assignment`` and
``EditRecord``, each with one table of the rules its stored fields obey
(``_TABLES``) and a line encoder; ``taxonomy`` owns the node's.
``linkage`` edits the records and imports this module, never the reverse.

Persistence is a canonical JSON document: sorted keys, stable ordering,
trailing newline, so that saving the same repository twice yields
byte-identical files.  Schema 2 writes each artifact, assignment,
edit-log entry and taxonomy node as one compact line, so a change to one
record is one line in a diff.  Each line is exactly what
``json.dumps(doc, sort_keys=True, ensure_ascii=False)`` writes for the
record's stored document.  A save refuses what a load refuses, and
writes nothing: a field of the wrong type raises TypeError, a value the
table refuses raises ValueError, and an assignment to a missing
artifact or code raises ReferentialIntegrityError.  Schema 1 files, the
same document indented, still load and are rewritten as schema 2 by
their next save.

A load checks each section of records against its table a column at a
time, converts what a hand-written file may hold (a number in attrs, a
null time), and builds the records in one pass (``_decode``); only a
fault sends it record by record, to name the first faulty record by
index.  The taxonomy's nodes are decoded alike (``taxonomy``).

Commands that change the repository go through ``editing``: one writer
at a time holds an exclusive lock on the sidecar file ``<path>.lock``.
The save keeps the edit log's lines and encodes every other record.  An
edit of some artifacts' records, as ``assign``, ``unassign``,
``mark-unclassifiable`` and ``split`` are, names those artifacts, and
may add one under a name that is absent, as a split adds its parts:
while the stamp vouches for a file that holds no backslash, it decodes
the taxonomy, the named artifacts and their assignments alone, and its
save encodes those again and splices them, with the new artifacts,
assignments and log entries, into the file's other bytes, copied unread.
So under a forged stamp a hand edit of another artifact's records passes
it unchecked.  The sidecar never holds data, only the stamp of the bytes
last saved, which ``editing`` and ``save_repository`` write; deleting it
costs the next command one full load.  Library callers that mutate a
repository and ``save_repository`` it take no lock, so they must not run
alongside a command that edits the same file.

Read commands go through ``read_sections``, which reads the stamp but
never creates or writes the sidecar.  While the stamp vouches for the
file, they decode and check only the sections they read, each parsed in
place, and leave the others empty; a command that reads named artifacts
builds and checks those records alone, so under a forged stamp a hand
edit of any other artifact passes it unchecked.  ``load_repository`` and
``deserialize_repository`` always decode and check every section.

The edit log is append-only.  Inside ``editing``, ``repo.edit_log`` starts
empty and holds only the entries the block appends; the save writes the
file's log lines and then theirs.  While the sidecar vouches for the file,
the log's lines are kept as text, neither decoded nor checked.

Records are values.  An edit replaces a record with a changed copy
(``dataclasses.replace``) at its key or position, and never sets a field
of one or changes its ``attrs`` in place: the link index holds the
assignments themselves and finds them by identity (``linkage._position``),
so an assignment changed in place would leave it stale.

A load pauses Python's cyclic garbage collector while it builds the
repository, and so does ``editing``'s encode; each turns it back on only
if it was on.  The collector's state is process-wide, so a library
caller's other threads run without cyclic collection meanwhile.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import fcntl
import functools
import gc
import io
import itertools
import json
import operator
import os
import shutil
import zlib
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .errors import (
    DuplicateId,
    MalformedRecord,
    ReferentialIntegrityError,
    RepositoryIOError,
    RepositoryLocked,
    SchemaVersionMismatch,
    TaxTraceError,
    UnknownId,
)
from .taxonomy import (_STR, _STR_OR_NONE, Taxonomy, _build, _record_lines, _structured_records,
                       _structured_text, _text)

REQUIREMENT = "requirement"
DESIGN_OBJECT = "design-object"
TEST_CASE = "test-case"
SOURCE_UNIT = "source-unit"
COMPLIANCE_CLAUSE = "compliance-clause"

ARTIFACT_KINDS = frozenset(
    {REQUIREMENT, DESIGN_OBJECT, TEST_CASE, SOURCE_UNIT, COMPLIANCE_CLAUSE}
)

MANUAL = "manual"
SUGGESTED = "suggested"
IMPORTED = "imported"
PROVENANCES = frozenset({MANUAL, SUGGESTED, IMPORTED})

CONFIRMED = "confirmed"
PROPOSED = "proposed"
REJECTED = "rejected"
UNCLASSIFIABLE = "unclassifiable"
STATUSES = frozenset({CONFIRMED, PROPOSED, REJECTED, UNCLASSIFIABLE})

# Edit-log ops and link kinds.  A repository only ever logs taxonomic links;
# direct ones exist in the maintenance-cost simulation (``cost``).
ADD = "add"
DELETE = "delete"
TAXONOMIC = "taxonomic"
DIRECT = "direct"

SCHEMA_VERSION = 2

CODE_ATTR = "sb11_code"


@dataclass
class Artifact:
    """One engineering artifact of any kind.

    ``attrs`` values are opaque strings; numeric interpretation is the
    audit module's business.  ``archived`` marks artifacts retired by a
    split: they stay on record but drop out of queries.  A value: to
    change one, put a ``dataclasses.replace`` copy under its id (see the
    module docstring).
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
class Assignment:
    """One artifact-to-class half-link, or an unclassifiable marker.

    ``code`` is None exactly when status is unclassifiable; the note then
    starts with the reason category.  A value: to change one, put a
    ``dataclasses.replace`` copy in its place, because ``linkage.LinkIndex``
    holds the repository's own records and finds them by identity.
    """

    artifact_id: str
    code: str | None
    provenance: str
    status: str
    note: str | None = None
    created_at: str = ""


@dataclass
class EditRecord:
    """One entry of the append-only link edit log."""

    op: str
    link_kind: str
    endpoints: tuple[str, str]
    cause: str


@dataclass
class Repository:
    """Taxonomy, artifacts, assignments, and the append-only edit log.

    Inside ``editing``, ``edit_log`` holds only the entries the edit appends;
    the save writes them after the file's log lines.  ``read_sections`` may
    leave the sections it was not asked for empty.

    ``links`` is the ``linkage.LinkIndex`` that ``linkage.links`` builds
    from the assignments on first use; this module never reads it.  Once it
    exists, assignments change only through ``linkage`` (``assign``,
    ``unassign``, ``mark_unclassifiable`` and ``split_artifact``), which
    keep it up to date.  Every record is a value: an edit replaces it at
    its key or position, never changes it in place (see the module
    docstring).
    """

    taxonomy: Taxonomy
    artifacts: dict[str, Artifact] = field(default_factory=dict)
    assignments: list[Assignment] = field(default_factory=list)
    edit_log: list[EditRecord] = field(default_factory=list)
    links: object = field(default=None, repr=False, compare=False)


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


# --- the stored records: one rule table per kind ---


def _saved_attrs(column: list) -> bool:
    """Whether every record's attrs are an object of strings, as a save writes them."""
    return {dict}.issuperset(map(type, column)) and _STR.issuperset(
        map(type, itertools.chain.from_iterable(map(dict.values, column))))


def _attr_fault(column: list) -> str | None:
    """Attrs, null or empty for none, map keys to strings, numbers or booleans."""
    if not _saved_attrs(column):
        for attrs in column:
            if type(attrs or {}) is not dict:
                return "attrs must be an object"
            for k, v in (attrs or {}).items():
                if v is None or type(v) in (list, dict):
                    return f"attr {k!r} must be a string, number or boolean"


def _code_fault(codes: list, statuses: list) -> str | None:
    """A code is null exactly for an unclassifiable status."""
    if list(map(operator.is_, codes, itertools.repeat(None))) != list(
            map(UNCLASSIFIABLE.__eq__, statuses)):
        return "code must be null exactly for unclassifiable status"


def _pair_fault(column: list) -> str | None:
    """Endpoints are a list of two strings."""
    if not ({list}.issuperset(map(type, column)) and {2}.issuperset(map(len, column))
            and _STR.issuperset(map(type, itertools.chain.from_iterable(column)))):
        return "endpoints must be a pair of strings"


class _Table(NamedTuple):
    """A record kind: its class, its fields in order, the value an absent key
    stands for where not None, and the rules, checked in this order.

    A rule is a field, the types its values may take, the values it may
    take (None: any) and the message for a record that breaks it, formatted
    with its value.  A function rule is the fields it reads and a function
    of their columns that returns the first faulty record's message or None.
    """

    cls: type
    fields: tuple[str, ...]
    absent: dict
    rules: tuple


def _table(cls: type, absent: dict, *rules) -> _Table:
    return _Table(cls, tuple(f.name for f in fields(cls)), absent, rules)


# The record kinds of the sections after the taxonomy; ``taxonomy`` declares the nodes.
_TABLES = {
    "artifacts": _table(
        Artifact, {"archived": False},
        ("id", _STR, None, "missing or non-string 'id'"),
        ("kind", _STR, None, "missing or non-string 'kind'"),
        ("title", _STR, None, "missing or non-string 'title'"),
        ("kind", _STR, ARTIFACT_KINDS, "unknown artifact kind {!r}"),
        (("attrs",), _attr_fault),
        ("body", _STR_OR_NONE, None, "body must be a string or null"),
        ("document", _STR_OR_NONE, None, "document must be a string or null"),
        ("version", _STR_OR_NONE, None, "version must be a string or null"),
        ("archived", frozenset({bool}), None, "archived must be true or false")),
    "assignments": _table(
        Assignment, {},
        ("artifact_id", _STR, None, "missing artifact_id"),
        ("provenance", _STR, PROVENANCES, "unknown provenance {!r}"),
        ("status", _STR, STATUSES, "unknown status {!r}"),
        ("code", _STR_OR_NONE, None, "code must be a string or null"),
        (("code", "status"), _code_fault),
        ("note", _STR_OR_NONE, None, "note must be a string or null"),
        ("created_at", _STR_OR_NONE, None, "created_at must be a string or null")),
    "edit_log": _table(
        EditRecord, {},
        ("op", _STR, frozenset({ADD, DELETE}), "unknown op {!r}"),
        ("link_kind", _STR, frozenset({TAXONOMIC, DIRECT}), "unknown link_kind {!r}"),
        (("endpoints",), _pair_fault),
        ("cause", _STR_OR_NONE, None, "cause must be a string or null")),
}


def _fault(rules, values) -> str | None:
    """The message of the first of ``rules`` that the columns ``values(field)`` break, or None.

    For the values of one record, that is the record's message.
    """
    for rule in rules:
        if len(rule) == 2:
            names, check = rule
            message = check(*map(values, names))
        else:
            name, types, allowed, message = rule
            column = values(name)
            # The types first: a list or an object is not hashable.
            if types.issuperset(map(type, column)) and (
                    allowed is None or allowed.issuperset(column)):
                continue
            message = message.format(column[0])
        if message:
            return message


# How a load turns a value it accepts into the record's: a number or
# boolean in attrs into the JSON that spelled it, null text into "".
_CONVERTED = {
    "attrs": lambda column: column if _saved_attrs(column) else [
        {k: v if type(v) is str else json.dumps(v) for k, v in (attrs or {}).items()}
        for attrs in column],
    "created_at": lambda column: [value or "" for value in column],
    "cause": lambda column: [value or "" for value in column],
    "endpoints": lambda column: list(map(tuple, column)),
}


def _decode(table: _Table, records: list, where: str) -> list:
    """``table``'s records in the parsed ``records``, checked and built a column at a time.

    Only when a rule fails are the rules run record by record, to raise the
    first faulty one's message at ``where.format(i)``, formatted only then;
    an artifact id repeated before it is reported first.
    """
    absent = table.absent
    if {dict}.issuperset(map(type, records)):
        columns = {name: list(map(dict.get, records, itertools.repeat(name),
                                  itertools.repeat(absent.get(name))))
                   for name in table.fields}
        if _fault(table.rules, columns.__getitem__) is None:
            for name in columns.keys() & _CONVERTED.keys():
                columns[name] = _CONVERTED[name](columns[name])
            return list(map(table.cls, *columns.values()))
    for i, record in enumerate(records):
        fault = ("expected an object" if type(record) is not dict else _fault(
            table.rules, lambda name: [record.get(name, absent.get(name))]))
        if fault:
            if table.cls is Artifact:
                _by_id(_decode(table, records[:i], where))
            raise MalformedRecord(f"{where.format(i)}: {fault}")
    raise AssertionError("a column broke a rule that no record breaks")


def _by_id(artifacts: list[Artifact]) -> dict[str, Artifact]:
    """The artifacts keyed by id; the first one whose id came before is rejected."""
    by_id = {a.id: a for a in artifacts}
    if len(by_id) < len(artifacts):
        seen = set()
        for a in artifacts:
            if a.id in seen:
                raise ReferentialIntegrityError(f"artifact id {a.id!r} appears twice")
            seen.add(a.id)
    return by_id


# --- canonical serialization ---


# Each record kind's line encoder passes every string through ``_text``,
# ``json``'s own ``encode_basestring``, which raises TypeError for anything
# but a str; ``_check_saved`` then refuses a value that a load refuses.
def _artifact_line(a: Artifact) -> str:
    archived, attrs = a.archived, a.attrs
    if archived is not True and archived is not False:
        raise TypeError(f"archived must be True or False, not {archived!r}")
    if not isinstance(attrs, dict):
        raise TypeError(f"attrs must be a dict of strings, not {attrs!r}")
    # In key order, as ``sort_keys`` writes them; ``_text`` checks each key and value.
    pairs = (", ".join([f"{_text(k)}: {_text(v)}" for k, v in sorted(attrs.items())])
             if attrs else "")
    line = f'{{"archived": {"true" if archived else "false"}, "attrs": {{{pairs}}}'
    if a.body is not None:
        line += f', "body": {_text(a.body)}'
    if a.document is not None:
        line += f', "document": {_text(a.document)}'
    line += f', "id": {_text(a.id)}, "kind": {_text(a.kind)}, "title": {_text(a.title)}'
    if a.version is not None:
        line += f', "version": {_text(a.version)}'
    return line + "}"


def _assignment_line(a: Assignment) -> str:
    code, note = a.code, a.note
    return (f'{{"artifact_id": {_text(a.artifact_id)}, '
            f'"code": {"null" if code is None else _text(code)}, '
            f'"created_at": {_text(a.created_at)}, '
            f'"note": {"null" if note is None else _text(note)}, '
            f'"provenance": {_text(a.provenance)}, "status": {_text(a.status)}}}')


def _edit_line(e: EditRecord) -> str:
    endpoints = e.endpoints
    if not isinstance(endpoints, (tuple, list)) or len(endpoints) != 2:
        raise TypeError(f"endpoints must be a pair of strings, not {endpoints!r}")
    source, target = endpoints
    return (f'{{"cause": {_text(e.cause)}, "endpoints": [{_text(source)}, {_text(target)}], '
            f'"link_kind": {_text(e.link_kind)}, "op": {_text(e.op)}}}')


def _serialize(repo: Repository, log: str) -> str:
    """The file of ``repo``, with the edit-log record lines ``log`` before those of its own log.

    ``log`` holds the lines joined as in a file, or is empty.  Artifacts
    are written by id, the assignments and the edit log as listed, and
    taxonomy nodes by code.  Each section is encoded in turn, so that
    only one section's lines are held.  The records are checked after
    every one is encoded (``_check_saved``), as a load checks them after
    every one is decoded.
    """
    artifacts = repo.artifacts
    by_id = map(artifacts.__getitem__, sorted(artifacts))
    logged = itertools.chain([log] if log else [], map(_edit_line, repo.edit_log))
    text = (
        f'{{\n"artifacts": {_record_lines(map(_artifact_line, by_id))},\n'
        f'"assignments": {_record_lines(map(_assignment_line, repo.assignments))},\n'
        f'"edit_log": {_record_lines(logged)},\n'
        f'"schema_version": {SCHEMA_VERSION},\n'
        f'"taxonomy": {_structured_text(repo.taxonomy)}\n}}\n'
    )
    _check_saved(repo)
    return text


def _check_saved(repo: Repository) -> None:
    """ValueError for a record that encodes but that a load refuses; then ``check_integrity``.

    That is an artifact under a key that is not its id, and a value that
    breaks an allowed-value rule or the code/status rule of its table.
    """
    for key, artifact in repo.artifacts.items():
        if artifact.id != key:
            raise ValueError(f"artifact {artifact.id!r} is stored under key {key!r}")
    for table, records in zip(_TABLES.values(), (repo.artifacts.values(), repo.assignments,
                                                 repo.edit_log)):
        rules = [rule for rule in table.rules
                 if rule[-1] is _code_fault or len(rule) == 4 and rule[2] is not None]
        values = functools.cache(lambda name: list(map(operator.attrgetter(name), records)))
        if _fault(rules, values):
            for record in records:
                fault = _fault(rules, lambda name: [getattr(record, name)])
                if fault:
                    raise ValueError(fault)
    check_integrity(repo)


def serialize_repository(repo: Repository) -> str:
    """Render the repository as canonical JSON text, one record per line."""
    return _serialize(repo, "")


def _records(value, key: str) -> list:
    """The record list stored under ``key``; a missing key or null means none."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise MalformedRecord(f"{key} must be a list")
    return value


def _one_artifact(value, ids: tuple[str, ...]) -> tuple[dict[str, Artifact], list]:
    """The artifacts section of parsed ``value``, holding at most the artifacts ``ids``.

    Only those records are decoded and checked, as a load does and under
    the same ``artifacts[i]`` location; an absent id is left out.  Of the
    others only the id is looked at: the list of every record's id, in
    file order, is returned too.  A list that holds a non-object, or holds
    one of ``ids`` twice, is decoded in full (``_section``), which raises
    what a load raises.
    """
    records = _records(value, "artifacts")
    if {dict}.issuperset(map(type, records)):
        stored = list(map(dict.get, records, itertools.repeat("id")))
        artifacts = {}
        for artifact_id in ids:
            count = stored.count(artifact_id)
            if count > 1:
                break
            if count:
                i = stored.index(artifact_id)
                [artifacts[artifact_id]] = _decode(_TABLES["artifacts"], [records[i]],
                                                   f"artifacts[{i}]")
        else:
            return artifacts, stored
    _section("artifacts", records)  # raises: a non-object, or an id twice
    raise AssertionError("unreachable")


# The order in which a load decodes the sections, which is also the order
# of ``Repository``'s fields: the first fault in it is the one reported.
_LOAD_ORDER = ("taxonomy", "artifacts", "assignments", "edit_log")


def _section(name: str, value):
    """The records of section ``name`` from its parsed JSON ``value``, checked as a load does."""
    if name == "taxonomy":
        return _build(_structured_records(value or {"nodes": []}))
    records = _decode(_TABLES[name], _records(value, name), f"{name}[{{}}]")
    return _by_id(records) if name == "artifacts" else records


@contextlib.contextmanager
def _gc_paused():
    """Keep Python's cyclic garbage collector off in the block; on again only if it was on.

    A repository is tens of thousands of new objects in no reference
    cycle, so each collection that building or reading one triggers scans
    them in vain.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def deserialize_repository(text: str) -> Repository:
    """Rebuild a repository from canonical JSON text.

    The stored taxonomy is validated from the decoded document with the
    same checks as a structured taxonomy file, without re-encoding it.
    The cyclic garbage collector is paused meanwhile.
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
    taxonomy, artifacts, assignments, edit_log = (
        _section(name, doc.get(name)) for name in _LOAD_ORDER)
    repo = Repository(taxonomy, artifacts, assignments, edit_log)
    check_integrity(repo)
    return repo


def _write(pieces, path: str | os.PathLike) -> bytes:
    """Write the text ``pieces`` over ``path`` atomically and durably; return the bytes' stamp.

    Each piece is encoded and written in turn, never joined to the
    others, and the stamp's CRC-32 is computed piece by piece.  The bytes
    go to ``<path>.tmp`` in the same directory, which is flushed, fsynced
    and then renamed over ``path`` with ``os.replace``; the directory is
    fsynced after the rename, so that the rename itself survives a crash.
    A crash leaves either the old file or the new one.  As with a write in
    place, a symlink at ``path`` is followed and the replaced file's
    permission bits are kept; a new file gets the umask's.  On any failure
    the temporary file is removed; an ``OSError`` is raised as
    ``RepositoryIOError``.
    """
    target = os.path.realpath(path)
    tmp = f"{target}.tmp"
    size = crc = 0
    try:
        with open(tmp, "wb") as f:
            with contextlib.suppress(FileNotFoundError):
                shutil.copymode(target, tmp)
            for piece in pieces:
                data = piece.encode("utf-8")
                f.write(data)
                size += len(data)
                crc = zlib.crc32(data, crc)
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
    return _stamp_of(size, crc)


def save_repository(repo: Repository, path: str | os.PathLike) -> None:
    """Write the repository to ``path`` atomically, always as the current schema.

    See ``_write`` for how.  After the rename, the sidecar ``<path>.lock``
    (next to a symlink's target) gets the ``_stamp`` of the bytes written.
    This takes no lock: a stamp that a racing writer or a failed sidecar
    write left stale does not match the file, and costs the next command a
    full load.  A failed save leaves the old stamp.  Commands that edit
    save through ``editing``.
    """
    stamp = _write([serialize_repository(repo)], path)
    with contextlib.suppress(OSError):  # the file is saved; a stale stamp is safe
        sidecar = os.open(f"{os.path.realpath(path)}.lock", os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            _put_stamp(sidecar, stamp)
        finally:
            os.close(sidecar)


def _read(path: str | os.PathLike) -> bytes:
    """The repository file's bytes; an ``OSError`` is raised as ``RepositoryIOError``."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise RepositoryIOError(f"cannot read repository {path!s}: {exc}") from exc


def load_repository(path: str | os.PathLike) -> Repository:
    return deserialize_repository(_read(path).decode("utf-8"))


# --- the sidecar's stamp, and the sections of a file it vouches for ---


# The revision of the bytes this module writes, in every stamp.  Stamps of
# an older revision do not vouch for their file, whose edit-log lines an
# edit would keep.  Revision 2 writes every stored taxonomy code in normal
# form; before it, a code padded as "AC " could be stored.
_CODEC_REVISION = 2


def _stamp(data: bytes) -> bytes:
    """The sidecar's record of bytes this module wrote: schema, codec revision, length, CRC-32."""
    return _stamp_of(len(data), zlib.crc32(data))


def _stamp_of(size: int, crc: int) -> bytes:
    """The stamp of ``size`` bytes whose CRC-32 is ``crc``."""
    return b"%d %d %d %d\n" % (SCHEMA_VERSION, _CODEC_REVISION, size, crc)


def _put_stamp(sidecar: int, stamp: bytes) -> None:
    """Write ``stamp`` over the open sidecar, in place."""
    os.pwrite(sidecar, stamp, 0)
    os.ftruncate(sidecar, len(stamp))


# The sections in the order a save writes them.  Each starts a line of its
# own, as ``"name": value``; a record line starts with "{" and holds no raw
# newline, so in a file this module wrote no other line starts so.
_SECTIONS = ("artifacts", "assignments", "edit_log", "schema_version", "taxonomy")
_raw_decode = json.JSONDecoder().raw_decode


class _OtherLayout(Exception):
    """The text is not laid out as a save writes it, so the caller loads it in full."""


def _spans(text: str) -> dict[str, tuple[int, int]]:
    """Each section's value in ``text``, as the offsets of its first and past its last character.

    A value runs from its header to the comma before the next header, the
    last one to the closing "\\n}\\n".  ``_OtherLayout`` unless the headers
    are in order, each value but the last is followed by a comma, and the
    schema version is the current one.
    """
    if not (text.startswith("{") and text.endswith("\n}\n")):
        raise _OtherLayout
    heads, pos = [], 0
    for name in _SECTIONS:
        pos = text.find(f'\n"{name}": ', pos)
        if pos < 0:
            raise _OtherLayout
        heads.append(pos)
    if heads[0] != 1 or any(text[head - 1] != "," for head in heads[1:]):
        raise _OtherLayout
    ends = [head - 1 for head in heads[1:]] + [len(text) - len("\n}\n")]
    span = {name: (head + len(name) + len('\n"": '), end)
            for name, head, end in zip(_SECTIONS, heads, ends)}
    if text[slice(*span["schema_version"])] != str(SCHEMA_VERSION):
        raise _OtherLayout
    return span


def _log_lines(text: str, start: int, end: int) -> tuple[int, int]:
    """The offsets of the record lines of the edit log ``text[start:end]``; equal for "[]".

    ``_OtherLayout`` unless the log holds one record per line: the list
    opens "[\\n{" and closes "}\\n]", and every line break inside it stands
    in "},\\n{", so each line runs from "{" to "}".  The lines are neither
    decoded nor checked.
    """
    if end - start == 2 and text.startswith("[]", start):
        return end, end
    if not (text.startswith("[\n{", start) and text.endswith("}\n]", start, end)):
        raise _OtherLayout
    start, end = start + 2, end - 2
    if text.count("\n", start, end) != text.count("},\n{", start, end):
        raise _OtherLayout
    return start, end


def _value(text: str, start: int, end: int):
    """The JSON value that fills ``text[start:end]``, parsed in place, copying no part of it."""
    try:
        value, stop = _raw_decode(text, start)
    except json.JSONDecodeError:
        raise _OtherLayout from None
    if stop != end:
        raise _OtherLayout
    return value


def _load_vouched(text: str, sections: tuple[str, ...],
                  ids: tuple[str, ...] | None = None) -> tuple[Repository, str] | None:
    """The repository of ``text``, a file its stamp vouches for, with only ``sections`` read.

    Each of the taxonomy, artifacts and assignments named is parsed in
    place (``_value``), then decoded and checked as
    ``deserialize_repository`` does, and so is the repository
    (``check_integrity``).  With ``ids`` given, the artifacts hold those
    of them that are present: the section's other records are parsed but
    neither built nor checked (``_one_artifact``), so under a forged
    stamp a hand edit of one of them passes unchecked.
    Every other section is left empty and unchecked, but "edit_log" named
    returns the log's record lines as they stand in ``text``, unread.
    None unless ``text`` is laid out as a save writes it (``_spans``), a
    read section ends at the next header and the log holds one record per
    line (``_log_lines``).  The caller then loads the file in full.  A
    section not read is not scanned either, so a key repeated inside one
    under a forged stamp goes unseen, where the full load takes the last
    of two equal keys.
    """
    try:
        span = _spans(text)
        log = text[slice(*_log_lines(text, *span["edit_log"]))] if "edit_log" in sections else ""
        fields = {"taxonomy": Taxonomy()}
        for name in _LOAD_ORDER[:-1]:  # all but the log, which is never decoded here
            if name in sections:
                value = _value(text, *span[name])
                fields[name] = (_one_artifact(value, ids)[0]
                                if name == "artifacts" and ids is not None
                                else _section(name, value))
                del value  # a parsed section is dropped once decoded
    except _OtherLayout:
        return None
    repo = Repository(**fields)
    check_integrity(repo)
    return repo, log


def read_sections(path: str | os.PathLike, sections: tuple[str, ...] | None,
                  ids: tuple[str, ...] | None = None) -> Repository:
    """The repository at ``path``, with only ``sections`` read when its sidecar vouches for it.

    ``sections`` names some of "taxonomy", "artifacts" and "assignments".
    When the sidecar ``<path>.lock`` holds the stamp of the file's bytes,
    only those are decoded and checked (``_load_vouched``); with the
    artifact ``ids`` given too, of the artifacts only those are built and
    checked, so a hand edit of another artifact passes unchecked under a
    forged stamp.  Otherwise, and always with ``sections`` None, this is
    ``load_repository``: all are.
    The sidecar is only read, never created or written.  The cyclic
    garbage collector is paused meanwhile.
    """
    if sections is None:
        return load_repository(path)
    data = _read(path)
    try:
        with open(f"{os.path.realpath(path)}.lock", "rb") as sidecar:
            vouched = sidecar.read(64) == _stamp(data)  # a stamp is shorter
    except OSError:
        vouched = False
    with _gc_paused():
        text = data.decode("utf-8")
        del data  # the file is held once, as text
        kept = _load_vouched(text, sections, ids) if vouched else None
        return deserialize_repository(text) if kept is None else kept[0]


# --- editing: one locked writer, keeping the edit log's lines ---


def _load_one(text: str, ids: tuple[str, ...]):
    """The repository of ``text`` holding the records of the artifacts ``ids``, and their save.

    ``text`` is a file its stamp vouches for, holding no backslash, so
    every string in it is written as a save writes it.  The repository
    holds the taxonomy, decoded and checked as a load does; those of the
    artifacts that are present, an absent id loading as absent
    (``_one_artifact``); their assignments, each found as a line that
    starts ``{"artifact_id": <its id>, ``, decoded together in file
    order; and an empty log.  ``check_integrity`` checks them.  No other
    record is checked, and the log is not read.  The only other record
    built is, for each absent id, the stored artifact whose line a new
    line of that id would precede: its line is found by encoding it, as a
    present artifact's is, and the id's place is found by bisecting the
    stored ids.  An id whose line would follow every other goes at the
    section's end.

    Returns the repository and a function that, given it after the edit,
    returns the pieces of the file to write (``_spliced``).  Raises
    ``_OtherLayout`` unless ``text`` is laid out as a save writes it
    (``_spans``, ``_log_lines``) and each artifact line looked for is
    exactly its artifact's encoding; a fault in a record read raises a
    ``TaxTraceError``, as a load does.
    """
    ids = tuple(dict.fromkeys(ids))
    span = _spans(text)
    _log_lines(text, *span["edit_log"])
    taxonomy = _section("taxonomy", _value(text, *span["taxonomy"]))
    start, end = span["artifacts"]
    records = _value(text, start, end)
    artifacts, stored = _one_artifact(records, ids)

    def line_of(artifact: Artifact) -> tuple[int, int]:
        encoded = _artifact_line(artifact)
        pos = text.find(f"\n{encoded}", start, end) + 1
        if not pos:
            raise _OtherLayout
        return pos, pos + len(encoded)

    lines = {artifact_id: line_of(artifact) for artifact_id, artifact in artifacts.items()}
    places: dict[str, int | None] = {}
    for artifact_id in ids:
        if artifact_id in artifacts:
            continue
        if not _STR.issuperset(map(type, stored)):  # bisect compares them with ``artifact_id``
            raise _OtherLayout
        i = bisect.bisect_left(stored, artifact_id)
        if i == len(stored):
            places[artifact_id] = None
        else:
            after = artifacts.get(stored[i]) or _decode(_TABLES["artifacts"], [records[i]],
                                                        f"artifacts[{i}]")[0]
            places[artifact_id] = line_of(after)[0]
    del records
    start, end = span["assignments"]
    found = []
    for artifact_id in ids:
        head = f'\n{{"artifact_id": {_text(artifact_id)}, '
        pos = text.find(head, start, end)
        while pos >= 0:
            try:
                doc, stop = _raw_decode(text, pos + 1)
            except json.JSONDecodeError:
                raise _OtherLayout from None
            if doc.get("artifact_id") != artifact_id:  # a second "artifact_id" key
                raise _OtherLayout
            found.append((pos + 1, stop, doc))
            pos = text.find(head, stop, end)
    found.sort(key=lambda record: record[0])
    assignments = _decode(_TABLES["assignments"], [doc for *_, doc in found], "assignments[{}]")
    repo = Repository(taxonomy, artifacts, assignments)
    check_integrity(repo)
    codes = set(taxonomy.nodes)
    links = [(pos, stop) for pos, stop, _ in found]
    return repo, lambda edited: _spliced(text, span, ids, lines, places, links, codes, edited)


def _spliced(text: str, span: dict[str, tuple[int, int]], ids: tuple[str, ...],
             lines: dict[str, tuple[int, int]], places: dict[str, int | None],
             links: list[tuple[int, int]], codes: set[str], repo: Repository):
    """The pieces of ``text`` with the records of ``repo``, loaded by ``_load_one``, put back.

    The taxonomy, each loaded artifact (at ``lines``) and each loaded
    assignment (at ``links``) are encoded again at their places.  A new
    artifact goes in at its place in ``places``, before the line found
    there or at the section's end, after any other new artifact of the
    same place with a lower id.  New assignments and new log entries are
    added at the end of their sections, and every other character is
    copied.  ValueError, before anything is encoded, when the edit reached
    beyond what was loaded: an artifact removed or added under an id not
    in ``ids``, fewer assignments, an assignment of an artifact not in
    ``ids``, or a class removed, which another artifact's assignments may
    name.  Then the records are checked as a save checks them
    (``_check_saved``).
    """
    artifacts, assignments = repo.artifacts, repo.assignments
    named = set(ids)
    if (not lines.keys() <= artifacts.keys() <= named
            or len(assignments) < len(links)
            or any(a.artifact_id not in named for a in assignments)
            or not repo.taxonomy.nodes.keys() >= codes):
        raise ValueError(f"an edit of artifact {ids[0]!r} changed other records")
    edits = [(*lines[i], _artifact_line(artifacts[i])) for i in lines]
    edits += [(*link, _assignment_line(a)) for link, a in zip(links, assignments)]
    last = []
    for artifact_id in sorted(artifacts.keys() - lines.keys()):
        line, place = _artifact_line(artifacts[artifact_id]), places[artifact_id]
        if place is None:
            last.append(line)
        else:
            edits.append((place, place, f"{line},\n"))
    edits += [
        _appended(text, *span["artifacts"], last),
        _appended(text, *span["assignments"], map(_assignment_line, assignments[len(links):])),
        _appended(text, *span["edit_log"], map(_edit_line, repo.edit_log)),
        (*span["taxonomy"], _structured_text(repo.taxonomy)),
    ]
    _check_saved(repo)
    edits.sort(key=lambda edit: edit[:2])  # stable: new lines of one place stay in id order
    return _pieces(text, edits)


def _appended(text: str, start: int, end: int, lines) -> tuple[int, int, str]:
    """The edit of the record list ``text[start:end]`` that adds record ``lines`` at its end."""
    added = ",\n".join(lines)
    if not added:
        return end, end, ""
    if end - start == 2:  # the empty "[]"
        return start, end, f"[\n{added}\n]"
    return end - 2, end - 2, f",\n{added}"


def _pieces(text: str, edits: list[tuple[int, int, str]]):
    """``text`` with each ``(start, end, new)`` of ``edits``, in order, replacing its span."""
    pos = 0
    for start, end, new in edits:
        yield text[pos:start]
        yield new
        pos = end
    yield text[pos:]


def _load_for_edit(text: str, trusted: bool, ids: tuple[str, ...] | None):
    """The repository of ``text`` for ``editing``, and the function giving the pieces of its save.

    With ``ids`` given, a file the stamp vouches for, holding no
    backslash, loads those artifacts' records alone (``_load_one``).  A
    file in another layout, or one in which they fail a check, loads as
    without ``ids``, so a fault is reported as a load reports it.
    """
    if trusted and ids is not None and "\\" not in text:
        try:
            return _load_one(text, ids)
        except (_OtherLayout, TaxTraceError):
            pass
    kept = _load_vouched(text, _LOAD_ORDER) if trusted else None
    if kept is None:
        repo = deserialize_repository(text)
        log, repo.edit_log = ",\n".join(map(_edit_line, repo.edit_log)), []
    else:
        repo, log = kept
    return repo, lambda edited: [_serialize(edited, log)]


@contextlib.contextmanager
def editing(path: str | os.PathLike, ids: tuple[str, ...] | None = None):
    """Load the repository at ``path`` for one edit, and save it if the block succeeds.

    An exclusive ``flock`` on the sidecar ``<path>.lock`` (next to a
    symlink's target) is held from before the read until after the save,
    so a second writer fails at once with ``RepositoryLocked``.  Closing
    the descriptor releases it however the block ends; a block that raises
    leaves the file and the sidecar as they were.  Once the lock is held, a
    ``<path>.tmp`` is deleted: only a writer killed mid-save leaves one.

    The block's ``repo.edit_log`` starts empty and is only appended to.
    The save writes the file's log lines, then the block's entries, and
    encodes every other record, so the file gets the bytes of
    ``serialize_repository``.

    After a save, the sidecar holds the ``_stamp`` of the bytes written,
    rewritten in place because renaming over a locked file would void the
    lock.  When the file still holds exactly those bytes, the log's lines
    are kept as text, neither decoded nor checked, and every other section
    loads with every check ``load_repository`` makes (``_load_vouched``).
    Otherwise (no sidecar, a stamp of an older codec revision, a log not
    one record per line, a hand edit) the whole file loads with those
    checks, and its log is encoded to lines at once.

    With the artifact ``ids`` given, the block edits those artifacts'
    records alone, and may add an artifact under an id of them that is
    absent, as ``split`` adds its parts.  While the stamp vouches for a
    file that holds no backslash, the repository holds only the taxonomy,
    those of the artifacts that are present and their assignments, and the
    save encodes those again and splices them, with the new artifacts,
    assignments and log entries, into the file's other bytes, which are
    copied unread (``_load_one``).  So under a forged stamp a hand edit of
    another artifact's records is copied unchecked.  The file gets the
    bytes of a full load, the same edit and ``serialize_repository``.  A
    block that changes any other record raises ValueError, and nothing is
    written.

    The load and the encode run with the cyclic garbage collector paused
    (``_gc_paused``); the block runs with it as the caller left it.
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
        with _gc_paused():
            text = data.decode("utf-8")
            del data  # the file is held once, as text
            repo, save = _load_for_edit(text, trusted, ids)
            del text
        yield repo
        with _gc_paused():
            pieces = save(repo)
        _put_stamp(lock, _write(pieces, path))
    finally:
        os.close(lock)


# --- bulk ingestion ---


def read_artifacts_jsonl(text: str) -> list[Artifact]:
    """Parse artifacts from JSON-Lines text, one object per line."""
    artifacts = []
    # Not ``splitlines``: a string may hold U+0085, U+2028 or U+2029 as it is.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"line {lineno}: invalid JSON: {exc}") from exc
        artifacts += _decode(_TABLES["artifacts"], [doc], f"line {lineno}")
    return artifacts


def read_design_objects_csv(text: str) -> list[Artifact]:
    """Parse a design-model export: `object_id,sb11_code,version,<attr...>`.

    Every column after the three fixed ones becomes an attribute.  The
    classification code lands in attr ``sb11_code`` exactly as exported
    (audits need the faulty spelling, so no normalization here); an empty
    code cell leaves the attribute unset.  A header that repeats a column
    name is refused, naming the first repeat.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise MalformedRecord("empty design-object file")
    header = rows[0]
    if header[:3] != ["object_id", CODE_ATTR, "version"]:
        raise MalformedRecord(
            f"expected header to start with 'object_id,{CODE_ATTR},version', got {','.join(header[:3])!r}"
        )
    for i, name in enumerate(header):
        if name in header[:i]:
            raise MalformedRecord(f"header repeats column {name!r}")
    attr_names = header[3:]
    artifacts = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise MalformedRecord(f"row {lineno}: expected {len(header)} fields, got {len(row)}")
        object_id = row[0].strip()
        if not object_id:
            raise MalformedRecord(f"row {lineno}: empty object_id")
        attrs = {name: value.strip() for name, value in zip(attr_names, row[3:])}
        code = row[1].strip()
        if code:
            attrs[CODE_ATTR] = code
        artifacts.append(Artifact(id=object_id, kind=DESIGN_OBJECT, title=object_id,
                                  attrs=attrs, version=row[2].strip() or None))
    return artifacts
