"""Artifact repository: the records and their file format, plus persistence.

Requirements, design objects, test cases, source units, and compliance
clauses all live in a single repository file together with the taxonomy,
the artifact-to-class assignments, and the edit log.  This module owns
the records' stored format: it declares ``Artifact``, ``Assignment`` and
``EditRecord``, each with one table of the rules its stored fields obey
(``_TABLES``) and a row encoder; ``taxonomy`` owns the node's.
``linkage`` edits the records and imports this module, never the reverse.

Persistence is a canonical JSON document: sorted keys, stable ordering,
trailing newline, so that saving the same repository twice yields
byte-identical files.  Schema 3 stores each of the four sections as a
list whose first line is a header row naming its columns, followed by
one positional array per artifact, assignment, edit-log entry or
taxonomy node, in its table's field order with the key first, one per
line, so a change to one record is one line in a diff.  Each line is
exactly what ``json.dumps(row, ensure_ascii=False)`` writes for the
row, every null written out.  A save refuses what a load refuses, and
writes nothing: a field of the wrong type raises TypeError, a value the
table refuses raises ValueError, and an assignment to a missing
artifact or code raises ReferentialIntegrityError.  Schema 1 and 2
files, which store one keyed object per record (indented in schema 1),
still load: their records are turned into rows and decoded alike, a
key that is no field refused, and their next save writes schema 3.

A load checks each section's header, then its records against their
table a column at a time, converts what a hand-written file may hold (a
number in attrs, a null time), and builds the records in one pass
(``_decode``); only a fault sends it record by record, to name the
first faulty record by index, the header not counted.  The taxonomy's
nodes are decoded alike (``taxonomy``).

Commands that change the repository go through ``editing``: one writer
at a time holds an exclusive lock on the sidecar file ``<path>.lock``,
which holds no data, only the stamp of the bytes last saved; deleting it
costs the next command one full load.  Read commands go through
``read_sections``, which only reads it.  While the stamp vouches for a
file, a command reads only what it needs: a read, its sections; ``assign``,
``unassign``, ``mark-unclassifiable`` and ``split``, the rows of their
artifacts, of those artifacts' assignments and of the classes either
names, with their ancestors, and the save splices the records back into
the file's other bytes, the log's lines included, copied unread.  So
under a forged stamp a hand edit of any other record passes them
unchecked; ``load_repository`` and ``deserialize_repository`` check
every section.  The edit log is append-only: inside ``editing``,
``repo.edit_log`` holds only the entries the block appends, which the
save writes after the file's log lines.  Library callers that mutate a
repository and ``save_repository`` it take no lock, so they must not
run alongside a command that edits the same file.

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
import re
import shutil
import zlib
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .errors import (
    DuplicateId,
    EmptyCode,
    MalformedRecord,
    ReferentialIntegrityError,
    RepositoryIOError,
    RepositoryLocked,
    SchemaVersionMismatch,
    TaxTraceError,
    UnknownId,
)
from .taxonomy import (_NODE_COLUMNS, _NODE_HEADER, _STR, _STR_OR_NONE, Taxonomy, TaxonomyNode,
                       _build, _keyed_as_rows, _node_row, _node_rows, _record_lines,
                       _stored_text, _structured_records, _text, normalize_code)

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

SCHEMA_VERSION = 3

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


def _attr_fault(column) -> str | list | None:
    """Attrs, null or empty for none, map keys to strings, numbers or booleans.

    Objects of strings, as a save writes them, pass as they are; any other
    column that passes is returned converted, null as no attrs and a number
    or boolean as the JSON that spelled it.
    """
    if {dict}.issuperset(map(type, column)) and _STR.issuperset(
            map(type, itertools.chain.from_iterable(map(dict.values, column)))):
        return None
    for attrs in column:
        if type(attrs or {}) is not dict:
            return "attrs must be an object"
        for k, v in (attrs or {}).items():
            if v is None or type(v) in (list, dict):
                return f"attr {k!r} must be a string, number or boolean"
    return [{k: v if type(v) is str else json.dumps(v) for k, v in (attrs or {}).items()}
            for attrs in column]


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
    of their columns that returns the first faulty record's message, or
    None, or its one field's column as a load converts it.  The fields'
    order is the order of a stored row's values.
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

# Each section's header row, which names its columns in row order.
_HEADERS = {name: json.dumps(table.fields) for name, table in _TABLES.items()} | {
    "taxonomy": _NODE_HEADER}


def _fault(rules, values, converted: dict | None = None) -> str | None:
    """The message of the first of ``rules`` that the columns ``values(field)`` break, or None.

    For the values of one record, that is the record's message.  A column
    a function rule converts is put in ``converted`` under its field.
    """
    for rule in rules:
        if len(rule) == 2:
            names, check = rule
            message = check(*map(values, names))
            if type(message) is list:
                if converted is not None:
                    converted[names[0]] = message
                continue
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


# How a load turns a value it accepts into the record's: null text into "".
_CONVERTED = {
    "created_at": lambda column: [value or "" for value in column],
    "cause": lambda column: [value or "" for value in column],
    "endpoints": lambda column: list(map(tuple, column)),
}


def _decode(table: _Table, rows: list, where: str) -> list:
    """``table``'s records in the parsed ``rows``, checked and built a column at a time.

    A row holds one value per field, in the table's order.  Only when a row
    is not such a list, or a rule fails, are the rows looked at one by one,
    to raise the first faulty one's message at ``where.format(i)``
    (``_refuse``).
    """
    width = len(table.fields)
    if {list}.issuperset(map(type, rows)) and {width}.issuperset(map(len, rows)):
        if not rows:
            return []
        columns = dict(zip(table.fields, zip(*rows)))
        converted: dict = {}
        if _fault(table.rules, columns.__getitem__, converted) is None:
            for name in columns.keys() & _CONVERTED.keys():
                columns[name] = _CONVERTED[name](columns[name])
            columns.update(converted)
            return list(map(table.cls, *columns.values()))
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != width:
            _refuse(table, rows[:i], where, f"expected a list of {width} values")
        record = dict(zip(table.fields, row))
        fault = _fault(table.rules, lambda name: [record[name]])
        if fault:
            _refuse(table, rows[:i], where, fault)
    raise AssertionError("a column broke a rule that no record breaks")


def _refuse(table: _Table, rows: list, where: str, fault: str):
    """Raise ``fault`` for the record after ``rows``, unless one of ``rows`` comes first.

    That is a fault of one of them, or an artifact id repeated among them.
    """
    records = _decode(table, rows, where)
    if table.cls is Artifact:
        _by_id(records)
    raise MalformedRecord(f"{where.format(len(rows))}: {fault}")


def _keyed_rows(table: _Table, records: list, where: str) -> list:
    """Schema 1 and 2's ``records``, one object per record keyed by field, as rows.

    An absent key stands for null, or for ``table.absent``'s value.  A
    record that is not an object, or holds a key that is no field, is
    refused (``_refuse``), so that no value of the file is dropped.
    """
    rows, fault = _keyed_as_rows(records, table.fields, tuple(map(table.absent.get, table.fields)))
    if fault:
        _refuse(table, rows, where, fault)
    return rows


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


# Each record kind's row encoder writes its fields in its table's order,
# every null written out, and passes every string through ``_text``,
# ``json``'s own ``encode_basestring``, which raises TypeError for anything
# but a str; ``_check_saved`` then refuses a value that a load refuses.
def _artifact_row(a: Artifact) -> str:
    archived, attrs = a.archived, a.attrs
    if archived is not True and archived is not False:
        raise TypeError(f"archived must be True or False, not {archived!r}")
    if not isinstance(attrs, dict):
        raise TypeError(f"attrs must be a dict of strings, not {attrs!r}")
    # In key order; ``_text`` checks each key and value.
    pairs = (", ".join([f"{_text(k)}: {_text(v)}" for k, v in sorted(attrs.items())])
             if attrs else "")
    body, document, version = a.body, a.document, a.version
    return (f"[{_text(a.id)}, {_text(a.kind)}, {_text(a.title)}, "
            f"{'null' if body is None else _text(body)}, {{{pairs}}}, "
            f"{'null' if document is None else _text(document)}, "
            f"{'null' if version is None else _text(version)}, {'true' if archived else 'false'}]")


def _assignment_row(a: Assignment) -> str:
    code, note = a.code, a.note
    return (f"[{_text(a.artifact_id)}, {'null' if code is None else _text(code)}, "
            f"{_text(a.provenance)}, {_text(a.status)}, {'null' if note is None else _text(note)}, "
            f"{_text(a.created_at)}]")


def _edit_row(e: EditRecord) -> str:
    endpoints = e.endpoints
    if not isinstance(endpoints, (tuple, list)) or len(endpoints) != 2:
        raise TypeError(f"endpoints must be a pair of strings, not {endpoints!r}")
    source, target = endpoints
    return (f"[{_text(e.op)}, {_text(e.link_kind)}, [{_text(source)}, {_text(target)}], "
            f"{_text(e.cause)}]")


def _section_text(name: str, rows) -> str:
    """Section ``name``'s list: its header row, then the record ``rows``, one per line."""
    return _record_lines(itertools.chain([_HEADERS[name]], rows))


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
    logged = itertools.chain([log] if log else [], map(_edit_row, repo.edit_log))
    text = (
        f'{{\n"artifacts": {_section_text("artifacts", map(_artifact_row, by_id))},\n'
        f'"assignments": {_section_text("assignments", map(_assignment_row, repo.assignments))},\n'
        f'"edit_log": {_section_text("edit_log", logged)},\n'
        f'"schema_version": {SCHEMA_VERSION},\n'
        f'"taxonomy": {_stored_text(repo.taxonomy)}\n}}\n'
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


def _rows(value, key: str, columns: tuple[str, ...]) -> list:
    """The record rows stored under ``key``, after the header row that names ``columns``.

    A missing key or null means none.
    """
    records = _records(value, key)
    if value is not None and records[:1] != [list(columns)]:
        raise MalformedRecord(f"{key}: the first row must be the header {list(columns)}")
    return records[1:]


# The order in which a load decodes the sections, which is also the order
# of ``Repository``'s fields: the first fault in it is the one reported.
_LOAD_ORDER = ("taxonomy", "artifacts", "assignments", "edit_log")


def _section(name: str, value, keyed: bool = False):
    """The records of section ``name`` from its parsed JSON ``value``, checked as a load does.

    ``keyed``: a schema 1 or 2 section, one object per record, which goes
    through the same decoding once its records are rows.
    """
    if name == "taxonomy":
        return _build(_structured_records(value or {"nodes": []}) if keyed
                      else _node_rows(_rows(value, name, _NODE_COLUMNS)))
    table, where = _TABLES[name], f"{name}[{{}}]"
    rows = (_keyed_rows(table, _records(value, name), where) if keyed
            else _rows(value, name, table.fields))
    records = _decode(table, rows, where)
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
    Schema 1 and 2 files, whose records are keyed objects, decode alike
    (``_section``).  The cyclic garbage collector is paused meanwhile.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RepositoryIOError(f"repository file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise RepositoryIOError("repository file must hold a JSON object")
    version = doc.get("schema_version")
    # Schemas 1 and 2 store keyed records, the one indented, the other not.
    if type(version) is not int or version not in (1, 2, SCHEMA_VERSION):
        raise SchemaVersionMismatch(
            f"repository schema version {version!r}, expected 1, 2 or {SCHEMA_VERSION}"
        )
    taxonomy, artifacts, assignments, edit_log = (
        _section(name, doc.get(name), version < SCHEMA_VERSION) for name in _LOAD_ORDER)
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


# The revision of the bytes this module writes, in every stamp beside the
# schema version.  Stamps of an older schema or revision do not vouch for
# their file, whose edit-log lines an edit would keep.  Revision 2 writes
# every stored taxonomy code in normal form; before it, a code padded as
# "AC " could be stored.
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
# own, as ``"name": value``; a row starts with "[" and holds no raw
# newline, so in a file this module wrote no other line starts so.
_SECTIONS = ("artifacts", "assignments", "edit_log", "schema_version", "taxonomy")
_raw_decode = json.JSONDecoder().raw_decode
# A line break in the edit log that does not stand in "],\n[".
_ODD_BREAK = re.compile(r"\n(?:(?!\[)|(?<!\],\n))")


class _OtherLayout(Exception):
    """The text is not laid out as a save writes it, so the caller loads it in full."""


def _spans(text: str) -> dict[str, tuple[int, int]]:
    """Each section's value in ``text``, as the offsets of its first and past its last character.

    A value runs from its header to the comma before the next header, the
    last one to the closing "\\n}\\n".  ``_OtherLayout`` unless the headers
    are in order, each value but the last is followed by a comma, each
    record section's header row stands on a line of its own and its list
    closes on one, and the schema version is the current one.
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
    for name, header in _HEADERS.items():
        start, end = span[name]
        if not (text.startswith(f"[\n{header}", start)
                and text.startswith(("\n]", ",\n["), start + 2 + len(header))
                and text.startswith("\n]", end - 2)):
            raise _OtherLayout
    return span


def _log_lines(text: str, start: int, end: int) -> tuple[int, int]:
    """The offsets of the record lines of the edit log ``text[start:end]``; equal for none.

    ``_OtherLayout`` unless the list closes "]\\n]" and one scan finds no
    line break after the header row outside "],\\n[": one row per line.
    """
    start, end = start + 2 + len(_HEADERS["edit_log"]), end - 2
    if not text.startswith("]\n]", end - 1) or _ODD_BREAK.search(text, start, end):
        raise _OtherLayout
    return (start + 2, end) if start < end else (end, end)


def _parsed(text: str, pos: int):
    """The JSON value at ``pos``, parsed in place, and the offset past it; else ``_OtherLayout``."""
    try:
        return _raw_decode(text, pos)
    except json.JSONDecodeError:
        raise _OtherLayout from None


def _value(text: str, start: int, end: int):
    """The JSON value that fills ``text[start:end]``, parsed in place, copying no part of it."""
    value, stop = _parsed(text, start)
    if stop != end:
        raise _OtherLayout
    return value


def _rows_at(span: dict[str, tuple[int, int]], name: str) -> tuple[int, int]:
    """Where section ``name``'s record lines are: from the end of its header row to its end."""
    return span[name][0] + 2 + len(_HEADERS[name]), span[name][1]


def _line(text: str, pos: int) -> tuple[int, int, list]:
    """The offsets of the record line at ``pos`` and its row, which must fill it, parsed."""
    row, stop = _parsed(text, pos)
    if not text.startswith((",\n[", "\n]"), stop):
        raise _OtherLayout
    return pos, stop, row


def _headed(text: str, start: int, end: int, keys, once: bool = True) -> list:
    """The record lines in ``text[start:end]`` keyed by one of ``keys``, in file order (``_line``).

    A line is found by its head "\\n[<key>, ", as a save writes it; with
    ``once``, ``_OtherLayout`` for a key that heads two lines.
    """
    found = []
    for key in keys:
        head = f"\n[{_text(key)}, "
        pos = text.find(head, start, end)
        while pos >= 0:
            found.append(_line(text, pos + 1))
            pos = text.find(head, found[-1][1], end)
            if once and pos >= 0:
                raise _OtherLayout
    found.sort(key=operator.itemgetter(0))
    return found


def _key_at(text: str, pos: int) -> str:
    """The key of the record line at ``pos``: a string, then ", "; else ``_OtherLayout``."""
    key, stop = _parsed(text, pos + 1)
    if type(key) is not str or not text.startswith(", ", stop):
        raise _OtherLayout
    return key


def _place(text: str, start: int, end: int, key: str) -> int | None:
    """The offset of the first record line in ``text[start:end]`` whose key is not below ``key``.

    The lines are sorted by key, as a save writes artifacts and classes;
    None when every key is below.  Each step of the bisection reads the
    key of the first line at or after the middle (``_key_at``), and those
    on either side of the place are read.
    """
    lo, hi, place = start, end, None
    while lo < hi:
        mid = (lo + hi) // 2
        pos = text.find("\n[", mid, hi + 1) + 1  # a line whose line break is in [mid, hi)
        if not pos:
            hi = mid
        elif _key_at(text, pos) < key:
            lo = pos
        else:
            hi, place = pos - 1, pos
    return place


def _named(text: str, span: dict[str, tuple[int, int]], ids) -> tuple[dict, dict, dict]:
    """Those of the artifacts ``ids`` present, decoded and checked, their lines, and the others'
    places (``_place``).  A line is found by its head (``_headed``), or, for an id written
    with escapes, at its place."""
    start, end = _rows_at(span, "artifacts")
    found, places = _headed(text, start, end, ids), {}
    for artifact_id in set(ids) - {row[0] for *_, row in found}:
        place = places[artifact_id] = _place(text, start, end, artifact_id)
        if place is not None and _key_at(text, place) == artifact_id:
            found.append(_line(text, places.pop(artifact_id)))
            stop = found[-1][1]
            if text.startswith(",\n", stop) and _key_at(text, stop + 2) == artifact_id:
                raise _OtherLayout  # the id heads two lines
    artifacts = _by_id(_decode(_TABLES["artifacts"], [row for *_, row in found], "artifacts[{}]"))
    return artifacts, {row[0]: (pos, stop) for pos, stop, row in found}, places


def _load_vouched(text: str, sections: tuple[str, ...],
                  ids: tuple[str, ...] | None = None) -> tuple[Repository, str] | None:
    """The repository of ``text``, a file its stamp vouches for, with only ``sections`` read.

    Each section named is parsed in place (``_value``) and checked as a
    load checks it, of the artifacts only ``ids`` when given (``_named``);
    the others are left out unread, but "edit_log" named returns the log's
    lines as text.  None when ``text`` is not laid out as a save writes it
    (``_spans``, ``_log_lines``), or a check fails: the caller then loads
    it in full, which reports the fault as a load does.
    """
    try:
        span = _spans(text)
        log = text[slice(*_log_lines(text, *span["edit_log"]))] if "edit_log" in sections else ""
        fields = {"taxonomy": Taxonomy()}
        for name in _LOAD_ORDER[:-1]:  # all but the log, which is never decoded here
            if name in sections:
                named = name == "artifacts" and ids is not None
                fields[name] = (_named(text, span, ids)[0] if named
                                else _section(name, _value(text, *span[name])))
        repo = Repository(**fields)
        check_integrity(repo)
    except (_OtherLayout, TaxTraceError):
        return None
    return repo, log


def read_sections(path: str | os.PathLike, sections: tuple[str, ...] | None,
                  ids: tuple[str, ...] | None = None) -> Repository:
    """The repository at ``path``, with only ``sections`` read when its sidecar vouches for it.

    ``sections`` names some of "taxonomy", "artifacts" and "assignments".
    While the sidecar ``<path>.lock`` holds the stamp of the file's bytes,
    only those are read, and of the artifacts only ``ids`` when given
    (``_load_vouched``).  Otherwise, with ``sections`` None, or when a
    check fails, this is ``load_repository``.  The sidecar is only read.
    The cyclic garbage collector is paused meanwhile.
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


def _classes(text: str, span: dict[str, tuple[int, int]], codes: set[str] | None) -> Taxonomy:
    """The classes ``codes`` of ``text`` and their ancestors, or with ``codes`` None all of them.

    The rows are found by their heads (``_headed``), a generation of
    parents at a time, and decoded and checked together; an absent code's
    place is read (``_place``).  ``_OtherLayout`` unless each row read is
    its node's encoding, as the save copies the section unread.
    """
    if codes is None:
        taxonomy = _section("taxonomy", _value(text, *span["taxonomy"]))
        if _stored_text(taxonomy) != text[slice(*span["taxonomy"])]:
            raise _OtherLayout
        return taxonomy
    start, end = _rows_at(span, "taxonomy")
    found, seen = {}, set()
    while codes:
        seen |= codes
        found.update((line[2][0], line) for line in _headed(text, start, end, codes))
        for code in codes - found.keys():
            _place(text, start, end, code)
        codes = {parent for *_, row in found.values() for parent in row[4:5]
                 if type(parent) is str} - seen
    lines = sorted(found.values(), key=operator.itemgetter(0))
    nodes = _node_rows([row for *_, row in lines])
    if list(map(_node_row, nodes)) != [text[pos:stop] for pos, stop, _ in lines]:
        raise _OtherLayout
    return _build(nodes)


def _load_one(text: str, ids: tuple[str, ...], codes):
    """The repository of ``text`` holding the records of the artifacts ``ids``, and their save.

    ``text`` is a file its stamp vouches for, holding no backslash.  The
    repository holds those of the artifacts present (``_named``) and their
    assignments, found by their line heads (``_headed``); the classes
    ``codes`` in normal form (one that normalizes to nothing left out, for
    ``linkage`` to refuse), those the assignments name and their
    ancestors, or all with ``codes`` None (``_classes``); and an empty
    log.  It is checked as a load checks it.  The save is ``_spliced``.
    """
    ids = tuple(dict.fromkeys(ids))
    span = _spans(text)
    _log_lines(text, *span["edit_log"])
    artifacts, lines, places = _named(text, span, ids)
    found = _headed(text, *_rows_at(span, "assignments"), ids, once=False)
    assignments = _decode(_TABLES["assignments"], [row for *_, row in found], "assignments[{}]")
    if codes is not None:
        named = {a.code for a in assignments if a.code is not None}
        for code in codes:
            with contextlib.suppress(EmptyCode):
                named.add(normalize_code(code))
        codes = named
    taxonomy = _classes(text, span, codes)
    repo = Repository(taxonomy, artifacts, assignments)
    check_integrity(repo)
    classes = {code: TaxonomyNode(node.code, node.title, node.description, [*node.synonyms],
                                  node.parent) for code, node in taxonomy.nodes.items()}
    links = [(pos, stop) for pos, stop, _ in found]
    return repo, lambda edited: _spliced(text, span, ids, lines, places, links, classes, edited)


def _spliced(text: str, span: dict[str, tuple[int, int]], ids: tuple[str, ...],
             lines: dict[str, tuple[int, int]], places: dict[str, int | None],
             links: list[tuple[int, int]], classes: dict[str, TaxonomyNode], repo: Repository):
    """The pieces of ``text`` with the records of ``repo``, loaded by ``_load_one``, put back.

    Each loaded artifact (at ``lines``) and assignment (at ``links``) is
    encoded again in its place, a new artifact goes in at its place in
    ``places`` (in id order), new assignments and log entries at the end
    of their sections, and every other character is copied.  ValueError,
    before anything is encoded, when the edit reached beyond what was
    loaded: an artifact not in ``ids`` added or one removed, fewer
    assignments, one of an artifact not in ``ids``, or a class changed.
    """
    artifacts, assignments = repo.artifacts, repo.assignments
    named = set(ids)
    if (not lines.keys() <= artifacts.keys() <= named
            or len(assignments) < len(links)
            or any(a.artifact_id not in named for a in assignments)
            or repo.taxonomy.nodes != classes):
        raise ValueError(f"an edit of artifact {ids[0]!r} changed other records")
    edits = [(*lines[i], _artifact_row(artifacts[i])) for i in lines]
    edits += [(*link, _assignment_row(a)) for link, a in zip(links, assignments)]
    last = []
    for artifact_id in sorted(artifacts.keys() - lines.keys()):
        line, place = _artifact_row(artifacts[artifact_id]), places[artifact_id]
        if place is None:
            last.append(line)
        else:
            edits.append((place, place, f"{line},\n"))
    edits += [
        _appended(span["artifacts"], last),
        _appended(span["assignments"], map(_assignment_row, assignments[len(links):])),
        _appended(span["edit_log"], map(_edit_row, repo.edit_log)),
    ]
    _check_saved(repo)
    edits.sort(key=lambda edit: edit[:2])  # stable: new lines of one place stay in id order
    return _pieces(text, edits)


def _appended(span: tuple[int, int], lines) -> tuple[int, int, str]:
    """The edit of the section at ``span`` that adds record ``lines`` before its closing "\\n]"."""
    end = span[1] - 2
    return end, end, "".join([f",\n{line}" for line in lines])


def _pieces(text: str, edits: list[tuple[int, int, str]]):
    """``text`` with each ``(start, end, new)`` of ``edits``, in order, replacing its span."""
    pos = 0
    for start, end, new in edits:
        yield text[pos:start]
        yield new
        pos = end
    yield text[pos:]


def _load_for_edit(text: str, trusted: bool, ids: tuple[str, ...] | None, codes):
    """The repository of ``text`` for ``editing``, and the function giving the pieces of its save.

    With ``ids`` given, a file the stamp vouches for, holding no
    backslash, loads only what they and ``codes`` name (``_load_one``);
    else, or when a check fails, as without them.
    """
    if trusted and ids is not None and "\\" not in text:
        try:
            return _load_one(text, ids, codes)
        except (_OtherLayout, TaxTraceError):
            pass
    kept = _load_vouched(text, _LOAD_ORDER) if trusted else None
    if kept is None:
        repo = deserialize_repository(text)
        log, repo.edit_log = ",\n".join(map(_edit_row, repo.edit_log)), []
    else:
        repo, log = kept
    return repo, lambda edited: [_serialize(edited, log)]


@contextlib.contextmanager
def editing(path: str | os.PathLike, ids: tuple[str, ...] | None = None, codes=None):
    """Load the repository at ``path`` for one edit, and save it if the block succeeds.

    An exclusive ``flock`` on the sidecar ``<path>.lock`` (next to a
    symlink's target) is held from before the read until after the save,
    so a second writer fails at once with ``RepositoryLocked``.  Closing
    the descriptor releases it however the block ends; a block that raises
    leaves the file and the sidecar as they were.  Once the lock is held, a
    ``<path>.tmp`` is deleted: only a writer killed mid-save leaves one.

    The block's ``repo.edit_log`` starts empty and is only appended to.
    The file gets the bytes of ``serialize_repository``, and the sidecar
    the ``_stamp`` of them, rewritten in place because renaming over a
    locked file would void the lock.  While the file still holds exactly
    those bytes, the log's lines are kept as text, unread, and every other
    section loads with every check ``load_repository`` makes
    (``_load_vouched``); else the whole file does.

    With the artifact ``ids`` given, the block edits those artifacts'
    records alone, and may add one under an id of them that is absent, as
    ``split`` adds its parts; ``codes`` names the classes it may assign,
    None for any.  While the stamp vouches for a file that holds no
    backslash, only their records and those classes, the assignments'
    classes and their ancestors are loaded, and the save splices them back
    into the file's other bytes, copied unread (``_load_one``).  A block
    that changes any other record, or a class, raises ValueError.

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
            repo, save = _load_for_edit(text, trusted, ids, codes)
            del text
        yield repo
        with _gc_paused():
            pieces = save(repo)
        _put_stamp(lock, _write(pieces, path))
    finally:
        os.close(lock)


# --- bulk ingestion ---


def read_artifacts_jsonl(text: str) -> list[Artifact]:
    """Parse artifacts from JSON-Lines text, one keyed object per line, as schema 2 stores them."""
    table, artifacts = _TABLES["artifacts"], []
    # Not ``splitlines``: a string may hold U+0085, U+2028 or U+2029 as it is.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"line {lineno}: invalid JSON: {exc}") from exc
        where = f"line {lineno}"
        artifacts += _decode(table, _keyed_rows(table, [doc], where), where)
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
