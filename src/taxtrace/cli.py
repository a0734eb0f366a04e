"""Command-line surface for the whole toolkit.

One repository file holds everything.  ``main`` is the one runner: each
subcommand declares its ``access`` to that file, and ``main`` opens it,
calls the handler, prints the handler's ``Output`` and picks the exit
code.  Under ``READ`` the handler gets the repository, read without a
lock; under ``EDIT`` it runs inside ``store.editing``, which holds the
writer lock and saves the repository when the handler returns, before
anything, warnings included, is printed; ``init`` and ``cost`` (access
None) open no repository.
``assign``, ``unassign``, ``mark-unclassifiable`` and ``split`` declare
``touches``, the ids of the artifacts they edit: their artifact, and for
``split`` the original and each ``--part``'s id.  When the sidecar's
stamp vouches for the file, they decode the taxonomy, those artifacts
and their assignments alone, and the save splices those, with the new
artifacts, assignments and log entries, into the file's other bytes,
which it copies unread.  ``import`` loads and encodes every record but
the log's.
A ``READ`` handler also declares the ``sections`` of the file it reads:
``diff`` the artifacts (``ARTIFACTS``), ``suggest`` and ``audit`` the
taxonomy too (``MODELS``), ``trace``, ``coverage`` and ``impact`` the
assignments as well (``LINKS``).  When the sidecar's stamp vouches for
the file, only those are decoded and checked, and the others are left
empty (``store.read_sections``).  ``suggest`` also declares
``touches``: of the artifacts it builds and checks only the one it
ranks.  So under a forged stamp a hand edit of another artifact passes
``suggest`` and those four edits unchecked.  ``validate`` declares
None: it loads and checks the whole file, whatever the stamp says.
``main`` builds the parser of the subcommand that its arguments name
(``parse_args``); help and usage errors are printed by the full parser.
Python's cyclic garbage collector is paused for a ``READ`` command's
load and handler, and for an ``EDIT`` command's load and save, and is
left as it was found.
Handlers only act.  Result objects are plain data, and this module alone
decides what a command prints: its JSON is its result's fields, with
exact rates as "p/q" strings (``_render``).  The repository path comes
from --repo or the TTL_REPO environment variable.  Timestamps come from
TTL_NOW when set, so scripted runs are byte-reproducible.

Exit codes: 0 success; 1 error findings of audit --strict or uncovered
items of coverage --strict; 2 usage or data errors, including a
repository locked by another writer.  Diagnostics go to stderr, data to
stdout, as text or as schema-stable JSON via --format.

Relation filters use the grammar `name` or `neighborhood:k`, where name
is one of equal, ancestor, descendant, equal-or-descendant, sibling.
"ancestor" accepts targets anywhere above the source code (all levels);
for the one-level reading use neighborhood:1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from . import audit, linkage, query, store, suggest, taxonomy
from .errors import TaxTraceError

TEXT = "text"
JSON = "json"

# How a command reaches the repository file; see the module docstring.
READ = "read"
EDIT = "edit"

# The sections of the file a READ handler reads (``store.read_sections``).
ARTIFACTS = ("artifacts",)
MODELS = ("taxonomy", *ARTIFACTS)
LINKS = (*MODELS, "assignments")


@dataclasses.dataclass
class Output:
    """What a command prints: ``doc`` under --format json, else ``lines``.

    ``doc`` may hold result objects and exact rates; ``_render`` encodes them.

    ``failed`` turns into exit code 1 under --strict.  ``warnings`` go to
    stderr in either format.
    """

    doc: dict
    lines: list[str]
    failed: bool = False
    warnings: list[str] = dataclasses.field(default_factory=list)


def _now() -> str | None:
    return os.environ.get("TTL_NOW")


def _repo_path(args) -> str:
    if args.repo:
        return args.repo
    raise ValueError("no repository given: pass --repo or set TTL_REPO")


def _read_file(path: str) -> str:
    try:
        # "utf-8-sig" drops the byte-order mark that Excel and Windows write.
        with open(path, "r", encoding="utf-8-sig") as f:
            return f.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _render(o):
    """The JSON of what ``json`` cannot encode: an exact rate, or a result object."""
    return str(o) if isinstance(o, Fraction) else vars(o)


def _finding_lines(findings: list[audit.AuditFinding]) -> list[str]:
    return [f"{f.severity}: {f.category} {','.join(f.object_ids)}: {f.detail}" for f in findings]


def _hits(hits: list[query.TraceHit]) -> list[dict]:
    return [
        {
            "target": hit.target,
            "via": [{"source_code": s, "target_code": c, "relation": r} for s, c, r in hit.via],
        }
        for hit in hits
    ]


def _hit_lines(hits: list[query.TraceHit]) -> list[str]:
    return [
        f"{hit.target}  via "
        + ", ".join(f"{s}->{c} ({r.kind}, distance={r.distance})" for s, c, r in hit.via)
        for hit in hits
    ]


def _artifact(args) -> tuple[str, ...]:
    """The one artifact a command touches."""
    return (args.artifact_id,)


def _split_ids(args) -> tuple[str, ...]:
    """The original and each part's id, as ``cmd_split`` reads them from ``--part``."""
    return (args.artifact_id, *(spec.partition(":")[0] for spec in args.part))


def _model_objects(repo: store.Repository, label: str) -> list[store.Artifact]:
    return [
        a
        for a in store.list_artifacts(repo, kind=store.DESIGN_OBJECT)
        if a.version == label
    ]


# --- command handlers ---


def cmd_init(args) -> Output:
    path = args.path or args.repo
    if not path:
        raise ValueError("init needs a repository path")
    if os.path.exists(path):
        raise ValueError(f"refusing to overwrite existing file {path}")
    store.save_repository(store.new_repository(), path)
    return Output({"initialized": path}, [f"initialized empty repository at {path}"])


def cmd_import(args, repo: store.Repository) -> Output:
    text = _read_file(args.file)
    warnings: list[str] = []
    if args.what == "taxonomy":
        t = taxonomy.parse_taxonomy(text, format=args.taxonomy_format)
        if args.infer_hierarchy:
            parents = taxonomy.infer_parents(t.nodes)
            t = taxonomy.Taxonomy({code: dataclasses.replace(node, parent=parents[code])
                                   for code, node in t.nodes.items()})
        repo.taxonomy = t  # the save rejects links to codes ``t`` lacks
        doc = {"imported": "taxonomy", "nodes": len(t.nodes)}
        lines = [f"imported taxonomy: {len(t.nodes)} nodes"]
    elif args.what == "artifacts":
        artifacts = store.read_artifacts_jsonl(text)
        for artifact in artifacts:
            store.add_artifact(repo, artifact)
        doc = {"imported": "artifacts", "count": len(artifacts)}
        lines = [f"imported {len(artifacts)} artifacts"]
    else:
        objects = store.read_design_objects_csv(text)
        assigned, now = 0, _now()
        for obj in objects:
            store.add_artifact(repo, obj)
            raw = obj.attrs.get(store.CODE_ATTR)
            if raw is None:
                continue
            try:
                linkage.assign(repo, obj.id, raw, provenance=linkage.IMPORTED, now=now)
                assigned += 1
            except TaxTraceError as exc:
                warnings.append(f"{obj.id}: code {raw!r} not assigned ({exc})")
        doc = {
            "imported": "model",
            "count": len(objects),
            "assigned": assigned,
            "warnings": warnings,
        }
        lines = [f"imported {len(objects)} design objects, {assigned} auto-assigned"]
    return Output(doc, lines, warnings=warnings)


def cmd_validate(args, repo: store.Repository) -> Output:
    # Loading enforces the forest invariants and referential integrity, so
    # a repository that loads has no findings.
    return Output({"ok": True, "findings": []}, ["ok"])


def cmd_suggest(args, repo: store.Repository) -> Output:
    artifact = store.get_artifact(repo, args.artifact_id)
    text = artifact.title if artifact.body is None else f"{artifact.title} {artifact.body}"
    results = suggest.suggest(text, repo.taxonomy, args.n)
    doc = {
        "artifact": artifact.id,
        "suggestions": [
            dict(vars(s), matched_terms=[{"term": t, "source": src} for t, src in s.matched_terms])
            for s in results
        ],
    }
    lines = [
        f"{s.code}  {s.score:.4f}  "
        + ", ".join(f"{term}({source})" for term, source in s.matched_terms)
        for s in results
    ] or ["no suggestions"]
    return Output(doc, lines)


def cmd_assign(args, repo: store.Repository) -> Output:
    a = linkage.assign(repo, args.artifact_id, args.code, provenance=args.provenance,
                       now=_now())
    return Output({"assigned": a}, [f"assigned {a.artifact_id} -> {a.code} ({a.status})"])


def cmd_unassign(args, repo: store.Repository) -> Output:
    a = linkage.unassign(repo, args.artifact_id, args.code, now=_now())
    return Output(
        {"unassigned": {"artifact_id": a.artifact_id, "code": a.code}},
        [f"unassigned {a.artifact_id} -> {a.code}"],
    )


def cmd_mark_unclassifiable(args, repo: store.Repository) -> Output:
    a = linkage.mark_unclassifiable(repo, args.artifact_id, args.category, args.note,
                                    now=_now())
    return Output(
        {"marked": a},
        [f"marked {a.artifact_id} unclassifiable ({a.note})"],
    )


def cmd_split(args, repo: store.Repository) -> Output:
    original = store.get_artifact(repo, args.artifact_id)
    parts = []
    allocation: dict[str, set[str]] = {}
    for spec in args.part:
        part_id, sep, codes = spec.partition(":")
        if not part_id or not sep:
            raise ValueError(f"bad --part {spec!r}: expected NEW_ID:CODE[,CODE...]")
        parts.append(store.Artifact(id=part_id, kind=original.kind, title=part_id))
        allocation[part_id] = {c for c in codes.split(",") if c.strip()}
    outcome = linkage.split_artifact(repo, args.artifact_id, parts, allocation, now=_now())
    return Output(
        {"split": outcome},
        [
            f"split {outcome.original_id} into {', '.join(outcome.part_ids)}:"
            f" deletes={outcome.deletes} adds={outcome.adds}"
        ],
        warnings=outcome.warnings,
    )


def cmd_trace(args, repo: store.Repository) -> Output:
    f = query.parse_filter_spec(args.filter)
    hits = query.trace(repo, args.artifact_id, args.to_kind, f, args.include_proposed)
    doc = {"source": args.artifact_id, "filter": f.spec(), "hits": _hits(hits)}
    return Output(doc, _hit_lines(hits) or ["no hits"])


def cmd_coverage(args, repo: store.Repository) -> Output:
    f = query.parse_filter_spec(args.filter) if args.filter else None
    report = query.coverage(
        repo,
        args.from_kind,
        args.to_kind,
        f,
        policy=args.policy,
        include_proposed=args.include_proposed,
    )
    doc = dict(vars(report), from_kind=args.from_kind, to_kind=args.to_kind)
    covered, uncovered = len(report.covered), len(report.uncovered)
    lines = [f"covered {covered}/{covered + uncovered} (rate {report.rate})"]
    lines.extend(f"uncovered: {item}" for item in report.uncovered)
    return Output(doc, lines, failed=bool(report.uncovered))


def cmd_impact(args, repo: store.Repository) -> Output:
    f = query.parse_filter_spec(args.filter)
    report = query.impact(repo, args.artifact_id, f, args.include_proposed)
    groups = {kind: _hits(hits) for kind, hits in report.groups.items()}
    doc = {"changed": report.changed, "filter": f.spec(), "groups": groups}
    lines = []
    for kind, hits in sorted(report.groups.items()):
        lines.append(f"{kind}:")
        lines.extend(f"  {line}" for line in _hit_lines(hits))
    return Output(doc, lines or ["no impact"])


def cmd_audit(args, repo: store.Repository) -> Output:
    if args.check == "comprehensiveness":
        if len(args.model) != 1:
            raise ValueError("audit comprehensiveness needs exactly one --model")
        objects = _model_objects(repo, args.model[0])
        report = audit.check_comprehensiveness(objects, repo.taxonomy)
        doc = dict(vars(report), model=args.model[0])
        lines = [
            f"total {report.total} classified {report.classified} ratio {report.ratio}"
        ] + _finding_lines(report.findings)
    else:
        if len(args.model) != 2:
            raise ValueError("audit inter needs exactly two --model labels")
        a = _model_objects(repo, args.model[0])
        b = _model_objects(repo, args.model[1])
        if args.sample:
            sample = set(args.sample)
        else:
            sample = {
                code
                for obj in a + b
                for code in [audit.object_code(obj)]
                if code is not None and code in repo.taxonomy.nodes
            }
        report = audit.inter_reliability(a, b, sample, args.type_attr, repo.taxonomy)
        doc = dict(vars(report), models=list(args.model))
        lines = _finding_lines(report.findings) or ["consistent"]
    return Output(doc, lines, failed=any(f.severity == audit.ERROR for f in report.findings))


def cmd_diff(args, repo: store.Repository) -> Output:
    v1 = _model_objects(repo, args.from_version)
    v2 = _model_objects(repo, args.to_version)
    code_diff = audit.diff_codes(v1, v2)
    counts = {code: {"v1": c1, "v2": c2} for code, (c1, c2) in code_diff.per_code_counts.items()}
    doc = dict(vars(code_diff), per_code_counts=counts,
               from_model=args.from_version, to_model=args.to_version)
    lines = [
        "new in v2: " + (", ".join(code_diff.new_in_v2) or "none"),
        "absent in v2: " + (", ".join(code_diff.absent_in_v2) or "none"),
    ]
    if args.fingerprint:
        attrs = (
            audit.DEFAULT_FINGERPRINT_ATTRS
            if args.fingerprint == "default"
            else tuple(a.strip() for a in args.fingerprint.split(",") if a.strip())
        )
        match = audit.match_versions(v1, v2, attrs)
        doc["match"] = match
        lines.append(f"matched {len(match.matched_pairs)}/{len(v1)} (ratio {match.match_ratio})")
        lines.extend(_finding_lines(match.code_changes))
    return Output(doc, lines)


def cmd_cost(args) -> Output:
    from . import cost  # here, so no other command compiles the simulation
    scenario = cost.load_scenario(_read_file(args.scenario))
    count = cost.maintenance_cost(scenario, args.strategy)
    doc = dict(vars(count), touched=count.touched, strategy=args.strategy)
    return Output(
        doc,
        [f"strategy={args.strategy} deletes={count.deletes} adds={count.adds} touched={count.touched}"],
    )


# --- parser ---


def _arg(*flags, **kwargs) -> tuple[tuple, dict]:
    """One ``add_argument`` call, kept for when its subparser is built."""
    return flags, kwargs


_FILTER_HELP = "equal|ancestor|descendant|equal-or-descendant|sibling|neighborhood:k"

# Every subcommand, in the order --help lists them: its help, its defaults
# (access, sections and, for a handler that reads or edits named artifacts
# alone, ``touches``, the function giving their ids) and its arguments.
# Its handler is the function ``cmd_<name>``, with "-" as "_", found when
# its parser is built.
_COMMANDS = {
    "init": ("create an empty repository file", dict(access=None), [
        _arg("path", nargs="?", help="repository file (default: --repo)"),
    ]),
    "import": ("ingest taxonomy, artifacts, or a model export", dict(access=EDIT), [
        _arg("what", choices=["taxonomy", "artifacts", "model"]),
        _arg("file"),
        _arg("--taxonomy-format", choices=[taxonomy.TABULAR, taxonomy.STRUCTURED],
             default=taxonomy.TABULAR),
        _arg("--infer-hierarchy", action="store_true",
             help="derive taxonomy parents from code prefixes"),
    ]),
    "validate": ("check taxonomy and referential integrity",
                 dict(access=READ, sections=None), []),
    "suggest": ("rank classes for an artifact's text",
                dict(access=READ, sections=MODELS, touches=_artifact), [
        _arg("artifact_id"),
        _arg("-n", type=int, default=5),
    ]),
    "assign": ("link an artifact to a class", dict(access=EDIT, touches=_artifact), [
        _arg("artifact_id"),
        _arg("code"),
        _arg("--provenance", choices=sorted(linkage.PROVENANCES), default=linkage.MANUAL),
    ]),
    "unassign": ("retire an artifact-to-class link", dict(access=EDIT, touches=_artifact), [
        _arg("artifact_id"),
        _arg("code"),
    ]),
    "mark-unclassifiable": ("record that no class fits",
                            dict(access=EDIT, touches=_artifact), [
        _arg("artifact_id"),
        _arg("category", choices=list(linkage.REASON_CATEGORIES)),
        _arg("--note"),
    ]),
    "split": ("replace an artifact by parts, reallocating codes",
              dict(access=EDIT, touches=_split_ids), [
        _arg("artifact_id"),
        _arg("--part", action="append", required=True, metavar="NEW_ID:CODE[,CODE...]",
             help="repeat once per part"),
    ]),
    "trace": ("find artifacts related through the taxonomy",
              dict(access=READ, sections=LINKS), [
        _arg("artifact_id"),
        _arg("--to", dest="to_kind", help="restrict to one target kind"),
        _arg("--filter", default=query.EQUAL, help=_FILTER_HELP),
        _arg("--include-proposed", action="store_true"),
    ]),
    "coverage": ("which from-kind artifacts reach the to-kind",
                 dict(access=READ, sections=LINKS), [
        _arg("--from", dest="from_kind", required=True),
        _arg("--to", dest="to_kind"),
        _arg("--filter", help=_FILTER_HELP),
        _arg("--policy", choices=list(query.POLICIES), default=query.COUNT_UNCLASSIFIABLE),
        _arg("--include-proposed", action="store_true"),
    ]),
    "impact": ("artifacts affected by changing one artifact",
               dict(access=READ, sections=LINKS), [
        _arg("artifact_id"),
        _arg("--filter", default=query.EQUAL, help=_FILTER_HELP),
        _arg("--include-proposed", action="store_true"),
    ]),
    "audit": ("check model classification quality", dict(access=READ, sections=MODELS), [
        _arg("check", choices=["comprehensiveness", "inter"]),
        _arg("--model", action="append", required=True, metavar="VERSION_LABEL"),
        _arg("--sample", action="append", metavar="CODE"),
        _arg("--type-attr", default="type"),
    ]),
    "diff": ("compare codes between two model versions",
             dict(access=READ, sections=ARTIFACTS), [
        _arg("--from", dest="from_version", required=True, metavar="VERSION_LABEL"),
        _arg("--to", dest="to_version", required=True, metavar="VERSION_LABEL"),
        _arg("--fingerprint", metavar="ATTRS",
             help="comma-separated attribute names, or 'default', to also match objects"),
    ]),
    "cost": ("compare link maintenance effort for a scenario", dict(access=None), [
        _arg("--scenario", required=True),
        _arg("--strategy", choices=[store.DIRECT, store.TAXONOMIC], required=True),
    ]),
}


def _parser(commands, parser_class) -> argparse.ArgumentParser:
    """A ``parser_class`` parser of the subcommands named in ``commands``."""
    parser = parser_class(
        prog="taxtrace",
        description="Create and exploit taxonomy-mediated trace links between artifacts.",
    )
    parser.add_argument(
        "--repo",
        default=os.environ.get("TTL_REPO"),
        help="repository file (default: $TTL_REPO)",
    )
    parser.add_argument("--format", choices=[TEXT, JSON], default=TEXT)
    parser.add_argument(
        "--strict", action="store_true", help="exit 1 when findings or uncovered items exist"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        help_text, defaults, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=globals()[f"cmd_{name.replace('-', '_')}"], **defaults)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    return _parser(_COMMANDS, argparse.ArgumentParser)


class _Unparsed(Exception):
    """The lean parser met help, a usage error or a subcommand it was not given."""


class _LeanParser(argparse.ArgumentParser):
    """A parser that raises ``_Unparsed`` where argparse would print and exit."""

    def print_help(self, file=None):
        raise _Unparsed

    def error(self, message):
        raise _Unparsed


def parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the subparsers ``argv`` names.

    A parse that the lean parser cannot finish, for help, a usage error or
    a subcommand it was not given, runs again with every subparser, so the
    output and exit code are the full parser's.  A lean parse that succeeds
    gives the full parser's namespace: both have the same options, and the
    subcommand chosen is one they both hold.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _parser([name for name in _COMMANDS if name in argv], _LeanParser).parse_args(argv)
    except _Unparsed:
        return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    touches = getattr(args, "touches", None)
    only = touches(args) if touches else None
    try:
        if args.access is None:
            out = args.func(args)
        elif args.access == READ:
            # Paused for the handler too: once the collector is back on, its
            # first collections would scan the whole repository anyway.
            with store._gc_paused():
                out = args.func(args, store.read_sections(_repo_path(args), args.sections, only))
        else:
            with store.editing(_repo_path(args), only) as repo:
                out = args.func(args, repo)
        for w in out.warnings:
            print(f"warning: {w}", file=sys.stderr)
        if args.format == JSON:
            print(json.dumps(out.doc, sort_keys=True, indent=2, ensure_ascii=False,
                             default=_render))
        else:
            for line in out.lines:
                print(line)
    except (TaxTraceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if out.failed and args.strict else 0


if __name__ == "__main__":
    sys.exit(main())
