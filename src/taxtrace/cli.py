"""Command-line surface for the whole toolkit.

One repository file holds everything.  ``main`` is the one runner: each
subcommand declares its ``access`` to that file, and ``main`` opens it,
calls the handler, prints the handler's ``Output`` and picks the exit
code.  Under ``READ`` the handler gets the loaded repository; under
``EDIT`` it runs inside ``store.editing``, which holds the writer lock
and saves the repository when the handler returns, before anything is
printed; ``init`` and ``cost`` (access None) open no repository.
Handlers only act.  The repository path comes from --repo or the
TTL_REPO environment variable.  Timestamps come from TTL_NOW when set,
so scripted runs are byte-reproducible.

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

from . import audit, linkage, query, store, suggest, taxonomy
from .errors import TaxTraceError

TEXT = "text"
JSON = "json"

# How a command reaches the repository file; see the module docstring.
READ = "read"
EDIT = "edit"


@dataclasses.dataclass
class Output:
    """What a command prints: ``doc`` under --format json, else ``lines``.

    ``failed`` turns into exit code 1 under --strict.
    """

    doc: dict
    lines: list[str]
    failed: bool = False


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


def _finding_lines(findings: list[dict]) -> list[str]:
    return [
        f"{f['severity']}: {f['category']} {','.join(f['object_ids'])}: {f['detail']}"
        for f in findings
    ]


def _hit_lines(hits: list[dict]) -> list[str]:
    lines = []
    for hit in hits:
        via = ", ".join(
            f"{v['source_code']}->{v['target_code']}"
            f" ({v['relation']['kind']}, distance={v['relation']['distance']})"
            for v in hit["via"]
        )
        lines.append(f"{hit['target']}  via {via}")
    return lines


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
    if args.what == "taxonomy":
        t = taxonomy.parse_taxonomy(text, format=args.taxonomy_format)
        if args.infer_hierarchy:
            parents = taxonomy.infer_parents(t.nodes)
            t = taxonomy.Taxonomy({code: dataclasses.replace(node, parent=parents[code])
                                   for code, node in t.nodes.items()})
        repo.taxonomy = t
        store.check_integrity(repo)
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
        assigned = 0
        warnings = []
        for obj in objects:
            store.add_artifact(repo, obj)
            raw = obj.attrs.get(store.CODE_ATTR)
            if raw is None:
                continue
            try:
                linkage.assign(repo, obj.id, raw, provenance=linkage.IMPORTED, now=_now())
                assigned += 1
            except TaxTraceError as exc:
                warnings.append(f"{obj.id}: code {raw!r} not assigned ({exc})")
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        doc = {
            "imported": "model",
            "count": len(objects),
            "assigned": assigned,
            "warnings": warnings,
        }
        lines = [f"imported {len(objects)} design objects, {assigned} auto-assigned"]
    return Output(doc, lines)


def cmd_validate(args, repo: store.Repository) -> Output:
    # Loading enforces the forest invariants and referential integrity, so
    # a repository that loads has no findings.
    return Output({"ok": True, "findings": []}, ["ok"])


def cmd_suggest(args, repo: store.Repository) -> Output:
    artifact = store.get_artifact(repo, args.artifact_id)
    text = artifact.title if artifact.body is None else f"{artifact.title} {artifact.body}"
    results = suggest.suggest(text, repo.taxonomy, args.n)
    doc = {"artifact": artifact.id, "suggestions": [s.to_dict() for s in results]}
    lines = [
        f"{s.code}  {s.score:.4f}  "
        + ", ".join(f"{term}({source})" for term, source in s.matched_terms)
        for s in results
    ] or ["no suggestions"]
    return Output(doc, lines)


def cmd_assign(args, repo: store.Repository) -> Output:
    a = linkage.assign(repo, args.artifact_id, args.code, provenance=args.provenance,
                       now=_now())
    return Output({"assigned": a.to_dict()}, [f"assigned {a.artifact_id} -> {a.code} ({a.status})"])


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
        {"marked": a.to_dict()},
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
    for w in outcome.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return Output(
        {"split": outcome.to_dict()},
        [
            f"split {outcome.original_id} into {', '.join(outcome.part_ids)}:"
            f" deletes={outcome.deletes} adds={outcome.adds}"
        ],
    )


def cmd_trace(args, repo: store.Repository) -> Output:
    f = query.parse_filter_spec(args.filter)
    hits = query.trace(repo, args.artifact_id, args.to_kind, f, args.include_proposed)
    doc = {
        "source": args.artifact_id,
        "filter": f.spec(),
        "hits": [h.to_dict() for h in hits],
    }
    return Output(doc, _hit_lines(doc["hits"]) or ["no hits"])


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
    doc = dict(report.to_dict(), from_kind=args.from_kind, to_kind=args.to_kind)
    covered, uncovered = len(report.covered), len(report.uncovered)
    lines = [f"covered {covered}/{covered + uncovered} (rate {report.rate})"]
    lines.extend(f"uncovered: {item}" for item in report.uncovered)
    return Output(doc, lines, failed=bool(report.uncovered))


def cmd_impact(args, repo: store.Repository) -> Output:
    f = query.parse_filter_spec(args.filter)
    report = query.impact(repo, args.artifact_id, f, args.include_proposed)
    doc = dict(report.to_dict(), filter=f.spec())
    lines = []
    for kind, hits in sorted(doc["groups"].items()):
        lines.append(f"{kind}:")
        lines.extend(f"  {line}" for line in _hit_lines(hits))
    return Output(doc, lines or ["no impact"])


def cmd_audit(args, repo: store.Repository) -> Output:
    if args.check == "comprehensiveness":
        if len(args.model) != 1:
            raise ValueError("audit comprehensiveness needs exactly one --model")
        objects = _model_objects(repo, args.model[0])
        report = audit.check_comprehensiveness(objects, repo.taxonomy)
        doc = dict(report.to_dict(), model=args.model[0])
        lines = [
            f"total {report.total} classified {report.classified} ratio {report.ratio}"
        ] + _finding_lines(doc["findings"])
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
        doc = dict(report.to_dict(), models=list(args.model))
        lines = _finding_lines(doc["findings"]) or ["consistent"]
    return Output(doc, lines, failed=any(f["severity"] == audit.ERROR for f in doc["findings"]))


def cmd_diff(args, repo: store.Repository) -> Output:
    v1 = _model_objects(repo, args.from_version)
    v2 = _model_objects(repo, args.to_version)
    code_diff = audit.diff_codes(v1, v2)
    doc = dict(code_diff.to_dict(), from_model=args.from_version, to_model=args.to_version)
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
        doc["match"] = match.to_dict()
        lines.append(f"matched {len(match.matched_pairs)}/{len(v1)} (ratio {match.match_ratio})")
        lines.extend(_finding_lines(doc["match"]["code_changes"]))
    return Output(doc, lines)


def cmd_cost(args) -> Output:
    scenario = linkage.load_scenario(_read_file(args.scenario))
    count = linkage.maintenance_cost(scenario, args.strategy)
    doc = dict(count.to_dict(), strategy=args.strategy)
    return Output(
        doc,
        [f"strategy={args.strategy} deletes={count.deletes} adds={count.adds} touched={count.touched}"],
    )


# --- parser ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("init", help="create an empty repository file")
    p.add_argument("path", nargs="?", help="repository file (default: --repo)")
    p.set_defaults(func=cmd_init, access=None)

    p = sub.add_parser("import", help="ingest taxonomy, artifacts, or a model export")
    p.add_argument("what", choices=["taxonomy", "artifacts", "model"])
    p.add_argument("file")
    p.add_argument(
        "--taxonomy-format", choices=[taxonomy.TABULAR, taxonomy.STRUCTURED],
        default=taxonomy.TABULAR,
    )
    p.add_argument(
        "--infer-hierarchy",
        action="store_true",
        help="derive taxonomy parents from code prefixes",
    )
    p.set_defaults(func=cmd_import, access=EDIT)

    p = sub.add_parser("validate", help="check taxonomy and referential integrity")
    p.set_defaults(func=cmd_validate, access=READ)

    p = sub.add_parser("suggest", help="rank classes for an artifact's text")
    p.add_argument("artifact_id")
    p.add_argument("-n", type=int, default=5)
    p.set_defaults(func=cmd_suggest, access=READ)

    p = sub.add_parser("assign", help="link an artifact to a class")
    p.add_argument("artifact_id")
    p.add_argument("code")
    p.add_argument(
        "--provenance", choices=sorted(linkage.PROVENANCES), default=linkage.MANUAL
    )
    p.set_defaults(func=cmd_assign, access=EDIT)

    p = sub.add_parser("unassign", help="retire an artifact-to-class link")
    p.add_argument("artifact_id")
    p.add_argument("code")
    p.set_defaults(func=cmd_unassign, access=EDIT)

    p = sub.add_parser("mark-unclassifiable", help="record that no class fits")
    p.add_argument("artifact_id")
    p.add_argument("category", choices=list(linkage.REASON_CATEGORIES))
    p.add_argument("--note")
    p.set_defaults(func=cmd_mark_unclassifiable, access=EDIT)

    p = sub.add_parser("split", help="replace an artifact by parts, reallocating codes")
    p.add_argument("artifact_id")
    p.add_argument(
        "--part",
        action="append",
        required=True,
        metavar="NEW_ID:CODE[,CODE...]",
        help="repeat once per part",
    )
    p.set_defaults(func=cmd_split, access=EDIT)

    filter_help = "equal|ancestor|descendant|equal-or-descendant|sibling|neighborhood:k"

    p = sub.add_parser("trace", help="find artifacts related through the taxonomy")
    p.add_argument("artifact_id")
    p.add_argument("--to", dest="to_kind", help="restrict to one target kind")
    p.add_argument("--filter", default=query.EQUAL, help=filter_help)
    p.add_argument("--include-proposed", action="store_true")
    p.set_defaults(func=cmd_trace, access=READ)

    p = sub.add_parser("coverage", help="which from-kind artifacts reach the to-kind")
    p.add_argument("--from", dest="from_kind", required=True)
    p.add_argument("--to", dest="to_kind")
    p.add_argument("--filter", help=filter_help)
    p.add_argument("--policy", choices=list(query.POLICIES), default=query.COUNT_UNCLASSIFIABLE)
    p.add_argument("--include-proposed", action="store_true")
    p.set_defaults(func=cmd_coverage, access=READ)

    p = sub.add_parser("impact", help="artifacts affected by changing one artifact")
    p.add_argument("artifact_id")
    p.add_argument("--filter", default=query.EQUAL, help=filter_help)
    p.add_argument("--include-proposed", action="store_true")
    p.set_defaults(func=cmd_impact, access=READ)

    p = sub.add_parser("audit", help="check model classification quality")
    p.add_argument("check", choices=["comprehensiveness", "inter"])
    p.add_argument("--model", action="append", required=True, metavar="VERSION_LABEL")
    p.add_argument("--sample", action="append", metavar="CODE")
    p.add_argument("--type-attr", default="type")
    p.set_defaults(func=cmd_audit, access=READ)

    p = sub.add_parser("diff", help="compare codes between two model versions")
    p.add_argument("--from", dest="from_version", required=True, metavar="VERSION_LABEL")
    p.add_argument("--to", dest="to_version", required=True, metavar="VERSION_LABEL")
    p.add_argument(
        "--fingerprint",
        metavar="ATTRS",
        help="comma-separated attribute names, or 'default', to also match objects",
    )
    p.set_defaults(func=cmd_diff, access=READ)

    p = sub.add_parser("cost", help="compare link maintenance effort for a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--strategy", choices=[linkage.DIRECT, linkage.TAXONOMIC], required=True)
    p.set_defaults(func=cmd_cost, access=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.access is None:
            out = args.func(args)
        elif args.access == READ:
            out = args.func(args, store.load_repository(_repo_path(args)))
        else:
            with store.editing(_repo_path(args)) as repo:
                out = args.func(args, repo)
        if args.format == JSON:
            print(json.dumps(out.doc, sort_keys=True, indent=2, ensure_ascii=False))
        else:
            for line in out.lines:
                print(line)
    except (TaxTraceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if out.failed and args.strict else 0


if __name__ == "__main__":
    sys.exit(main())
