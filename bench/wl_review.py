"""``review``: a user reviews model exports with read-only commands.

The repository holds a large taxonomy with titles, synonyms and
descriptions, requirements of which a third are unclassified, and two
export versions of one design model.  Interactive commands are
``suggest`` for unclassified requirements, ``audit comprehensiveness``
and ``diff --fingerprint default``; the bulk operation is ``audit inter``
over every code in use.  Every command loads the file; none saves it.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import os
import random
import re

import gen
import harness
import oracles
from taxtrace import linkage, store, taxonomy

SIZES = {
    "full": {"classes": 3000, "vocabulary": 3000, "objects": 1200, "requirements": 300,
             "suggests": 24},
    "tiny": {"classes": 60, "vocabulary": 200, "objects": 80, "requirements": 30,
             "suggests": 6},
}
SUGGESTIONS = 5
TOLERANCE = 1e-9
_FINDING_CODE = re.compile(r"^code '([^']*)'")


def _nodes(text: str) -> dict[str, dict]:
    """Title, description and synonyms of each class in a taxonomy CSV."""
    return {
        row["code"]: {"title": row["title"], "description": row["description"] or None,
                      "synonyms": [s for s in row["synonyms"].split("|") if s]}
        for row in csv.DictReader(io.StringIO(text))
    }


def _output(command: harness.Command | None) -> str | None:
    return None if command is None or command.code else command.out


class Review:
    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed, self.size = seed, SIZES[size]
        self.repo_path = os.path.join(workdir, "review.json")
        self.first: list | None = None
        self.first_bulk: str | None = None

    def setup(self) -> None:
        self.models = None
        rng = random.Random(self.seed)
        vocab = gen.vocabulary(rng, self.size["vocabulary"])
        parents = gen.forest(rng, self.size["classes"], n_roots=8)
        text = gen.taxonomy_csv(rng, parents, vocab)
        repo = store.new_repository(taxonomy.parse_taxonomy(text))
        self.taxonomy_text = text
        nodes = _nodes(text)
        codes = sorted(parents)
        self.models = gen.ReviewModels(rng, codes, self.size["objects"])
        links = gen.LinkState()
        self.texts: dict[str, str] = {}
        unclassified = []
        weights = gen.zipf_weights(len(vocab))
        for i in range(self.size["requirements"]):
            rid = f"R{i:05d}"
            node = nodes[rng.choice(codes)]
            words = (node["title"] + " " + " ".join(node["synonyms"])).split()
            body = " ".join(rng.sample(words, min(3, len(words)))) + " " + gen.phrase(
                rng, vocab, weights, 3 + i % 6)
            repo.artifacts[rid] = store.Artifact(rid, store.REQUIREMENT, f"Requirement {i}",
                                                 body=body)
            self.texts[rid] = f"Requirement {i} {body}"
            if i % 3 == 0:
                unclassified.append(rid)
            else:
                links.add(rid, rng.choice(codes))
        for obj in self.models.objects:
            repo.artifacts[obj.id] = obj
            code = obj.attrs.get(store.CODE_ATTR)
            if code and taxonomy.normalize_code(code) in parents:
                links.add(obj.id, taxonomy.normalize_code(code), linkage.IMPORTED)
        repo.assignments, repo.edit_log = links.assignments, links.edit_log
        harness.save_apart(repo, self.repo_path)
        # The checks need the seeded faults and identities, not the objects:
        # the generated objects and repository are dropped before the
        # program loads, so the peak RSS is the program's.
        self.totals = collections.Counter(o.version for o in self.models.objects)
        self.models.objects.clear()
        del repo, nodes
        store.load_repository(self.repo_path)
        commands = [["suggest", rid, "-n", str(SUGGESTIONS)]
                    for rid in rng.sample(unclassified, self.size["suggests"])]
        commands += [["audit", "comprehensiveness", "--model", v] for v in ("v1", "v2")]
        commands += [["diff", "--from", a, "--to", b, "--fingerprint", "default"]
                     for a, b in (("v1", "v2"), ("v2", "v1"))]
        rng.shuffle(commands)
        self.commands = commands
        self.bulk_argv = ["audit", "inter", "--model", "v1", "--model", "v2"]

    def _cli(self, argv: list[str]) -> harness.Command:
        return harness.call_cli(["--repo", self.repo_path, "--format", "json", *argv])

    def warm_up(self) -> None:
        for argv in self.commands[:3]:
            self._cli(argv)
        harness.as_fresh_process()

    def round(self, rec: harness.Recorder) -> list[str]:
        results = [rec.op(self._cli, argv) for argv in self.commands]
        outputs = [_output(r) for r in results]
        if self.first is None:
            self.first = outputs
            return []
        return [f"{' '.join(argv)}: output differs from the first round"
                for argv, a, b in zip(self.commands, outputs, self.first) if a != b]

    def bulk(self, rec: harness.Recorder) -> list[str]:
        output = _output(rec.op(self._cli, self.bulk_argv, bulk=True))
        if self.first_bulk is None:
            self.first_bulk = output
            return []
        return [] if output == self.first_bulk else [
            f"{' '.join(self.bulk_argv)}: output differs from the first run"]

    def check(self) -> list[str]:
        errors = []
        nodes = _nodes(self.taxonomy_text)
        for argv, out in zip(self.commands + [self.bulk_argv], self.first + [self.first_bulk]):
            if out is None:
                errors.append(f"{' '.join(argv)} failed")
                continue
            doc = json.loads(out)
            if argv[0] == "suggest":
                errors += self._check_suggest(nodes, argv[1], doc["suggestions"])
            elif argv[0] == "diff":
                errors += self._check_diff(argv[2], doc["match"])
            elif argv[1] == "comprehensiveness":
                errors += self._check_comprehensiveness(argv[3], doc)
            else:
                errors += self._check_inter(doc)
        return errors

    def _check_suggest(self, nodes: dict, rid: str, got: list[dict]) -> list[str]:
        scores = oracles.scoring_oracle(nodes, self.texts[rid])
        ranked = sorted(scores, key=lambda code: (-scores[code], code))[:SUGGESTIONS]
        errors = []
        if len(got) != len(ranked):
            errors.append(f"suggest {rid}: {len(got)} suggestions, oracle has {len(ranked)}")
        for i, (s, code) in enumerate(zip(got, ranked)):
            if s["code"] not in scores or abs(s["score"] - scores[s["code"]]) > TOLERANCE:
                errors.append(f"suggest {rid}: score of {s['code']} differs from scoring_oracle")
            elif s["code"] != code and abs(scores[code] - s["score"]) > TOLERANCE:
                errors.append(f"suggest {rid}: rank {i} is {s['code']}, oracle ranks {code}")
        for a, b in zip(got, got[1:]):
            if (-a["score"], a["code"]) > (-b["score"], b["code"]):
                errors.append(f"suggest {rid}: not ordered by score descending, then code")
        return errors

    def _check_comprehensiveness(self, version: str, doc: dict) -> list[str]:
        m = self.models
        total = self.totals[version]
        missing = {i for f in doc["findings"] if f["category"] == "missing-code"
                   for i in f["object_ids"]}
        unknown = {
            _FINDING_CODE.match(f["detail"]).group(1): set(f["object_ids"])
            for f in doc["findings"] if f["category"] == "unknown-code"
        }
        errors = []
        if doc["total"] != total or doc["classified"] != total - len(m.missing[version]):
            errors.append(f"comprehensiveness {version}: counts differ from the generator's")
        if missing != m.missing[version] or unknown != m.misspelled[version]:
            errors.append(f"comprehensiveness {version}: findings differ from the seeded faults")
        if len(doc["findings"]) != len(m.missing[version]) + len(m.misspelled[version]):
            errors.append(f"comprehensiveness {version}: unexpected extra findings")
        return errors

    def _check_diff(self, source: str, match: dict) -> list[str]:
        m = self.models
        pairs = {(a, b) for a, b in m.identity.items() if a not in m.ambiguous}
        changed = set(m.changed)
        if source == "v2":
            pairs = {(b, a) for a, b in pairs}
            changed = {(b, a) for a, b in changed}
        errors = []
        if {tuple(p) for p in match["matched_pairs"]} != pairs:
            errors.append(f"diff from {source}: matched pairs differ from the identity map")
        if {tuple(f["object_ids"]) for f in match["code_changes"]} != changed:
            errors.append(f"diff from {source}: code changes differ from the generator's")
        return errors

    def _check_inter(self, doc: dict) -> list[str]:
        flagged = {_FINDING_CODE.match(f["detail"]).group(1) for f in doc["findings"]}
        errors = []
        if flagged != self.models.inconsistent or len(doc["findings"]) != len(flagged):
            errors.append("audit inter flags other codes than the seeded inconsistent ones")
        if set(doc["per_code"]) != self.models.used:
            errors.append("audit inter did not sample exactly the codes in use")
        return errors
