"""``edit``: a user runs mutating commands, each one whole ``cli.main`` call.

Every command loads the repository file, changes it and saves it.  The
bulk operation imports a model export of a few thousand objects, some
with codes the taxonomy does not know, into a copy of the populated
repository.  The benchmark tracks the (artifact, code) pairs it expects
to be active as it plans the commands.
"""

from __future__ import annotations

import json
import os
import random
import shutil

import gen
import harness
from taxtrace import linkage, store

SIZES = {
    "full": {"classes": 500, "commands": 40, "imports": 3000,
             "kinds": {store.REQUIREMENT: 300, store.DESIGN_OBJECT: 450,
                       store.TEST_CASE: 150, store.SOURCE_UNIT: 100}},
    "tiny": {"classes": 40, "commands": 16, "imports": 60,
             "kinds": {store.REQUIREMENT: 20, store.DESIGN_OBJECT: 30,
                       store.TEST_CASE: 10, store.SOURCE_UNIT: 5}},
}


def active_pairs(assignments) -> set[tuple[str, str]]:
    return {(a.artifact_id, a.code) for a in assignments if a.status == linkage.CONFIRMED}


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _file_hash(path: str) -> int:
    """The benchmark keeps a hash of each file it compares, not the file."""
    return hash(_read(path))


class Plan:
    """The seeded command sequence and the state it must leave behind."""

    def __init__(self, rng, repo: store.Repository, n: int) -> None:
        self.active: dict[str, set[str]] = {a: set() for a in repo.artifacts}
        for a in repo.assignments:
            if a.status == linkage.CONFIRMED:
                self.active[a.artifact_id].add(a.code)
        self.markers = {a.artifact_id: a.note for a in repo.assignments
                        if a.status == linkage.UNCLASSIFIABLE}
        self.kinds = {a.id: a.kind for a in repo.artifacts.values()}
        live = sorted(a.id for a in repo.artifacts.values() if not a.archived)
        codes = sorted(repo.taxonomy.nodes)
        self.splits: dict[str, dict[str, set[str]]] = {}
        # Parts no later command changes, with the codes allocated to them.
        self.parts: dict[str, set[str]] = {}
        self.commands: list[list[str]] = []
        # Two in five commands assign, one in four unassigns, the rest mark
        # or split; the order is seeded, the proportions are not.
        mix = [i * 20 // n for i in range(n)]
        rng.shuffle(mix)
        for i, roll in enumerate(mix):
            coded = [a for a in live if self.active[a]]
            if roll < 8:
                artifact = rng.choice(live)
                code = rng.choice([c for c in codes if c not in self.active[artifact]])
                self.active[artifact].add(code)
                self.parts.pop(artifact, None)
                argv = ["assign", artifact, gen.variant(rng, code)]
            elif roll < 13:
                artifact = rng.choice(coded)
                code = rng.choice(sorted(self.active[artifact]))
                self.active[artifact].remove(code)
                self.parts.pop(artifact, None)
                argv = ["unassign", artifact, code]
            elif roll < 16:
                artifact = rng.choice(live)
                category = rng.choice(linkage.REASON_CATEGORIES)
                argv = ["mark-unclassifiable", artifact, category]
                self.markers[artifact] = category
                if i % 2:
                    argv += ["--note", f"note {i}"]
                    self.markers[artifact] = f"{category}: note {i}"
            else:
                artifact = rng.choice(coded)
                allocation: dict[str, set[str]] = {f"{artifact}.{i}a": set(), f"{artifact}.{i}b": set()}
                for code in sorted(self.active[artifact]):
                    for part in rng.sample(sorted(allocation), rng.randint(1, 2)):
                        allocation[part].add(code)
                argv = ["split", artifact] + [
                    arg for part, part_codes in allocation.items()
                    for arg in ("--part", f"{part}:{','.join(sorted(part_codes))}")
                ]
                self.splits[artifact] = allocation
                self.active[artifact] = set()
                self.parts.pop(artifact, None)
                live.remove(artifact)
                for part, part_codes in allocation.items():
                    self.active[part] = set(part_codes)
                    self.kinds[part] = self.kinds[artifact]
                    self.parts[part] = set(part_codes)
                    live.append(part)
            self.commands.append(argv)

    def expected_pairs(self) -> set[tuple[str, str]]:
        return {(a, c) for a, codes in self.active.items() for c in codes}


class Edit:
    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed, self.size = seed, SIZES[size]
        self.setup_path = os.path.join(workdir, "setup.json")
        self.repo_path = os.path.join(workdir, "edit.json")
        self.bulk_path = os.path.join(workdir, "bulk.json")
        self.model_path = os.path.join(workdir, "model.csv")
        self.first_edit: int | None = None  # hash of the edited file
        self.first_import: tuple | None = None

    def setup(self) -> None:
        rng = random.Random(self.seed)
        generated = gen.link_repository(rng, self.size["classes"], self.size["kinds"])
        harness.save_apart(generated, self.setup_path)
        # The generated repository is not held while the program loads, so
        # the peak RSS is the program's; the plan is made from the loaded copy.
        del generated
        loaded = store.load_repository(self.setup_path)
        text, self.known, self.unknown = gen.import_model(
            rng, sorted(loaded.taxonomy.nodes), self.size["imports"])
        with open(self.model_path, "w", encoding="utf-8") as f:
            f.write(text)
        self.plan = Plan(rng, loaded, self.size["commands"])

    def _cli(self, path: str, argv: list[str]) -> harness.Command:
        return harness.call_cli(["--repo", path, "--format", "json", *argv])

    def warm_up(self) -> None:
        shutil.copyfile(self.setup_path, self.repo_path)
        for argv in self.plan.commands[:3]:
            self._cli(self.repo_path, argv)
        harness.as_fresh_process()

    def round(self, rec: harness.Recorder) -> list[str]:
        shutil.copyfile(self.setup_path, self.repo_path)
        for argv in self.plan.commands:
            rec.op(self._cli, self.repo_path, argv)
        edited = _file_hash(self.repo_path)
        if self.first_edit is None:
            self.first_edit = edited
            return []
        return [] if edited == self.first_edit else ["edited file differs from the first round"]

    def bulk(self, rec: harness.Recorder) -> list[str]:
        shutil.copyfile(self.setup_path, self.bulk_path)
        imported = rec.op(self._cli, self.bulk_path, ["import", "model", self.model_path],
                          bulk=True)
        ok = imported is not None and imported.code == 0
        outcome = (_file_hash(self.bulk_path), imported.out if ok else None,
                   imported.err if ok else None)
        if self.first_import is None:
            self.first_import = outcome
            return []
        names = ("imported file", "import output", "import warnings")
        return [f"{name} differs from the first import"
                for name, a, b in zip(names, outcome, self.first_import) if a != b]

    def check(self) -> list[str]:
        errors = []
        # The files of the last round and import are checked; every round
        # and import left the same bytes as the first, or has said otherwise.
        edited_bytes = _read(self.repo_path)
        edited = store.deserialize_repository(edited_bytes.decode("utf-8"))
        expected = self.plan.expected_pairs()
        if active_pairs(edited.assignments) != expected:
            errors.append("confirmed pairs after the commands differ from the expected set")
        if linkage.replay_edit_log(edited.edit_log) != expected:
            errors.append("the edit log does not replay to the expected set")
        markers = {a.artifact_id: a.note for a in edited.assignments
                   if a.status == linkage.UNCLASSIFIABLE}
        if markers != self.plan.markers:
            errors.append("unclassifiable markers differ from the commands issued")
        for original, allocation in self.plan.splits.items():
            if not edited.artifacts[original].archived:
                errors.append(f"split original {original} is not archived")
            for part in allocation:
                made = edited.artifacts.get(part)
                if made is None or made.kind != self.plan.kinds[part]:
                    errors.append(f"split part {part} is missing or has the wrong kind")
        for part, codes in self.plan.parts.items():
            if {c for a, c in active_pairs(edited.assignments) if a == part} != codes:
                errors.append(f"split part {part} does not carry the codes allocated to it")
        if store.serialize_repository(edited).encode("utf-8") != edited_bytes:
            errors.append("loading and saving the edited file changes its bytes")
        _, out, err = self.first_import
        errors += self._check_import(_read(self.bulk_path), out, err)
        return errors

    def _check_import(self, bulk_bytes: bytes, out: str | None, err: str | None) -> list[str]:
        if out is None:
            return ["import model failed"]
        errors = []
        doc = json.loads(out)
        warned = [w.split(":", 1)[0] for w in doc["warnings"]]
        if doc["assigned"] != len(self.known) or doc["count"] != self.size["imports"]:
            errors.append(f"import assigned {doc['assigned']} of {doc['count']} objects,"
                          f" expected {len(self.known)} of {self.size['imports']}")
        if sorted(warned) != sorted(self.unknown):
            errors.append("import did not warn exactly once for each unknown code")
        if err.count("warning:") != len(self.unknown):
            errors.append("import printed the wrong number of warnings on stderr")
        imported = store.deserialize_repository(bulk_bytes.decode("utf-8"))
        pairs = {(a, c) for a, c in active_pairs(imported.assignments) if a.startswith("X")}
        if pairs != set(self.known.items()):
            errors.append("imported objects are not assigned exactly their known codes")
        if store.serialize_repository(imported).encode("utf-8") != bulk_bytes:
            errors.append("loading and saving the imported file changes its bytes")
        return errors
