"""Shared pieces of the workloads: timing, CLI calls and the run loop.

A workload object provides ``setup()``, ``warm_up()``, ``round(rec)``,
``bulk(rec)``, ``check()`` and ``repo_path``.  A round is a fixed, seeded
sequence of interactive operations; ``run`` repeats whole rounds for
most of the run's seconds, then repeats the bulk operation on its own for
the rest, so a faster bulk operation gets more samples, not fewer.

Every timing is scaled by the machine's speed at the time it was taken,
read from a fixed reference workload timed between operations (``Speed``).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from taxtrace import cli, store

# p90 must have at least ten samples beyond it.
MIN_OPS = 100
# The bulk phase repeats the bulk operation at least this often and for
# at least the bulk phase's share of the run; ``bulk_s`` is the median.
MIN_BULK = 7
# Share of the run's seconds given to interactive rounds; the bulk phase
# gets the rest.  The larger share goes to the rounds because a burst of
# load from other processes moves a p90 over few operations most.
INTERACTIVE_SHARE = 0.6
# Set-up repeats at least this often and for at least this long; its
# median is ``setup_s``.
SETUPS = 5
SETUP_SECONDS = 1.5
# Reference samples taken on each side of an interactive operation, and
# before and after each bulk operation and set-up; ``Speed.scale`` takes
# their median.
SPEED_WINDOW = 4
SPEED_BURST = 5
# Every duration is reported as if ``reference_work`` took this long.  It
# sets only the scale of the figures: on a quiet stretch of a 2.1 GHz Xeon
# vCPU, ``reference_work`` takes about 0.8 ms.
REFERENCE_S = 1e-3

_rng = random.Random(0)
_WORDS = ["".join(_rng.choice("bcdfghklmnprstvz") + _rng.choice("aeiou")
                  for _ in range(_rng.randint(2, 4))) for _ in range(300)]
_TEXT = " ".join(_rng.choice(_WORDS) for _ in range(2400))
_VOCAB = frozenset(_WORDS[::2])
_DOC = {w: {"title": w.title(), "parent": w[:3], "synonyms": [w[::-1], w.upper()]}
        for w in _WORDS[:240]}
_COUNTS: dict[str, int] = {}
del _rng


def reference_work() -> int:
    """A fixed piece of interpreter work like the program's, timed to read the machine's speed.

    String keys, dict and set lookups, sorting and JSON encoding, as in
    taxtrace's loads, walks and saves.  It makes no object that the cyclic
    garbage collector tracks and keeps none, so it does not move the
    program's collections.
    """
    counts = _COUNTS
    counts.clear()
    for word in _TEXT.split():
        key = word[:3]
        counts[key] = counts.get(key, 0) + len(word)
        if word in _VOCAB:
            counts[word] = counts.get(word, 0) + 1
    keys = sorted(counts, key=counts.__getitem__)
    return len(json.dumps(_DOC, sort_keys=True)) + len("|".join(keys).upper())


class Speed:
    """The machine's speed through a run, from ``reference_work`` timed between operations.

    This machine is a few vCPUs of a shared host, and its speed changes by
    a factor of two or more over minutes, with every timing of the
    program moving with it.  So each duration is scaled by ``REFERENCE_S``
    over the median of the reference samples taken nearest it: it reads
    as on a machine where ``reference_work`` takes ``REFERENCE_S``.  A
    change to taxtrace moves the durations and not the reference, so it
    shows; a change of the machine's speed moves both, so it cancels.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, n: int) -> None:
        for _ in range(n):
            start = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - start)

    def scale(self, mark: int, width: int) -> float:
        """REFERENCE_S over the median of the ``width`` samples on each side of ``mark``."""
        return REFERENCE_S / statistics.median(self.samples[max(0, mark - width):mark + width])

    def timed(self, fn, *args, before: int, after: int):
        """Call ``fn`` between ``before`` and ``after`` samples; return result, seconds, mark."""
        self.sample(before)
        mark = len(self.samples)
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.sample(after)
        return result, elapsed, mark


def _attempt(fn, *args):
    """``fn(*args)`` and None, or None and the exception it raised."""
    try:
        return fn(*args), None
    except Exception as exc:  # any exception from the program is a failed operation
        return None, exc


@dataclass
class Command:
    code: int
    out: str
    err: str


def call_cli(argv: list[str]) -> Command:
    """One whole ``taxtrace`` command, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits with 2 on a usage error
            code = exc.code
            if not isinstance(code, int):
                code = 0 if code is None else 1
    return Command(code, out.getvalue(), err.getvalue())


@dataclass
class Recorder:
    """Latencies and outcomes of the timed operations.

    Each latency is kept with the index of the first reference sample
    taken after it, so that it can be scaled by the speed around it.
    """

    speed: Speed
    ops: list[tuple[float, int]] = field(default_factory=list)
    bulks: list[tuple[float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, fn, *args, bulk: bool = False):
        """Time one operation; a call that raises or a command that exits non-zero fails.

        One reference sample follows an interactive operation, and a
        burst comes before and after a bulk operation.
        """
        self.attempted += 1
        burst = SPEED_BURST if bulk else 0
        (result, error), elapsed, mark = self.speed.timed(_attempt, fn, *args,
                                                          before=burst, after=burst or 1)
        (self.bulks if bulk else self.ops).append((elapsed, mark))
        if error is None and isinstance(result, Command) and result.code != 0:
            error = f"exit {result.code}: {result.err.strip()[:200]}"
        if error is not None:
            self.failed += 1
            self.failures.append(f"{getattr(fn, '__name__', fn)}{args!r:.200}: {error!r:.300}")
        return result

    def scaled(self, bulk: bool = False) -> list[float]:
        """Latencies in seconds, each scaled by the machine's speed around it."""
        width = SPEED_BURST if bulk else SPEED_WINDOW
        return [elapsed * self.speed.scale(mark, width)
                for elapsed, mark in (self.bulks if bulk else self.ops)]


def as_fresh_process() -> None:
    """Freeze every object alive now out of the cyclic garbage collector.

    ``edit`` and ``review`` stand in for one ``taxtrace`` process per
    command.  The objects alive between their commands are the benchmark's
    and the imported modules'; a fresh process would not hold the former,
    yet without this a full collection, which ran in one ``edit`` command
    in four, would scan them all.
    """
    gc.collect()
    gc.freeze()


def save_apart(repo: store.Repository, path: str) -> None:
    """Save a generated repository from a forked child process.

    Serialising a whole repository is the program's most memory-hungry
    step; done here it would set this process's peak RSS during set-up,
    and hide what the workload's own loads and operations use.
    """
    pid = os.fork()
    if pid == 0:
        try:
            store.save_repository(repo, path)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"saving {path} in a child process failed with status {status}")


def progress(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    errors: list[str]
    failures: list[str]


def run(workload, seconds: float, tracer=None) -> Outcome:
    """Set up, warm up, run whole rounds, then the bulk phase, then check.

    With a tracer, one more set-up, round and bulk operation run traced
    after the untraced ones; the metrics are then the tracer's totals
    over those, plus the traced minus untraced median latency.  Every
    time is scaled by the machine's speed (``Speed``).
    """
    speed = Speed()
    setups: list[float] = []
    while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
        _, elapsed, mark = speed.timed(workload.setup, before=SPEED_BURST, after=SPEED_BURST)
        setups.append(elapsed * speed.scale(mark, SPEED_BURST))
    progress(f"peak RSS after set-up {peak_rss_mb():.1f} MB")
    workload.warm_up()
    rec = Recorder(speed)
    errors: list[str] = []
    speed.sample(SPEED_WINDOW)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds * INTERACTIVE_SHARE or len(rec.ops) < MIN_OPS:
        errors += workload.round(rec)
    progress(f"peak RSS after the rounds {peak_rss_mb():.1f} MB")
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds * (1 - INTERACTIVE_SHARE)
           or len(rec.bulks) < MIN_BULK):
        errors += workload.bulk(rec)
    progress(f"peak RSS after the bulk phase {peak_rss_mb():.1f} MB; "
             f"{len(rec.ops)} operations, {len(rec.bulks)} bulk operations")
    ops, bulks = rec.scaled(), rec.scaled(bulk=True)
    progress(f"reference work took {statistics.median(speed.samples) * 1e3:.4f} ms at the median "
             f"(scaled to {REFERENCE_S * 1e3:g} ms); unscaled op p50 "
             f"{statistics.median(t for t, _ in rec.ops) * 1e3:.4f} ms, bulk "
             f"{statistics.median(t for t, _ in rec.bulks):.4f} s")
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_p90_ms": p90(ops) * 1e3,
        "ops_per_s": len(ops) / sum(ops),
        "bulk_s": statistics.median(bulks),
        "peak_rss_mb": peak_rss_mb(),
        "repo_file_mb": os.path.getsize(workload.repo_path) / 1e6,
    }
    attempted, failed, failures = rec.attempted, rec.failed, rec.failures
    if tracer is not None:
        traced = Recorder(speed)
        first = len(speed.samples)
        tracer.install()
        try:
            workload.setup()
            errors += workload.round(traced)
            errors += workload.bulk(traced)
        finally:
            tracer.uninstall()
        # Times are scaled like the end-to-end ones, by the speed over the traced part.
        scale = REFERENCE_S / statistics.median(speed.samples[first:])
        metrics = {name: value * scale if name.endswith("_ms") else value
                   for name, value in tracer.totals().items()}
        metrics["trace.overhead_ms"] = (
            statistics.median(traced.scaled()) - statistics.median(ops)
        ) * 1e3
        attempted += traced.attempted
        failed += traced.failed
        failures += traced.failures
    errors += workload.check()
    return Outcome(metrics, attempted, failed, errors, failures)
