"""Benchmark harness for the Figure-4 tool chain.

Usage, from the repository root::

    python3 perfbench/run.py --workload figure4_corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``README.md`` beside this file).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a human-readable summary goes to standard error.  The exit
code is 0 when every check passed, 1 when one failed, and 2 when the
program's sources are missing.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Extra cold starts per run; set-up is the median of these and the run's own.
SETUP_PROBES = 2
#: Fewest passes in an end-to-end window.  Each input's latency is the
#: best of its passes: on a shared 2-core VM the same op's CPU time swings
#: by 15-30% from second to second with what the neighbours run, and the
#: best of three repeats a few seconds apart is far steadier than any one.
MIN_PASSES = 3


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Window:
    """One closed-loop timed window: whole passes over the workload's
    items until the ops have taken ``seconds`` in total and there were at
    least ``min_passes`` passes.

    Only the op itself is timed; checks, counts and digests run between
    ops.  ``best`` keeps each item's fastest op.  ``fingerprint`` holds
    the exact counts of one pass, which every later pass must repeat.
    With a span recorder the ops are the traced re-compositions, folded
    into ``tally`` and checked against the untraced ``digests``.
    """

    def __init__(self, wl, seconds: float, min_passes: int, *, rec=None, tally=None,
                 digests=None):
        self.wl, self.seconds, self.min_passes = wl, seconds, min_passes
        self.rec, self.tally = rec, tally
        self.digests = {} if digests is None else digests
        self.best: dict[str, float] = {}
        self.models: dict[str, int] = {}
        self.passes = self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.fingerprint: dict[str, int] | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def op(self, item):
        """Run one op; returns ``(output, seconds)``."""
        if self.rec is None:
            start = time.perf_counter()
            out = self.wl.run(item)
        else:
            self.rec.op = self.attempted
            start = time.perf_counter()
            out = self.wl.traced(self.rec, item)
        return out, time.perf_counter() - start

    def outcome(self, item, out, elapsed) -> tuple[dict[str, int], list[str]]:
        """Counts and problems of one finished op (outside the timing)."""
        wl = self.wl
        if self.rec is not None:
            self.tally.add(out, elapsed)
            digest, counts = wl.traced_digest(item, out), wl.traced_counts(item, out)
            same = self.digests.get(item.key, digest) == digest
            return counts, [] if same else [f"{item.key}: traced digest differs"]
        problems = wl.check(item, out)
        digest = wl.digest(item, out)
        if self.digests.setdefault(item.key, digest) != digest:
            problems.append(f"{item.key}: output changed between passes")
        return wl.counts(item, out), problems

    def run(self) -> "Window":
        cpus = sorted(os.sched_getaffinity(0))
        try:
            return self._run(cpus)
        finally:
            os.sched_setaffinity(0, cpus)

    def _run(self, cpus: list[int]) -> "Window":
        gc.collect()
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        busy = 0.0
        while busy < self.seconds or self.passes < self.min_passes:
            self.passes += 1
            # Each pass on the next CPU in turn: a virtual CPU can run
            # slow for tens of seconds while its host core is shared, and
            # an item's best pass should not depend on which one the
            # scheduler picked.
            os.sched_setaffinity(0, {cpus[(self.passes - 1) % len(cpus)]})
            totals: dict[str, int] = {}
            done = 0
            # A fresh order each pass, so an item's repeats land at
            # unrelated moments of the window.
            items = list(self.wl.items())
            random.Random(self.passes).shuffle(items)
            for item in items:
                self.attempted += 1
                try:
                    out, elapsed = self.op(item)
                except Exception as exc:  # a failed op is counted, not fatal
                    self.fail(f"{item.key}: {type(exc).__name__}: {exc}")
                    continue
                busy += elapsed
                done += 1
                self.best[item.key] = min(elapsed, self.best.get(item.key, elapsed))
                self.models[item.key] = self.wl.models(item)
                counts, problems = self.outcome(item, out, elapsed)
                del out
                for name, value in counts.items():
                    totals[name] = totals.get(name, 0) + value
                if problems:
                    self.failed += 1
                    self.problems.extend(problems)
            if done == 0:
                break
            if self.fingerprint is None:
                self.fingerprint = totals
            elif totals != self.fingerprint:
                self.fail(f"pass counts {totals} differ from {self.fingerprint}")
        self.busy = busy
        self.wall = time.perf_counter() - wall0
        self.cpu = cpu_seconds() - cpu0
        return self

    @property
    def latencies(self) -> list[float]:
        """One latency per distinct item: its best op."""
        return list(self.best.values())

    def models_per_s(self) -> float:
        """Models of one pass over the sum of their best op times."""
        total = sum(self.best.values())
        return sum(self.models.values()) / total if total else 0.0


def setup_probe(args) -> float | None:
    """One more cold start in a fresh interpreter; its set-up seconds."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=False)
        return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError):
        return None


def check_fingerprint(workload: str, seed: int, fingerprint) -> str | None:
    """Compare with what earlier runs of the same seed in this checkout
    recorded; the first run records it."""
    path = WORK / "fingerprints" / f"{workload}-{seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != fingerprint:
            return f"fingerprint {fingerprint} differs from an earlier run's {earlier}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(fingerprint, sort_keys=True))
    os.replace(tmp, path)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2

    # One thread: every workload runs in this one process.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, tmp: Path) -> int:
    sys.path.insert(0, str(SRC))
    import workloads  # imports every repro module the ops need

    imported = time.perf_counter()
    wl = workloads.make(args.workload, work=tmp)
    # Input generation is not set-up; a set-up probe skips the references
    # the checks compare against.
    wl.make_inputs(args.seed, checks=not args.setup_probe)
    built = time.perf_counter()
    wl.build()
    setup = (imported - START) + (time.perf_counter() - built)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup}))
        return 0

    problems: list[str] = []
    if args.trace:
        import layers
        from chain import SpanRecorder

        half = (args.seconds / 2, 1)
        untraced = Window(wl, *half).run()
        rec, tally = SpanRecorder(), layers.LayerTally()
        traced = Window(wl, *half, rec=rec, tally=tally, digests=untraced.digests).run()
        if traced.fingerprint != untraced.fingerprint:
            problems.append("traced pass counts differ from the untraced ones")
        if isinstance(wl, workloads.BatchWorkload):
            problems += wl.traced_chain_pass(rec, tally, first_op=traced.attempted + 1)
        windows = [untraced, traced]
        spans = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps({"fields": ["op", "layer", "start_s", "end_s"],
                                     "spans": rec.spans}))
    else:
        windows = [Window(wl, args.seconds, MIN_PASSES).run()]
    main_window = windows[0]
    peak_rss = max(resource.getrusage(who).ru_maxrss for who in
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0

    samples = [setup] + [s for s in (setup_probe(args) for _ in range(SETUP_PROBES))
                         if s is not None]
    if len(samples) != 1 + SETUP_PROBES:
        problems.append("a set-up probe failed")
    fingerprint = {"workload": args.workload, "seed": args.seed,
                   **(main_window.fingerprint or {})}
    mismatch = check_fingerprint(args.workload, args.seed, fingerprint)
    if mismatch:
        problems.append(mismatch)

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows) + len(problems)
    problems = [p for w in windows for p in w.problems] + problems
    w = main_window
    if args.trace:
        metrics = layers.metrics(rec, tally, untraced, traced,
                                 cold=getattr(wl, "cold", None))
    else:
        metrics = {
            "models_per_s": (w.models_per_s(), "1/s"),
            "op_p50_ms": (statistics.median(w.latencies) * 1e3 if w.latencies else 0.0, "ms"),
            "op_p90_ms": (percentile(w.latencies, 0.9) * 1e3 if w.latencies else 0.0, "ms"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mib": (peak_rss, "MiB"),
        }
    correct = failed == 0 and attempted > 0
    print(f"perfbench {args.workload} seed={args.seed}: {w.attempted} ops in "
          f"{w.passes} passes, {w.busy:.3f}s busy / {w.wall:.3f}s wall, "
          f"fail_ratio={failed / max(1, attempted):g}, "
          f"cpu/wall={w.cpu / w.wall:.3f}, loadavg={os.getloadavg()[0]:.2f}, "
          f"setup samples={[round(s, 3) for s in samples]}, fingerprint={fingerprint}",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"  FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
