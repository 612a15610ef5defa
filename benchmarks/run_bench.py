#!/usr/bin/env python
"""The perf-trajectory bench harness.

Runs the paper's parameterised workload families
(:mod:`repro.workloads.scaling` plus the Figure 1 file protocol) at
several scaling sizes and writes a schema-stable ``BENCH_*.json`` so
every subsequent PR can be compared against this one's baseline.

Per run it records, via the :mod:`repro.obs` tracer:

* per-stage wall-clock seconds — ``derive`` (state/marking space),
  ``assemble`` (generator build), ``solve`` (steady state);
* state and transition counts (from the metrics registry);
* peak RSS (``resource.getrusage``, kilobytes on Linux).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py                 # full sweep
    PYTHONPATH=src python benchmarks/run_bench.py --quick         # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --label PR3     # BENCH_PR3.json
    PYTHONPATH=src python benchmarks/run_bench.py --quick \
        --baseline BENCH_PR2.json                 # self-compare, exit 1 on regression

The schema (``repro-bench/1``) is part of the repo's public surface:
``benchmarks/run_bench.py --quick`` runs in CI and the golden keys are
asserted by ``tests/obs/test_bench_harness.py``.  With ``--baseline``
the run is compared against an earlier snapshot through
:mod:`repro.obs.regress` and the exit status reflects the verdict.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from contextlib import ExitStack
from pathlib import Path

# Allow running straight from a checkout without installing.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.exists() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
# Batch workers resolve the ``run_bench:bench_call`` task target by
# importing this file as a module, so its directory must be on sys.path
# in every process (fork inherits this; spawn re-propagates sys.path).
_HERE = str(Path(__file__).resolve().parent)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

import numpy
import scipy

from repro.fluid.crossval import client_server_family, message_bus_model
from repro.obs import observe
from repro.utils.sysinfo import peak_rss_kib
from repro.pepa.ctmcgen import ctmc_from_statespace
from repro.pepa.parser import parse_model
from repro.pepa.statespace import derive
from repro.pepanets.measures import ctmc_of_net
from repro.ctmc.steady import steady_state
from repro.scenarios import corpus_net
from repro.workloads import (
    client_server_model,
    courier_ring_net,
    roaming_fleet_net,
    tandem_queue_model,
)

SCHEMA = "repro-bench/1"

FILE_PROTOCOL_TEMPLATE = """
r_o = 2.0; r_r = 10.0; r_w = 4.0; r_c = 1.0;
File = (openread, r_o).InStream + (openwrite, r_o).OutStream;
InStream = (read, r_r).InStream + (close, r_c).File;
OutStream = (write, r_w).OutStream + (close, r_c).File;
FileReader = (openread, T).Reading + (openwrite, T).Writing;
Reading = (read, T).Reading + (close, T).FileReader;
Writing = (write, T).Writing + (close, T).FileReader;
{system}
"""


def file_protocol_model(n_readers: int):
    """The quickstart file protocol scaled to ``n_readers`` independent
    reader components competing for one file."""
    readers = " || ".join(["FileReader"] * n_readers)
    system = f"File <openread, openwrite, read, write, close> ({readers})"
    return parse_model(FILE_PROTOCOL_TEMPLATE.format(system=system))


def fluid_client_server_model(replicas: int):
    """Two-replica client/server template for the fluid rows.

    The NVF dimension depends only on the local-state count, so the
    template is built once at the smallest size and ``run_one`` applies
    the ``replicas`` override at solve time — exactly the O(1)-in-N
    property the paired bench sizes gate.
    """
    return client_server_family(2)


def fluid_message_bus_model(replicas: int):
    """Two-replica message-bus template (linear flows, exact limit)."""
    return message_bus_model(2)


#: workload name -> (kind, builder, {label: size_kwargs}).  ``quick``
#: sizes are the first entry of each dict; the full sweep runs all.
WORKLOADS = {
    "file_protocol": (
        "pepa",
        file_protocol_model,
        [{"n_readers": 1}, {"n_readers": 2}, {"n_readers": 3}],
    ),
    "client_server": (
        "pepa",
        client_server_model,
        [{"n_clients": 3}, {"n_clients": 5}, {"n_clients": 7}],
    ),
    "tandem_queue": (
        "pepa",
        tandem_queue_model,
        [{"stages": 2, "capacity": 3}, {"stages": 3, "capacity": 3},
         {"stages": 3, "capacity": 5}],
    ),
    "courier_ring": (
        "net",
        courier_ring_net,
        [{"n_places": 3, "n_couriers": 2}, {"n_places": 4, "n_couriers": 2},
         {"n_places": 5, "n_couriers": 3}],
    ),
    "roaming_fleet": (
        "net",
        roaming_fleet_net,
        [{"n_sessions": 2, "n_transmitters": 3},
         {"n_sessions": 3, "n_transmitters": 3},
         {"n_sessions": 3, "n_transmitters": 4}],
    ),
    # Exploration throughput (states/sec) of the repro.core.explore
    # kernel on the exploding scaling model — derive only, no solve, so
    # the ``derive`` stage time gates kernel regressions directly.
    "explore_throughput": (
        "explore",
        client_server_model,
        [{"n_clients": 7}, {"n_clients": 8}, {"n_clients": 9}],
    ),
    # Mean-field (fluid) route: NVF compile + ODE steady solve.  The
    # replica count N only rescales the initial vector, so the paired
    # sizes must cost the same — the regression gate holds the fluid
    # promise (solve time O(1) in N) release over release.
    "fluid_client_server": (
        "fluid",
        fluid_client_server_model,
        [{"replicas": 1_000}, {"replicas": 1_000_000}],
    ),
    "fluid_message_bus": (
        "fluid",
        fluid_message_bus_model,
        [{"replicas": 1_000}, {"replicas": 1_000_000}],
    ),
    # Generated-scenario corpus (repro.scenarios): seeds picked for the
    # largest marking spaces in the first two hundred, so the bench
    # covers machine-drawn topologies none of the curated families hit.
    "corpus": (
        "net",
        corpus_net,
        [{"seed": 148}, {"seed": 116}, {"seed": 142}],
    ),
}

#: span name -> bench stage name
STAGE_SPANS = {
    "pepa.statespace": "derive",
    "pepanet.markingspace": "derive",
    "ctmc.assemble": "assemble",
    "ctmc.solve": "solve",
    "fluid.compile": "compile",
    "fluid.solve": "solve",
}


def run_one(workload: str, kind: str, builder, size: dict, solver: str) -> dict:
    """One benchmark run: build, derive, assemble, solve, all traced.

    ``kind == "explore"`` measures pure state-space exploration
    throughput: derive only, and the solver identity is pinned to
    ``"none"`` so the run matches across sweeps regardless of
    ``--solver``.  ``kind == "fluid"`` compiles the numerical vector
    form and solves the fluid steady state at ``size["replicas"]``
    (stages ``compile`` + ``solve``; the solver identity records the
    fluid method that converged).  Chain-building runs report the
    generator representation and its stored size (``generator`` /
    ``generator_bytes``) so regressions in generator memory are as
    visible as regressions in time.
    """
    model = builder(**size)
    chain = None
    t0 = time.perf_counter()
    with observe() as (tracer, metrics):
        if kind == "explore":
            space = derive(model)
        elif kind == "fluid":
            from repro.fluid.nvf import nvf_of_model
            from repro.fluid.ode import steady_fluid

            nvf, _shape, n_replicas = nvf_of_model(
                model, replicas=size.get("replicas"))
            _x, fluid_diagnostics = steady_fluid(nvf, n_replicas)
        elif kind == "pepa":
            space = derive(model)
            chain = ctmc_from_statespace(space)
        else:
            space, chain = ctmc_of_net(model)
        if chain is not None:
            Q = chain.Q
            generator_bytes = int(Q.data.nbytes + Q.indices.nbytes + Q.indptr.nbytes)
            steady_state(chain, method=solver, reducible="bscc")
    total = time.perf_counter() - t0
    if kind == "explore":
        solver = "none"
    elif kind == "fluid":
        solver = fluid_diagnostics.method or "none"

    stages: dict[str, float] = {}
    for root in tracer.roots:
        for span in root.iter_spans():
            stage = STAGE_SPANS.get(span.name)
            if stage is not None:
                stages[stage] = stages.get(stage, 0.0) + span.duration
    # Counts come from the returned space, not the exploration counters:
    # a derivation-cache hit skips exploration (no counter ticks) but
    # still yields the full space.  Fluid rows report the NVF dimension
    # and flow count — the quantities the solve cost actually scales in.
    if kind == "fluid":
        n_states, n_transitions = int(nvf.dimension), int(nvf.n_flows)
    else:
        n_states, n_transitions = int(space.size), int(len(space.arcs))
    record = {
        "workload": workload,
        "kind": kind,
        "size": size,
        "solver": solver,
        "n_states": n_states,
        "n_transitions": n_transitions,
        "stages": {name: round(seconds, 6) for name, seconds in sorted(stages.items())},
        "total_s": round(total, 6),
        "peak_rss_kb": peak_rss_kib(),
    }
    if chain is not None:
        record["generator"] = "csr"
        record["generator_bytes"] = generator_bytes
    return record


def bench_call(workload: str, size: dict, solver: str) -> dict:
    """Worker-side entry point for ``--jobs``: one bench run by name.

    Referenced as the batch-task target ``run_bench:bench_call``, so it
    takes only JSON-able arguments and resolves the builder itself.
    """
    kind, builder, _sizes = WORKLOADS[workload]
    return run_one(workload, kind, builder, size, solver)


def _chosen_runs(quick: bool, sizes_per_workload: int | None):
    """The (workload, kind, size) sweep in its canonical order."""
    n_sizes = 2 if quick else (sizes_per_workload or None)
    for workload, (kind, builder, sizes) in WORKLOADS.items():
        for size in sizes[:n_sizes] if n_sizes else sizes:
            yield workload, kind, builder, size


def _progress_line(record: dict) -> str:
    line = (f"    {record['n_states']} states in {record['total_s']:.3f}s "
            f"{record['stages']}")
    if record["kind"] == "explore" and record["stages"].get("derive"):
        line += (f" ({record['n_states'] / record['stages']['derive']:,.0f}"
                 " states/s)")
    return line


def run_suite(*, quick: bool, solver: str, label: str = "local",
              sizes_per_workload: int | None = None, progress=print,
              jobs: int = 1, cache_dir: str | None = None,
              cache_max_bytes: int | None = None) -> dict:
    """Run the whole sweep and return the JSON-ready document.

    ``jobs > 1`` fans the runs out across worker processes via the
    batch engine; ``cache_dir`` (any jobs count) reuses previously
    derived state spaces through the content-addressed cache, bounded
    by ``cache_max_bytes`` when given.  Both leave the sweep order —
    and hence the document's ``runs`` order — unchanged.  The document
    records the run's ``fault_counters`` (supervised retries,
    quarantines, cache evictions/corruption) — all zero in a healthy
    sweep, so the regression gate surfaces accidental retries as a
    perf signal.
    """
    sweep = list(_chosen_runs(quick, sizes_per_workload))
    runs = []
    fault_counters = {"retries": 0, "quarantined": 0,
                      "cache_evictions": 0, "cache_corrupt": 0}
    if jobs > 1 or cache_dir:
        from repro.batch import BatchTask, run_batch

        tasks = [
            BatchTask(
                id=f"{i}-{workload}", kind="call",
                payload={"target": "run_bench:bench_call",
                         "kwargs": {"workload": workload, "size": size,
                                    "solver": solver}},
            )
            for i, (workload, kind, builder, size) in enumerate(sweep)
        ]
        report = run_batch(tasks, jobs=jobs, cache_dir=cache_dir,
                           cache_max_bytes=cache_max_bytes)
        for result, (workload, kind, builder, size) in zip(report.results, sweep):
            size_label = ", ".join(f"{k}={v}" for k, v in size.items())
            progress(f"  {workload} ({size_label}) ...")
            if not result.ok:
                raise RuntimeError(
                    f"bench task {result.task_id} failed: {result.error}")
            progress(_progress_line(result.measures))
            runs.append(result.measures)
        totals = report.cache_totals()
        fault_counters["retries"] = report.retries
        fault_counters["quarantined"] = len(report.quarantined)
        fault_counters["cache_evictions"] = totals.get("evictions", 0)
        fault_counters["cache_corrupt"] = totals.get("corrupt", 0)
        if totals:
            progress(f"  cache: {totals.get('hits', 0)} hits, "
                     f"{totals.get('misses', 0)} misses, "
                     f"{totals.get('evictions', 0)} evicted")
    else:
        for workload, kind, builder, size in sweep:
            size_label = ", ".join(f"{k}={v}" for k, v in size.items())
            progress(f"  {workload} ({size_label}) ...")
            record = run_one(workload, kind, builder, size, solver)
            progress(_progress_line(record))
            runs.append(record)
    return {
        "schema": SCHEMA,
        "label": label,
        "created_unix": int(time.time()),
        "quick": quick,
        "solver": solver,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "fault_counters": fault_counters,
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2 sizes per workload (the CI smoke sweep)")
    parser.add_argument("--solver", default="direct",
                        help="steady-state method for every solve (default: direct)")
    parser.add_argument("--label", default="local",
                        help="snapshot label recorded in the document and used "
                             "for the default output name BENCH_<label>.json")
    parser.add_argument("-o", "--output", type=Path,
                        help="where to write the JSON document "
                             "(default: BENCH_<label>.json in the repo root)")
    parser.add_argument("--baseline", type=Path, metavar="FILE",
                        help="compare this run against an earlier repro-bench/1 "
                             "snapshot and exit 1 if any stage regressed")
    parser.add_argument("--threshold", type=float, default=None,
                        help="relative slow-down factor for --baseline "
                             "(default: repro.obs.regress.DEFAULT_THRESHOLD)")
    parser.add_argument("--min-seconds", type=float, default=None,
                        help="absolute-seconds floor for --baseline "
                             "(default: repro.obs.regress.DEFAULT_MIN_SECONDS)")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for the sweep (default: 1, "
                             "runs inline)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed derivation cache; repeated "
                             "sweeps skip state-space exploration entirely")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        metavar="BYTES",
                        help="LRU-evict cache entries beyond this total size")
    parser.add_argument("--ledger", type=Path, default=None, metavar="DIR",
                        help="also record this sweep as a repro-run/1 document "
                             "in the run ledger at DIR ('choreographer runs "
                             "trend' then gates the time series)")
    parser.add_argument("--profile", action="store_true",
                        help="sample the sweep with the wall-clock profiler")
    parser.add_argument("--profile-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="profiler sampling period (default: 0.005)")
    parser.add_argument("--profile-out", type=Path, default=None, metavar="FILE",
                        help="write collapsed-stack samples here")
    args = parser.parse_args(argv)
    created_unix = time.time()

    output = args.output
    if output is None:
        output = (Path(__file__).resolve().parent.parent
                  / f"BENCH_{args.label}.json")

    print(f"bench sweep ({'quick' if args.quick else 'full'}, "
          f"solver={args.solver}, label={args.label}, jobs={args.jobs})")
    profiler = None
    with ExitStack() as stack:
        if args.profile or args.profile_interval or args.profile_out:
            from repro.obs import (
                ProfileConfig, SamplingProfiler, SpanResourceProbe,
                use_profile_config, use_profiler, use_resource_probe,
            )
            from repro.obs.profile import DEFAULT_INTERVAL

            config = ProfileConfig(
                interval=args.profile_interval or DEFAULT_INTERVAL)
            profiler = SamplingProfiler(config.interval)
            stack.enter_context(use_profiler(profiler))
            stack.enter_context(use_resource_probe(SpanResourceProbe()))
            stack.enter_context(use_profile_config(config))
            stack.enter_context(profiler)
        document = run_suite(quick=args.quick, solver=args.solver,
                             label=args.label, jobs=args.jobs,
                             cache_dir=args.cache_dir,
                             cache_max_bytes=args.cache_max_bytes)
    output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {len(document['runs'])} runs to {output}")
    if profiler is not None and args.profile_out:
        args.profile_out.write_text(profiler.collapsed())
        print(f"collapsed profile written to {args.profile_out}")

    if args.ledger:
        from repro.obs import RunLedger, build_run_document

        run_document = build_run_document(
            command="bench",
            created_unix=created_unix,
            label=args.label,
            config={"quick": args.quick, "solver": args.solver,
                    "jobs": args.jobs},
            bench=document,
            profile=profiler.to_dict() if profiler is not None else None,
            extra={"output": str(output)},
        )
        run_id = RunLedger(args.ledger).record(run_document)
        print(f"run {run_id} recorded in ledger {args.ledger}")

    if args.baseline:
        from repro.obs.regress import (
            DEFAULT_MIN_SECONDS, DEFAULT_THRESHOLD, compare_benchmarks,
            load_bench, markdown_report,
        )

        comparison = compare_benchmarks(
            load_bench(args.baseline), document,
            threshold=args.threshold or DEFAULT_THRESHOLD,
            min_seconds=(DEFAULT_MIN_SECONDS if args.min_seconds is None
                         else args.min_seconds),
        )
        print()
        print(markdown_report(comparison))
        return 0 if comparison.ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
