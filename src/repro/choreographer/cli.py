"""Command-line interface to the Choreographer platform.

Sub-commands mirror the tool-chain stages::

    choreographer analyse model.xmi --rates tomcat.rates -o reflected.xmi
    choreographer pepa model.pepa --solver gmres
    choreographer pepa model.pepa --solver direct,gmres,jacobi -v
    choreographer fluid model.pepa --replicas 100000
    choreographer net model.pepanet --export-prism out/model
    choreographer validate model.xmi
    choreographer pepa model.pepa --ledger runs --profile
    choreographer runs --ledger runs explain
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.choreographer.platform import Choreographer
from repro.choreographer.workbench import PepaNetWorkbench, PepaWorkbench
from repro.ctmc.export import write_prism_files
from repro.exceptions import ReproError, SolverError
from repro.extract.rates import RateTable, load_rates
from repro.resilience.budget import ExecutionBudget
from repro.resilience.fallback import GMRES_FIRST_STATES, FallbackPolicy
from repro.uml.validate import validate_for_extraction
from repro.utils.formatting import format_table

__all__ = ["main", "build_parser"]


def _solver_spec(text: str) -> str:
    """The ``--solver`` type: a method name or a comma-separated fallback
    chain, checked against the solver registry in O(1)."""
    try:
        FallbackPolicy.parse(text).validate()
    except SolverError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="choreographer",
        description="UML mobility models compiled to PEPA nets and solved as CTMCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_warehouse_flags(cmd: argparse.ArgumentParser) -> None:
        """Run-ledger + profiler flags shared by every run-producing command."""
        cmd.add_argument(
            "--ledger", type=Path, metavar="DIR",
            help="record this invocation (spans, metrics, events, profile) "
                 "as one repro-run/1 document in the repro-runs/1 ledger at "
                 "DIR; read it back with 'choreographer runs'")
        cmd.add_argument(
            "--profile", action="store_true",
            help="sample the run with the wall-clock profiler (statistical, "
                 "low overhead; off by default; needs --ledger)")
        cmd.add_argument(
            "--profile-interval", type=float, metavar="SECONDS",
            help="profiler sampling period (default: 0.005; needs --ledger)")
        cmd.add_argument(
            "--profile-memory", action="store_true",
            help="also stamp spans with tracemalloc allocation/peak deltas "
                 "(exact but measurably slower; implies --profile; needs "
                 "--ledger)")

    def add_solver_flag(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--solver", type=_solver_spec, default=None, metavar="METHODS",
            help="steady-state method, or a comma-separated fallback chain "
                 "tried in order, once each (e.g. direct,gmres,jacobi); "
                 f"default: direct,gmres,jacobi below {GMRES_FIRST_STATES} "
                 "states, gmres,direct,jacobi from there on")

    def add_resilience_flags(cmd: argparse.ArgumentParser) -> None:
        add_solver_flag(cmd)
        cmd.add_argument(
            "--deadline", type=float, metavar="SECONDS",
            help="cooperative wall-clock budget for every derivation of "
                 "the invocation (one clock, started as the command starts)")
        cmd.add_argument(
            "-v", "--verbose", action="store_true",
            help="print the solver attempt table (SolveDiagnostics)")
        add_warehouse_flags(cmd)

    analyse = sub.add_parser("analyse", help="run the full Figure 4 pipeline on an XMI file")
    analyse.add_argument("model", type=Path, help="Poseidon-flavoured XMI file")
    analyse.add_argument("--rates", type=Path, help=".rates file")
    analyse.add_argument("-o", "--output", type=Path, help="write the reflected XMI here")
    analyse.add_argument("--reset-rate", type=float, default=1.0,
                         help="rate of synthetic token-return firings")
    analyse.add_argument(
        "--no-strict", dest="strict", action="store_false",
        help="capture per-diagram failures into a pipeline report and keep "
             "analysing the remaining diagrams instead of failing fast")
    add_resilience_flags(analyse)

    pepa = sub.add_parser("pepa", help="solve a textual PEPA model")
    pepa.add_argument("model", type=Path)
    pepa.add_argument("--export-prism", type=Path, metavar="STEM",
                      help="also write PRISM .tra/.sta/.lab files")
    pepa.add_argument(
        "--fluid", action="store_true",
        help="solve the mean-field fluid limit (ODE over local-state "
             "occupancies) instead of the exact CTMC; the model must "
             "have the replicated population shape")
    pepa.add_argument(
        "--replicas", type=int, metavar="N",
        help="with --fluid, override the replica count of the system "
             "equation (solve time does not depend on N)")
    add_resilience_flags(pepa)

    fluid = sub.add_parser(
        "fluid",
        help="mean-field analysis: NVF compile + fluid ODE solve, or the "
             "fluid-vs-exact-vs-simulation cross-validation battery",
    )
    fluid.add_argument(
        "model", nargs="?", type=Path,
        help=".pepa file with a replicated system equation "
             "(omit with --crossval)")
    fluid.add_argument(
        "--replicas", type=int, metavar="N",
        help="override the replica count of the system equation")
    fluid.add_argument(
        "--methods", metavar="CHAIN",
        help="comma-separated steady-state fallback chain "
             "(default: newton,ode,damped)")
    fluid.add_argument(
        "--crossval", action="store_true",
        help="validate the fluid solver against the exact population "
             "CTMC (small N), scaled-measure convergence (growing N) "
             "and stochastic-simulation confidence intervals (large N) "
             "over built-in workload families")
    fluid.add_argument(
        "--families", metavar="NAMES",
        help="comma-separated family subset for --crossval: "
             "roaming_sessions, file_sink, message_bus, client_server "
             "(default: all)")
    fluid.add_argument(
        "--ssa-replicas", type=int, default=1000, metavar="N",
        help="population size of the simulation containment check "
             "(default: 1000)")
    fluid.add_argument(
        "--no-ssa", action="store_true",
        help="skip the stochastic-simulation containment check (faster)")
    fluid.add_argument(
        "--seed", type=int, default=2026, metavar="SEED",
        help="base seed of the simulation replications (default: 2026)")
    fluid.add_argument(
        "--report", type=Path, metavar="FILE",
        help="write the markdown comparison report here")
    fluid.add_argument(
        "-v", "--verbose", action="store_true",
        help="print the per-check table (and solver attempt table)")
    add_warehouse_flags(fluid)

    net = sub.add_parser("net", help="solve a textual PEPA net")
    net.add_argument("model", type=Path)
    net.add_argument("--export-prism", type=Path, metavar="STEM")
    add_resilience_flags(net)

    validate = sub.add_parser("validate", help="check an XMI file against the extractor's restrictions")
    validate.add_argument("model", type=Path)

    simulate = sub.add_parser(
        "simulate", help="stochastic simulation of a PEPA model or PEPA net"
    )
    simulate.add_argument("model", type=Path, help=".pepa or .pepanet file")
    simulate.add_argument("--t-end", type=float, default=1000.0)
    simulate.add_argument("--replications", type=int, default=8)
    simulate.add_argument("--warmup", type=float, default=0.0)
    simulate.add_argument("--seed", type=int, default=0)

    sensitivity = sub.add_parser(
        "sensitivity", help="rate-sensitivity profile of a PEPA model measure"
    )
    sensitivity.add_argument("model", type=Path, help=".pepa file")
    sensitivity.add_argument("--measure", required=True,
                             help="action whose throughput to differentiate")

    sub.add_parser(
        "experiments",
        help="re-run every experiment of EXPERIMENTS.md and report paper-vs-measured",
    )

    dot = sub.add_parser(
        "dot", help="render a model as Graphviz dot (structure and/or state space)"
    )
    dot.add_argument("model", type=Path, help=".pepa or .pepanet file")
    dot.add_argument("--what", choices=["structure", "states", "both"], default="both")
    dot.add_argument("-o", "--output", type=Path, metavar="STEM",
                     help="write <STEM>.structure.dot / <STEM>.states.dot instead of stdout")

    batch = sub.add_parser(
        "batch",
        help="run many models / experiments across worker processes with a "
             "content-addressed derivation cache",
    )
    batch.add_argument(
        "inputs", nargs="*", type=Path, metavar="MODEL",
        help=".xmi, .pepa or .pepanet files; each becomes one task")
    batch.add_argument(
        "--experiments", action="store_true",
        help="also run every EXPERIMENTS.md row, one task per experiment")
    batch.add_argument(
        "--corpus", type=int, metavar="N",
        help="also derive N generated corpus scenarios (repro.scenarios), "
             "one net task per seed")
    batch.add_argument(
        "--corpus-base", type=int, default=0, metavar="SEED",
        help="first corpus seed (default: 0)")
    batch.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (1 = run inline, still through the task path)")
    batch.add_argument(
        "--cache-dir", type=Path, default=Path(".choreographer-cache"),
        metavar="DIR",
        help="content-addressed derivation cache directory "
             "(default: .choreographer-cache)")
    batch.add_argument(
        "--no-cache", action="store_true",
        help="bypass the derivation cache entirely")
    batch.add_argument(
        "--cache-max-bytes", type=int, metavar="BYTES",
        help="evict least-recently-used cache entries beyond this total size")
    batch.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="extra attempts per failed/crashed/hung task before it is "
             "quarantined (default: 2)")
    batch.add_argument(
        "--task-timeout", type=float, metavar="SECONDS",
        help="per-attempt wall-clock timeout; a hung task's pool is rebuilt "
             "and the task retried (needs --jobs >= 2)")
    batch.add_argument(
        "--journal", type=Path, metavar="FILE",
        help="append every completed task to this repro-journal/1 checkpoint "
             "file as the run proceeds")
    batch.add_argument(
        "--resume", type=Path, metavar="JOURNAL",
        help="resume a journalled run: replay recorded results, run only "
             "what's missing (task list comes from the journal)")
    batch.add_argument(
        "--chaos", action="append", default=[], metavar="SPEC",
        help="inject a deterministic batch fault, e.g. 'kill:taskid@1', "
             "'hang:taskid@1:30', 'cache-enospc:*'; repeatable (drills only)")
    batch.add_argument("--rates", type=Path, help=".rates file for XMI tasks")
    add_solver_flag(batch)
    batch.add_argument(
        "--fluid", action="store_true",
        help="solve PEPA tasks on the mean-field fluid route instead of "
             "the exact CTMC (nets and XMI pipelines are unaffected)")
    batch.add_argument(
        "--replicas", type=int, metavar="N",
        help="with --fluid, replica-count override applied to every "
             "PEPA task")
    batch.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="per-task wall-clock budget (the clock starts when the task does)")
    batch.add_argument(
        "--measures", type=Path, metavar="FILE",
        help="write the canonical, schedule-independent measures JSON here "
             "(byte-identical across --jobs settings)")
    add_warehouse_flags(batch)

    fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the extract pipeline against direct "
             "PEPA-net construction over generated scenarios",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=100, metavar="N",
        help="number of seeds to sweep (default: 100)")
    fuzz.add_argument(
        "--start", type=int, default=0, metavar="SEED",
        help="first seed (default: 0)")
    fuzz.add_argument(
        "--out", type=Path, metavar="DIR",
        help="dump minimised reproducer directories for divergent seeds here")
    fuzz.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="cooperative wall-clock budget for the whole sweep; exceeding "
             "it stops gracefully (seeds not reached are not failures)")
    fuzz.add_argument(
        "--tolerance", type=float, default=None, metavar="REL",
        help="relative measure tolerance (default: 1e-8)")
    fuzz.add_argument(
        "--max-states", type=int, default=None, metavar="N",
        help="marking-space size cap per scenario")
    fuzz.add_argument(
        "--no-minimise", action="store_true",
        help="skip shrinking divergent specs (faster triage)")
    add_solver_flag(fuzz)
    add_warehouse_flags(fuzz)

    runs = sub.add_parser(
        "runs", help="query the persistent run ledger (repro-runs/1 store)"
    )
    runs.add_argument(
        "--ledger", type=Path, default=Path("repro-runs"), metavar="DIR",
        help="ledger directory (default: repro-runs)")
    # A nested sub-parse re-copies its namespace over the parent's, which
    # resets ``command`` to the default None; pin it instead.
    runs.set_defaults(command="runs")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_sub.add_parser("list", help="one line per recorded run")
    # dest: --command would land on args.command and clobber the
    # top-level dispatch key
    runs_list.add_argument("--command", dest="filter_command", metavar="NAME",
                           help="only runs of this command (pepa, batch, ...)")
    runs_list.add_argument("--last", type=int, metavar="N",
                           help="only the newest N matching runs")

    runs_show = runs_sub.add_parser("show", help="dump one run document as JSON")
    runs_show.add_argument("run_id", nargs="?", default=None,
                           help="run id (default: the newest run)")

    runs_explain = runs_sub.add_parser(
        "explain",
        help="critical path, per-span profile and metrics of one run")
    runs_explain.add_argument("run_id", nargs="?", default=None,
                              help="run id (default: the newest run)")

    runs_compare = runs_sub.add_parser(
        "compare",
        help="span-time regression gate between two recorded runs of "
             "the same config (exit 1 on regression)")
    runs_compare.add_argument("base", help="baseline run id")
    runs_compare.add_argument("new", help="current run id")
    runs_compare.add_argument("--threshold", type=float, default=None,
                              metavar="FACTOR")
    runs_compare.add_argument("--min-seconds", type=float, default=None,
                              metavar="SECONDS")
    runs_compare.add_argument("--report", type=Path, metavar="FILE",
                              help="also write the markdown report here")

    runs_trend = runs_sub.add_parser(
        "trend",
        help="judge the newest run's span times against earlier runs "
             "of the same config (exit 1 on regression)")
    runs_trend.add_argument("--command", dest="filter_command", metavar="NAME",
                            help="only trend runs of this command")
    runs_trend.add_argument("--window", type=int, metavar="N",
                            help="use only the newest N comparable runs")
    runs_trend.add_argument("--threshold", type=float, default=None,
                            metavar="FACTOR",
                            help="relative slow-down gate (default: 1.5)")
    runs_trend.add_argument("--min-seconds", type=float, default=None,
                            metavar="SECONDS",
                            help="absolute slow-down floor (default: 0.05)")
    runs_trend.add_argument("--report", type=Path, metavar="FILE",
                            help="also write the markdown report here")

    runs_export = runs_sub.add_parser(
        "export", help="re-export a recorded run in standard formats")
    runs_export.add_argument("run_id", nargs="?", default=None,
                             help="run id (default: the newest run)")
    runs_export.add_argument("--chrome", type=Path, metavar="FILE",
                             help="Chrome Trace Event JSON of the run's spans, "
                                  "events and profile (Perfetto-loadable)")
    runs_export.add_argument("--prometheus", type=Path, metavar="FILE",
                             help="Prometheus text exposition of the run's metrics")
    runs_export.add_argument("--collapsed", type=Path, metavar="FILE",
                             help="collapsed-stack profiler samples "
                                  "(flamegraph.pl / speedscope format)")

    runs_prune = runs_sub.add_parser("prune", help="delete all but the newest runs")
    runs_prune.add_argument("--keep", type=int, required=True, metavar="N")
    return parser


def _load_rate_table(path: Path | None) -> RateTable | None:
    return load_rates(path) if path else None


def _profile_config(args: argparse.Namespace):
    """The ProfileConfig an invocation asked for, or ``None``."""
    from repro.obs import ProfileConfig
    from repro.obs.profile import DEFAULT_INTERVAL

    if not (getattr(args, "profile", False)
            or getattr(args, "profile_memory", False)
            or getattr(args, "profile_interval", None) is not None):
        return None
    return ProfileConfig(
        interval=getattr(args, "profile_interval", None) or DEFAULT_INTERVAL,
        memory=getattr(args, "profile_memory", False),
    )


def _ledger_config(args: argparse.Namespace) -> dict:
    """The identity-bearing slice of an invocation, for fingerprinting."""
    config = {"command": args.command}
    for key in ("solver", "model", "seeds", "start", "jobs", "experiments",
                "corpus", "reset_rate", "fluid", "replicas", "crossval",
                "families", "ssa_replicas"):
        value = getattr(args, key, None)
        if value not in (None, False):
            config[key] = str(value) if isinstance(value, Path) else value
    return config


def _print_diagnostics(analysis, verbose: bool) -> None:
    """On --verbose, print the solve's attempt table."""
    diagnostics = getattr(analysis, "diagnostics", None)
    if verbose and diagnostics is not None:
        print(diagnostics.summary())
        print(diagnostics.as_table())
        print()


def _invocation_budget(args: argparse.Namespace) -> ExecutionBudget | None:
    """The invocation's one wall clock, started now, from ``--deadline``."""
    if args.deadline is None:
        return None
    return ExecutionBudget.of(deadline_seconds=args.deadline)


def _cmd_analyse(args: argparse.Namespace) -> int:
    platform = Choreographer(
        solver=args.solver, strict=args.strict, budget=_invocation_budget(args),
    )
    text = args.model.read_text()
    result = platform.process_xmi(
        text, _load_rate_table(args.rates), reset_rate=args.reset_rate
    )
    for outcome in result.activity_outcomes:
        print(outcome.report())
        _print_diagnostics(outcome.analysis, args.verbose)
        print()
    for outcome in result.statechart_outcomes:
        print(outcome.report())
        _print_diagnostics(outcome.analysis, args.verbose)
        print()
    if not result.report.ok:
        print("degraded: some diagrams failed", file=sys.stderr)
        print(result.report.summary(), file=sys.stderr)
    if args.output:
        args.output.write_text(result.document)
        print(f"reflected model written to {args.output}")
    return 0 if result.report.ok else 3


def _print_fluid_analysis(analysis, verbose: bool) -> None:
    """The fluid result surface: coordinates, throughputs, occupancies."""
    print(f"{analysis.dimension} fluid coordinates "
          f"({analysis.n_replica_states} replica-local), "
          f"N={analysis.replicas}, method={analysis.solver}")
    _print_diagnostics(analysis, verbose)
    rows = [[a, v] for a, v in analysis.all_throughputs().items()]
    print(format_table(["activity", "throughput"], rows))
    rows = [[name, v] for name, v in analysis.occupancies().items()]
    print(format_table(["local state", "mean occupancy"], rows))


def _cmd_pepa(args: argparse.Namespace) -> int:
    if args.replicas is not None and not args.fluid:
        print("error: --replicas only scales the fluid route; pass --fluid",
              file=sys.stderr)
        return 2
    if args.fluid and args.export_prism:
        print("error: the fluid route has no finite chain to export; "
              "drop --export-prism or --fluid", file=sys.stderr)
        return 2
    workbench = PepaWorkbench(
        solver=args.solver, budget=_invocation_budget(args),
        fluid=args.fluid, replicas=args.replicas,
    )
    analysis = workbench.solve_source(args.model.read_text())
    if args.fluid:
        _print_fluid_analysis(analysis, args.verbose)
        return 0
    print(f"{analysis.n_states} states, solver={analysis.solver}")
    _print_diagnostics(analysis, args.verbose)
    rows = [[a, v] for a, v in analysis.all_throughputs().items()]
    print(format_table(["activity", "throughput"], rows))
    if args.export_prism:
        paths = write_prism_files(analysis.chain, args.export_prism)
        print("PRISM files:", ", ".join(str(p) for p in paths))
    return 0


def _cmd_fluid(args: argparse.Namespace) -> int:
    from repro.fluid import FAMILIES, run_crossval
    from repro.fluid.ode import FLUID_METHODS, analyse_fluid
    from repro.pepa.parser import parse_model

    if args.crossval:
        families = None
        if args.families:
            families = [f.strip() for f in args.families.split(",") if f.strip()]
            unknown = sorted(set(families) - set(FAMILIES))
            if unknown:
                print(f"error: unknown families {', '.join(unknown)}; "
                      f"choose from {', '.join(FAMILIES)}", file=sys.stderr)
                return 2
        report = run_crossval(
            families,
            ssa_replicas=args.ssa_replicas,
            include_ssa=not args.no_ssa,
            base_seed=args.seed,
        )
        if args.verbose:
            print(report.as_table())
            print()
        print(report.summary())
        if args.report:
            args.report.write_text(report.markdown())
            print(f"comparison report written to {args.report}",
                  file=sys.stderr)
        return 0 if report.ok else 1
    if args.model is None:
        print("error: pass a .pepa model file or --crossval", file=sys.stderr)
        return 2
    model = parse_model(args.model.read_text())
    analysis = analyse_fluid(model, replicas=args.replicas,
                             methods=args.methods or FLUID_METHODS)
    _print_fluid_analysis(analysis, args.verbose)
    return 0


def _cmd_net(args: argparse.Namespace) -> int:
    workbench = PepaNetWorkbench(solver=args.solver, budget=_invocation_budget(args))
    analysis = workbench.solve_source(args.model.read_text())
    print(f"{analysis.n_states} markings, solver={analysis.solver}")
    _print_diagnostics(analysis, args.verbose)
    rows = [[a, v] for a, v in analysis.all_throughputs().items()]
    print(format_table(["activity", "throughput"], rows))
    rows = [[p, v] for p, v in analysis.location_distribution().items()]
    print(format_table(["place", "mean tokens"], rows))
    if args.export_prism:
        paths = write_prism_files(analysis.chain, args.export_prism)
        print("PRISM files:", ", ".join(str(p) for p in paths))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    model = Choreographer.read(args.model.read_text())
    exit_code = 0
    for graph in model.activity_graphs:
        problems = validate_for_extraction(graph)
        if problems:
            exit_code = 1
            for problem in problems:
                print(f"{graph.name}: {problem}")
        else:
            print(f"{graph.name}: ok")
    if not model.activity_graphs:
        print("no activity graphs in the model")
    return exit_code


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.pepa.parser import parse_model
    from repro.pepanets.parser import parse_net
    from repro.sim import estimate_throughput, net_transition_fn, pepa_transition_fn, replicate

    text = args.model.read_text()
    if args.model.suffix == ".pepanet" or "->" in text:
        net = parse_net(text)
        fn, initial = net_transition_fn(net), net.initial_marking()
        actions = sorted({t.action for t in net.transitions.values()})
    else:
        model = parse_model(text)
        fn, initial = pepa_transition_fn(model), model.system
        actions = sorted(model.alphabet)
    results = replicate(
        fn, initial, args.t_end,
        n_replications=args.replications, warmup=args.warmup, base_seed=args.seed,
    )
    observed = sorted({a for r in results for a in r.action_counts})
    rows = []
    for action in observed or actions:
        est = estimate_throughput(results, action)
        rows.append([action, est.mean, est.half_width])
    print(f"{args.replications} replications over t = {args.t_end} (warmup {args.warmup})")
    print(format_table(["activity", "throughput", "±95%"], rows))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.pepa import parse_model, sensitivity_profile
    from repro.pepa.ctmcgen import ctmc_of_model

    model = parse_model(args.model.read_text())
    space, chain = ctmc_of_model(model)
    profile = sensitivity_profile(space, chain, args.measure)
    print(f"d throughput({args.measure}) / d (scale of each action's rates):")
    print(format_table(["perturbed action", "sensitivity"],
                       [[a, v] for a, v in profile.items()]))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    """Render the model as Graphviz dot; PEPA nets get both a structure
    and a marking-space view, plain PEPA a derivation graph."""
    from repro.pepa.export import derivation_graph_dot
    from repro.pepa.parser import parse_model
    from repro.pepa.statespace import derive
    from repro.pepanets.export import marking_space_dot, net_structure_dot
    from repro.pepanets.parser import parse_net
    from repro.pepanets.semantics import explore_net

    text = args.model.read_text()
    renderings: dict[str, str] = {}
    if args.model.suffix == ".pepanet" or "->" in text:
        net = parse_net(text)
        if args.what in ("structure", "both"):
            renderings["structure"] = net_structure_dot(net)
        if args.what in ("states", "both"):
            renderings["states"] = marking_space_dot(explore_net(net))
    else:
        model = parse_model(text)
        if args.what in ("states", "both"):
            renderings["states"] = derivation_graph_dot(derive(model))
        if args.what == "structure":
            print("plain PEPA has no net-level structure; use --what states",
                  file=sys.stderr)
            return 2
    if args.output:
        for kind, dot_text in renderings.items():
            path = args.output.with_suffix(f".{kind}.dot")
            path.write_text(dot_text)
            print(f"wrote {path}")
    else:
        for kind, dot_text in renderings.items():
            print(f"// {kind}")
            print(dot_text)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.choreographer.experiments import render_report, run_all_experiments

    records = run_all_experiments()
    print(render_report(records))
    return 0 if all(r.ok for r in records) else 1


def _batch_tasks(args: argparse.Namespace) -> list:
    """Build the task list: one task per input file (+ experiments)."""
    from repro.batch import BatchTask
    from repro.choreographer.experiments import EXPERIMENTS

    tasks = []
    seen: set[str] = set()
    for path in args.inputs:
        text = path.read_text()
        if path.suffix == ".xmi":
            kind, payload = "xmi", {"text": text, "solver": args.solver}
            if args.rates:
                payload["rates_text"] = args.rates.read_text()
        elif path.suffix == ".pepanet" or "->" in text:
            kind, payload = "net", {"source": text, "solver": args.solver}
        else:
            kind, payload = "pepa", {"source": text, "solver": args.solver}
            if getattr(args, "fluid", False):
                payload["fluid"] = True
                if getattr(args, "replicas", None) is not None:
                    payload["replicas"] = args.replicas
        task_id = path.stem
        while task_id in seen:
            task_id += "+"
        seen.add(task_id)
        tasks.append(BatchTask(id=task_id, kind=kind, payload=payload))
    if args.experiments:
        for experiment_id in EXPERIMENTS:
            tasks.append(BatchTask(
                id=f"experiment-{experiment_id}", kind="experiment",
                payload={"experiment": experiment_id},
            ))
    if getattr(args, "corpus", None):
        from repro.scenarios import corpus_source

        for seed in range(args.corpus_base, args.corpus_base + args.corpus):
            tasks.append(BatchTask(
                id=f"corpus-{seed}", kind="net",
                payload={"source": corpus_source(seed), "solver": args.solver},
            ))
    return tasks


def _cmd_batch(args: argparse.Namespace) -> int:
    import time

    from repro.batch import BatchEngine
    from repro.batch.engine import RetryPolicy
    from repro.batch.journal import tasks_fingerprint
    from repro.obs import RunLedger, build_run_document
    from repro.resilience.faultinject import BatchFaultPlan

    created_unix = time.time()

    if args.resume and (args.inputs or args.experiments or args.corpus):
        print("--resume takes its task list from the journal; "
              "do not pass inputs, --experiments or --corpus with it",
              file=sys.stderr)
        return 2
    if args.resume and args.journal:
        print("--resume appends to the journal it resumes from; "
              "--journal is redundant", file=sys.stderr)
        return 2
    tasks = [] if args.resume else _batch_tasks(args)
    if not tasks and not args.resume:
        print("nothing to do: pass model files, --experiments or --corpus N",
              file=sys.stderr)
        return 2
    try:
        faults = BatchFaultPlan.parse(args.chaos) if args.chaos else None
    except ValueError as exc:
        print(f"bad --chaos spec: {exc}", file=sys.stderr)
        return 2
    engine = BatchEngine(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        deadline_seconds=args.deadline,
        retry=RetryPolicy(retries=args.retries, task_timeout=args.task_timeout),
        journal=args.journal,
        cache_max_bytes=args.cache_max_bytes,
        faults=faults,
        profile=_profile_config(args),
    )
    if args.resume:
        report = engine.resume(args.resume)
    else:
        report = engine.run(tasks)
    print(report.summary())
    if args.measures:
        args.measures.write_text(report.measures_json())
        print(f"measures written to {args.measures}", file=sys.stderr)
    if args.ledger:
        document = build_run_document(
            command="batch",
            created_unix=created_unix,
            config=_ledger_config(args),
            tasks_fingerprint=tasks_fingerprint(tasks) if tasks else None,
            trace=report.merged_trace(),
            metrics=report.merged_metrics(),
            events=report.merged_events(),
            events_dropped=report.events_dropped,
            profile=report.merged_profile(),
            incidents=report.incidents,
            extra={
                "jobs": report.jobs,
                "duration_s": round(report.duration_s, 6),
                "ok": report.ok,
                "tasks": len(report.results),
                "failures": len(report.failures),
                "quarantined": len(report.quarantined),
                "retries": report.retries,
            },
        )
        run_id = RunLedger(args.ledger).record(document)
        print(f"run {run_id} recorded in ledger {args.ledger}", file=sys.stderr)
    return 0 if report.ok else 3


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.scenarios import fuzz

    report = fuzz.run_sweep(
        range(args.start, args.start + args.seeds),
        solver=args.solver,
        max_states=args.max_states or fuzz.DEFAULT_MAX_STATES,
        tolerance=args.tolerance or fuzz.DEFAULT_TOLERANCE,
        deadline=args.deadline,
        out_dir=args.out,
        minimise=not args.no_minimise,
        progress=lambda line: print(line, file=sys.stderr),
    )
    print(report.summary())
    return 0 if report.ok else 1


def _run_observed(handler, args: argparse.Namespace) -> int:
    """Run a handler; with ``--ledger DIR``, record it as one run document.

    The recorded handler runs under live collectors, inside one
    ``cli.<command>`` root span, so the trace is one tree and the stage
    spans are its children.  The run document carries that trace, its
    span aggregates, the metrics snapshot, every buffered event and,
    under ``--profile``, the sampled stacks.  It is recorded even when
    the handler raises, so failed runs leave evidence behind.
    """
    ledger_dir = getattr(args, "ledger", None)
    if ledger_dir is None:
        return handler(args)

    import time
    from contextlib import nullcontext

    from repro.obs import (
        EventStream, MetricsRegistry, ObsContext, RunLedger, SamplingProfiler,
        SpanResourceProbe, Tracer, build_run_document, use_obs,
    )

    config = _profile_config(args)
    created_unix = time.time()
    probe = SpanResourceProbe(memory=config.memory) if config is not None else None
    tracer, metrics, events = Tracer(probe=probe), MetricsRegistry(), EventStream()
    profiler = SamplingProfiler(config.interval) if config is not None else None
    exit_code: int | None = None
    try:
        with use_obs(ObsContext(tracer, metrics, events)), \
                profiler or nullcontext(), tracer.span(f"cli.{args.command}"):
            try:
                exit_code = handler(args)
            except Exception:
                exit_code = 2  # what main() maps library errors to
                raise
            return exit_code
    finally:
        if probe is not None:
            probe.close()
        document = build_run_document(
            command=args.command,
            created_unix=created_unix,
            config=_ledger_config(args),
            trace=tracer.to_dict(),
            metrics=metrics.as_dict(),
            events=events.to_dicts(),
            events_dropped=events.dropped,
            profile=profiler.to_dict() if profiler is not None else None,
            extra={"exit_code": exit_code},
        )
        run_id = RunLedger(ledger_dir).record(document)
        print(f"run {run_id} recorded in ledger {ledger_dir}", file=sys.stderr)


def _cmd_runs(args: argparse.Namespace) -> int:
    """The ledger query surface: list/show/explain/compare/trend/export/prune."""
    import json
    from datetime import datetime, timezone

    from repro.obs import (
        RunLedger, collapsed_text, critical_path, prometheus_text,
        render_aggregate, render_critical_path, render_metrics,
        write_chrome_trace,
    )
    from repro.obs.regress import (
        DEFAULT_MIN_SECONDS, DEFAULT_THRESHOLD, detect_trend, trend_markdown,
    )

    if args.runs_command != "prune" and not (args.ledger / "FORMAT").exists():
        print(f"error: no run ledger at {args.ledger}", file=sys.stderr)
        return 2
    ledger = RunLedger(args.ledger)

    def _load(run_id: str | None) -> dict:
        if run_id is None:
            latest = ledger.latest()
            if latest is None:
                raise FileNotFoundError(f"ledger {args.ledger} is empty")
            return latest
        return ledger.load(run_id)

    if args.runs_command == "list":
        documents = ledger.runs(command=args.filter_command, last=args.last)
        if not documents:
            print("(no recorded runs)")
            return 0
        rows = []
        for document in documents:
            created = datetime.fromtimestamp(
                document.get("created_unix", 0), tz=timezone.utc
            ).strftime("%Y-%m-%d %H:%M:%S")
            rows.append([
                document.get("run_id", "?"),
                document.get("command", "?"),
                document.get("label") or "",
                created,
                document.get("config_fingerprint", "")[:12],
            ])
        print(format_table(
            ["run", "command", "label", "created (UTC)", "config"], rows,
        ))
        return 0

    def _trace_of(document: dict) -> dict | None:
        if "trace" not in document:
            print(f"error: run {document.get('run_id')} embeds no trace; "
                  "record it with --ledger on a run-producing command",
                  file=sys.stderr)
        return document.get("trace")

    if args.runs_command == "show":
        print(json.dumps(_load(args.run_id), sort_keys=True, indent=2))
        return 0

    if args.runs_command == "explain":
        document = _load(args.run_id)
        trace = _trace_of(document)
        if trace is None:
            return 2
        print(render_critical_path(critical_path(trace)))
        print()
        print(render_aggregate(document["spans"]))
        print()
        print(render_metrics(document.get("metrics", {})))
        return 0

    if args.runs_command in ("compare", "trend"):
        compare = args.runs_command == "compare"
        trend = detect_trend(
            [_load(args.base), _load(args.new)] if compare
            else ledger.runs(command=args.filter_command),
            threshold=args.threshold or DEFAULT_THRESHOLD,
            min_seconds=(DEFAULT_MIN_SECONDS if args.min_seconds is None
                         else args.min_seconds),
            window=None if compare else args.window,
        )
        if compare and len(trend.run_ids) < 2:
            print(f"error: runs {args.base} and {args.new} are not "
                  "comparable: both need span aggregates and the same "
                  "config fingerprint", file=sys.stderr)
            return 2
        report = trend_markdown(trend)
        print(report)
        if args.report:
            args.report.write_text(report)
        return 0 if trend.ok else 1

    if args.runs_command == "export":
        document = _load(args.run_id)
        if not (args.chrome or args.prometheus or args.collapsed):
            print("error: pass --chrome, --prometheus and/or --collapsed",
                  file=sys.stderr)
            return 2
        if args.chrome:
            trace = _trace_of(document)
            if trace is None:
                return 2
            count = write_chrome_trace(
                args.chrome, trace,
                events=document.get("events", {}).get("records"),
                profile=document.get("profile"),
            )
            print(f"{count} Chrome trace events written to {args.chrome}")
        if args.prometheus:
            snapshot = {"schema": "repro-metrics/1",
                        "metrics": document.get("metrics", {})}
            args.prometheus.write_text(prometheus_text(snapshot))
            print(f"Prometheus metrics written to {args.prometheus}")
        if args.collapsed:
            profile = document.get("profile", {})
            if not profile.get("samples"):
                print(f"error: run {document.get('run_id')} carries no "
                      "profiler samples; record it with --profile",
                      file=sys.stderr)
                return 2
            args.collapsed.write_text(collapsed_text(profile))
            print(f"collapsed profile written to {args.collapsed}")
        return 0

    if args.runs_command == "prune":
        removed = ledger.prune(args.keep)
        print(f"pruned {removed} run(s), kept {len(ledger)}")
        return 0

    raise ValueError(f"unknown runs sub-command {args.runs_command!r}")


def main(argv: list[str] | None = None) -> int:
    """Entry point: dispatch a sub-command, mapping library errors to exit code 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if _profile_config(args) is not None and getattr(args, "ledger", None) is None:
        # the profile lands in the run document; with no ledger it has
        # nowhere to go
        parser.error("--profile, --profile-interval and --profile-memory "
                     "require --ledger")
    handlers = {
        "analyse": _cmd_analyse,
        "pepa": _cmd_pepa,
        "fluid": _cmd_fluid,
        "net": _cmd_net,
        "validate": _cmd_validate,
        "simulate": _cmd_simulate,
        "sensitivity": _cmd_sensitivity,
        "experiments": _cmd_experiments,
        "dot": _cmd_dot,
        "batch": _cmd_batch,
        "fuzz": _cmd_fuzz,
        "runs": _cmd_runs,
    }
    try:
        if args.command in ("batch", "runs"):
            # batch records its own --ledger document, merged over every
            # task; runs *queries* a ledger rather than filling one
            return handlers[args.command](args)
        return _run_observed(handlers[args.command], args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
