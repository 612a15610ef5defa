"""The four benchmark workloads: inputs, the timed op, and its checks.

Each workload makes its inputs from the workload seed alone, builds the
program's platform objects and runs one untimed warm-up op in
:meth:`build` (that is the set-up the harness times), and then offers a
*pass*: the list of items one closed-loop client feeds to :meth:`run`,
one at a time.  Everything else here — checks, counts, references —
runs outside the timed op.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from catalog import load_catalog
from chain import SpanRecorder, analyses_of, pepa_digest, traced_pepa, traced_xmi, xmi_digest
from repro.batch import BatchTask, DerivationCache, run_batch, use_cache
from repro.choreographer.platform import Choreographer
from repro.choreographer.workbench import PepaWorkbench
from repro.core.keys import stable_digest
from repro.extract.rates import RateTable, parse_rates
from repro.pepa.export import model_source
from repro.pepanets.measures import analyse_net
from repro.scenarios import GeneratorParams, generate_scenario, scenario_from_spec
from repro.workloads.scaling import client_server_model

INPUTS = Path(__file__).resolve().parent / "inputs"

#: Agreement demanded between two routes to the same measure.
TOLERANCE = 1e-8


def _close(a: float, b: float, tol: float = TOLERANCE) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _chain_counts(analyses) -> dict[str, int]:
    """Exact counts of one op: models, markings/states, arcs, non-zeros."""
    return {
        "models": 1,
        "markings": sum(a.n_states for a in analyses),
        "arcs": sum(len(a.space.arcs) for a in analyses),
        "nnz": sum(int(a.chain.Q.nnz) for a in analyses),
    }


def residual(analysis) -> float:
    """‖πQ‖∞ of a solved chain."""
    return float(np.abs(analysis.chain.Q.T @ analysis.pi).max())


# ----------------------------------------------------------------------
# XMI documents: the paper's PDA project and generated scenarios
# ----------------------------------------------------------------------
@dataclass
class Doc:
    key: str
    text: str
    rates: dict | None = None          # scenario rates, by activity name
    rates_text: str | None = None      # a .rates file (the PDA document)
    reset_rate: float = 1.0
    expect: int | None = None          # catalog markings
    # Direct-net route (Scenario.build_net) measures: throughput by action
    # and occupancy by place.
    ref_throughputs: dict = field(default_factory=dict, repr=False)
    ref_locations: dict = field(default_factory=dict, repr=False)

    def rate_table(self) -> RateTable:
        if self.rates_text is not None:
            return parse_rates(self.rates_text)
        return RateTable.from_numbers(self.rates)

    def payload(self) -> dict:
        """The ``xmi`` batch-task payload of this document."""
        payload = {"text": self.text, "reset_rate": self.reset_rate}
        if self.rates_text is not None:
            payload["rates_text"] = self.rates_text
        else:
            payload["rates"] = self.rates
        return payload


def pda_doc() -> Doc:
    return Doc(
        key="pda_project",
        text=(INPUTS / "pda_project.xmi").read_text(),
        rates_text=(INPUTS / "tomcat.rates").read_text(),
    )


def corpus_docs(workload: str, family: str, count: int, seed: int, *,
                references: bool = True, fixed: bool = False) -> list[Doc]:
    """The PDA document plus ``count`` catalog scenarios, one from each of
    ``count`` equal-size cost strata.

    The seed draws each stratum's scenario, or with ``fixed`` takes its
    middle one and instead rescales every rate of it by a seeded factor
    in [1/2, 2]: a marking space does not depend on the rates, so the work
    stays the same from seed to seed while the numbers change.  With
    ``references`` each scenario is also solved once through its directly
    built PEPA net, the independent route the checks use."""
    cat = load_catalog()["families"][family]
    params = GeneratorParams(**cat["params"])
    entries = sorted(cat["entries"], key=lambda e: (e[4], e[0]))
    rng = random.Random(f"{workload}/{seed}")
    n = len(entries)
    strata = [entries[k * n // count:(k + 1) * n // count] for k in range(count)]
    picks = [s[len(s) // 2] if fixed else rng.choice(s) for s in strata]
    rng.shuffle(picks)
    docs = [pda_doc()]
    for scenario_seed, markings, *_ in picks:
        scenario = generate_scenario(scenario_seed, params)
        if fixed:
            def rescale(rate: float) -> float:
                # Four digits keep the rate exact through %g formatting.
                return float(f"{rate * 2.0 ** rng.uniform(-1.0, 1.0):.4g}")

            scenario = scenario_from_spec(replace(
                scenario.spec,
                rates=tuple((name, rescale(rate)) for name, rate in scenario.spec.rates),
                reset_rate=rescale(scenario.spec.reset_rate),
            ))
        doc = Doc(
            key=f"{family}-{scenario_seed}",
            text=scenario.xmi_text(),
            rates=scenario.rates,
            reset_rate=scenario.spec.reset_rate,
            expect=markings,
        )
        if references:
            ref = analyse_net(scenario.build_net())
            doc.ref_throughputs = ref.all_throughputs()
            doc.ref_locations = ref.location_distribution()
        docs.append(doc)
    return docs


def check_xmi(doc: Doc, result) -> list[str]:
    """The PDA handover split, or agreement with the direct-net route."""
    if doc.expect is None:
        for outcome in result.activity_outcomes:
            names = {node.name for node in outcome.graph.actions()}
            if {"abort download", "continue download"} <= names:
                abort = outcome.throughput_of("abort download")
                cont = outcome.throughput_of("continue download")
                if not _close(abort, cont, 1e-9):
                    return [f"{doc.key}: abort {abort!r} != continue {cont!r}"]
                return []
        return [f"{doc.key}: no handover diagram in the result"]
    outcome = result.activity_outcomes[0]
    analysis = outcome.analysis
    if analysis.n_states != doc.expect:
        return [f"{doc.key}: {analysis.n_states} markings, the catalog has {doc.expect}"]
    problems = []
    for row in outcome.results:
        # An action the chain never performs has throughput 0, as in
        # repro.ctmc.rewards.throughput.
        want = (doc.ref_locations.get(row.subject) if row.measure == "occupancy"
                else doc.ref_throughputs.get(row.subject, 0.0))
        if want is None or not _close(row.value, want):
            problems.append(f"{doc.key}: {row.kind} {row.subject} {row.measure} "
                            f"{row.value!r} vs direct net {want!r}")
    return problems


class XmiWorkload:
    """``Choreographer.process_xmi`` over a document corpus, one op per
    document (closed loop, one client)."""

    def __init__(self, name: str, family: str, count: int, *, fixed: bool = False):
        self.name, self.family, self.count, self.fixed = name, family, count, fixed

    def make_inputs(self, seed: int, checks: bool = True) -> None:
        self.docs = corpus_docs(self.name, self.family, self.count, seed,
                                references=checks, fixed=self.fixed)

    def build(self) -> None:
        self.platform = Choreographer()
        warm = pda_doc()
        self.platform.process_xmi(warm.text, warm.rate_table())

    def items(self) -> list[Doc]:
        return self.docs

    def models(self, doc: Doc) -> int:
        return 1

    def run(self, doc: Doc):
        return self.platform.process_xmi(doc.text, doc.rate_table(),
                                         reset_rate=doc.reset_rate)

    def digest(self, doc: Doc, result) -> str:
        return xmi_digest(result.document, [o.results for o in result.activity_outcomes]
                          + [o.results for o in result.statechart_outcomes])

    def check(self, doc: Doc, result) -> list[str]:
        return check_xmi(doc, result)

    def counts(self, doc: Doc, result) -> dict[str, int]:
        return _chain_counts(analyses_of(result))

    # -- traced -----------------------------------------------------------
    def traced(self, rec: SpanRecorder, doc: Doc):
        document, tables, analyses = traced_xmi(
            rec, self.platform, doc.text, doc.rate_table(), doc.reset_rate)
        return TracedXmi(doc, document, tables, analyses)

    def traced_digest(self, doc: Doc, out: "TracedXmi") -> str:
        return xmi_digest(out.document, out.tables)

    def traced_counts(self, doc: Doc, out: "TracedXmi") -> dict[str, int]:
        return _chain_counts(out.analyses)


@dataclass
class TracedXmi:
    doc: Doc
    document: str
    tables: list
    analyses: list

    @property
    def xmi_bytes(self) -> int:
        return len(self.doc.text.encode()) + len(self.document.encode())


# ----------------------------------------------------------------------
# solve_heavy: one large PEPA model in the LU-fill regime
# ----------------------------------------------------------------------
@dataclass
class Model:
    key: str
    source: str


class SolveWorkload:
    """``PepaWorkbench().solve_source`` on ``client_server_model(10)``
    (6,144 states), plus every throughput."""

    name = "solve_heavy"
    CLIENTS = 10

    def make_inputs(self, seed: int, checks: bool = True) -> None:
        # The seed rescales the time unit.  Only these four powers of two
        # keep the LU pivot sequence (and so the fill: 14,556,971 factor
        # non-zeros) of the unscaled model; other rates move the op time
        # by up to 15% through fill alone.
        scale = 2.0 ** random.Random(f"{self.name}/{seed}").choice((-1, 0, 1, 2))
        model = client_server_model(self.CLIENTS, think_rate=1.0 * scale,
                                    request_rate=2.0 * scale, serve_rate=5.0 * scale)
        self.model = Model(f"client_server_{self.CLIENTS}", model_source(model))

    def build(self) -> None:
        self.workbench = PepaWorkbench()
        self.workbench.solve_source(model_source(client_server_model(4))).all_throughputs()

    def items(self) -> list[Model]:
        return [self.model]

    def models(self, model: Model) -> int:
        return 1

    def run(self, model: Model):
        analysis = self.workbench.solve_source(model.source)
        return analysis, analysis.all_throughputs()

    def digest(self, model: Model, out) -> str:
        analysis, throughputs = out
        return pepa_digest(analysis.n_states, throughputs)

    def check(self, model: Model, out) -> list[str]:
        analysis, tp = out
        n = self.CLIENTS
        problems = []
        if analysis.n_states != 2 ** (n - 1) * (n + 2):
            problems.append(f"{analysis.n_states} states, expected {2 ** (n - 1) * (n + 2)}")
        pi = analysis.pi
        if pi.min() < 0 or not _close(float(pi.sum()), 1.0, 1e-12):
            problems.append(f"probability mass {float(pi.sum())!r}, min {float(pi.min())!r}")
        scale = float(analysis.chain.exit_rates().max())
        if residual(analysis) > 1e-10 * scale:
            problems.append(f"residual {residual(analysis):g} above 1e-10 x {scale:g}")
        # Every client cycle is think -> request -> response.
        if not (_close(tp["think"], tp["request"], 1e-9)
                and _close(tp["request"], tp["response"], 1e-9)):
            problems.append(f"cycle throughputs disagree: {tp}")
        return problems

    def counts(self, model: Model, out) -> dict[str, int]:
        return _chain_counts([out[0]])

    def traced(self, rec: SpanRecorder, model: Model):
        return traced_pepa(rec, self.workbench, model.source)

    traced_digest = digest
    traced_counts = counts


# ----------------------------------------------------------------------
# batch_warm: run_batch over corpus documents against a warm cache
# ----------------------------------------------------------------------
@dataclass
class Batch:
    key: str
    tasks: list


class BatchWorkload:
    """``run_batch`` at ``jobs=1`` over 200 ``xmi`` tasks against a
    derivation cache, ten tasks a batch.  Set-up fills the cache cold with
    one batch of all 200; each timed op is one warm batch that reads it.

    ``jobs=1`` runs each batch inline, in the benchmark's own process: a
    pool of ``nproc`` workers needs every virtual CPU at once, and on a
    shared host ten runs at ``jobs=2`` spread up to 25% between quartiles.
    Ten tasks a batch make a pass twenty short ops, so each op's best can
    come from a different quiet moment of the window, as on
    ``figure4_corpus``; one batch of 200 needed a whole quiet pass."""

    name = "batch_warm"
    COUNT = 199
    TASKS_PER_BATCH = 10

    def __init__(self, cache_dir: Path):
        self.cache_dir = cache_dir

    def make_inputs(self, seed: int, checks: bool = True) -> None:
        self.docs = corpus_docs(self.name, "corpus", self.COUNT, seed, references=False)
        tasks = [BatchTask(id=f"{i:03d}-{doc.key}", kind="xmi", payload=doc.payload())
                 for i, doc in enumerate(self.docs)]
        self.batch = Batch(f"batch-{len(tasks)}", tasks)
        size = self.TASKS_PER_BATCH
        self.batches = [Batch(f"batch-{k // size:02d}", tasks[k:k + size])
                        for k in range(0, len(tasks), size)]

    def build(self) -> None:
        self.cold = run_batch(self.batch.tasks, jobs=1, cache_dir=self.cache_dir)
        self.cold_measures = {r.task_id: r.measures for r in self.cold.results}

    def items(self) -> list[Batch]:
        return self.batches

    def models(self, batch: Batch) -> int:
        return len(batch.tasks)

    def run(self, batch: Batch):
        return run_batch(batch.tasks, jobs=1, cache_dir=self.cache_dir)

    def digest(self, batch: Batch, report) -> str:
        return stable_digest(report.measures_json())

    def check(self, batch: Batch, report) -> list[str]:
        problems = []
        for name, rep in (("cold", self.cold), ("warm", report)):
            if not rep.ok or rep.retries or rep.quarantined or rep.incidents:
                problems.append(f"{name} batch unhealthy: {rep.summary().splitlines()[-1]}")
        cold = self.cold.cache_totals()
        if not cold.get("stores"):
            problems.append(f"cold fill stored nothing: {cold}")
        warm = report.cache_totals()
        hits, misses = warm.get("hits", 0), warm.get("misses", 0)
        if not hits or misses:
            problems.append(f"warm hit ratio {hits}/{hits + misses} is not 1.0")
        if any(r.measures.get("failures") for r in report.results):
            problems.append("a batch document reported diagram failures")
        if [r.measures for r in report.results] != [self.cold_measures[t.id]
                                                    for t in batch.tasks]:
            problems.append(f"{batch.key}: warm measures differ from the cold run's")
        return problems

    def counts(self, batch: Batch, report) -> dict[str, int]:
        diagrams = [d for r in report.results for d in r.measures.get("diagrams", ())]
        return {
            "models": len(report.results),
            "markings": sum(d["n_states"] for d in diagrams),
            "cache_hits": report.cache_totals().get("hits", 0),
        }

    # ``run_batch`` gives the span recorder no way in: the benchmark sees
    # a warm batch through its report alone, so the traced op is the
    # untraced one.
    def traced(self, rec: SpanRecorder, batch: Batch):
        return self.run(batch)

    traced_digest = digest
    traced_counts = counts

    def traced_chain_pass(self, rec: SpanRecorder, tally, first_op: int) -> list[str]:
        """Every batch document once through the traced chain, inline,
        against the warm cache: where a warm task spends its time.  Each
        annotated document must hash like the batch task's."""
        platform = Choreographer()
        expected = {r.task_id: r.measures["document_sha256"] for r in self.cold.results}
        problems = []
        with use_cache(DerivationCache(self.cache_dir)):
            for i, (task, doc) in enumerate(zip(self.batch.tasks, self.docs)):
                rec.op = first_op + i
                start = time.perf_counter()
                document, tables, analyses = traced_xmi(
                    rec, platform, doc.text, doc.rate_table(), doc.reset_rate)
                tally.add(TracedXmi(doc, document, tables, analyses),
                          time.perf_counter() - start)
                if stable_digest(document) != expected[task.id]:
                    problems.append(f"{task.id}: traced document differs from the batch's")
        return problems


def make(name: str, *, work: Path):
    if name == "figure4_corpus":
        return XmiWorkload(name, "corpus", 160)
    if name == "derive_heavy":
        return XmiWorkload(name, "heavy", 6, fixed=True)
    if name == "solve_heavy":
        return SolveWorkload()
    if name == "batch_warm":
        return BatchWorkload(work / "cache")
    raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


WORKLOADS = ("figure4_corpus", "derive_heavy", "solve_heavy", "batch_warm")
