"""Per-layer metrics of a traced run.

Each traced op's output is folded into a :class:`LayerTally` as soon as
the op finishes and then dropped: keeping hundreds of solved chains alive
would make every later op pay for longer garbage-collection sweeps.
"""

from __future__ import annotations

import os
import statistics

from chain import LAYERS
from repro.batch import BatchReport
from repro.pepa.measures import ModelAnalysis
from workloads import TracedXmi, residual

#: Metric name of each layer span's seconds.
LAYER_METRICS = {layer: f"{layer}_s" for layer in LAYERS} | {
    "extract": "extract.s", "measures": "measures.s", "reflect": "reflect.s",
}


class LayerTally:
    """Counts per traced chain op, and one summary per traced batch."""

    def __init__(self):
        self.ops = 0
        self.op_s = 0.0
        self.counts = dict.fromkeys(
            ("xmi_bytes", "net_transitions", "net_markings", "net_arcs",
             "pepa_states", "pepa_arcs", "nnz", "generator_bytes"), 0)
        self.residual = 0.0
        self.batches: list[dict[str, float]] = []

    def add(self, out, elapsed: float) -> None:
        if isinstance(out, BatchReport):
            cache = out.cache_totals()
            self.batches.append({
                "makespan": out.duration_s,
                "busy": sum(r.duration_s for r in out.results),
                "hits": cache.get("hits", 0),
                "misses": cache.get("misses", 0),
                "retries": out.retries,
            })
            return
        self.ops += 1
        self.op_s += elapsed
        c = self.counts
        if isinstance(out, TracedXmi):
            analyses = out.analyses
            c["xmi_bytes"] += out.xmi_bytes
        else:
            analyses = [out[0]]
        for a in analyses:
            Q = a.chain.Q
            c["nnz"] += int(Q.nnz)
            c["generator_bytes"] += int(Q.data.nbytes + Q.indices.nbytes + Q.indptr.nbytes)
            self.residual = max(self.residual, residual(a))
            if isinstance(a, ModelAnalysis):
                c["pepa_states"] += a.n_states
                c["pepa_arcs"] += len(a.space.arcs)
            else:
                c["net_transitions"] += len(a.net.transitions)
                c["net_markings"] += a.n_states
                c["net_arcs"] += len(a.space.arcs)


def metrics(rec, tally: LayerTally, untraced, traced, cold=None) -> dict:
    """Every per-layer metric: ``name -> (value, unit)``.  Times and
    counts are means per traced chain op; a layer the workload never
    calls reads 0."""
    n = max(1, tally.ops)
    layer_s = rec.layer_seconds()
    out: dict[str, tuple[float, str]] = {
        LAYER_METRICS[layer]: (layer_s[layer] / n, "s") for layer in LAYERS
    }
    unattributed = tally.op_s - sum(layer_s.values())
    out["choreographer.unattributed_s"] = (unattributed / n, "s")
    out["choreographer.unattributed_share"] = (
        unattributed / tally.op_s if tally.op_s else 0.0, "ratio")
    c = tally.counts
    derive_s = layer_s["pepanets.derive"]
    out.update({
        "uml.xmi.bytes": (c["xmi_bytes"] / n, "bytes"),
        "extract.net_transitions": (c["net_transitions"] / n, "count"),
        "pepanets.markings": (c["net_markings"] / n, "count"),
        "pepanets.arcs": (c["net_arcs"] / n, "count"),
        "pepanets.markings_per_s": (c["net_markings"] / derive_s if derive_s else 0.0, "1/s"),
        "pepa.states": (c["pepa_states"] / n, "count"),
        "pepa.arcs": (c["pepa_arcs"] / n, "count"),
        "ctmc.nnz": (c["nnz"] / n, "count"),
        "ctmc.generator_bytes": (c["generator_bytes"] / n, "bytes"),
        "ctmc.residual": (tally.residual, "rate"),
    })

    b = dict.fromkeys(("makespan", "busy", "util", "overhead", "retries",
                       "hits", "misses", "stores", "ratio"), 0.0)
    if tally.batches:
        mid = sorted(tally.batches, key=lambda s: s["makespan"])[len(tally.batches) // 2]
        k = len(tally.batches)
        hits = sum(s["hits"] for s in tally.batches) / k
        misses = sum(s["misses"] for s in tally.batches) / k
        b.update(
            makespan=mid["makespan"], busy=mid["busy"],
            # One job (inline): the worker idles for the rest of the makespan.
            util=mid["busy"] / mid["makespan"],
            overhead=mid["makespan"] - mid["busy"],
            retries=sum(s["retries"] for s in tally.batches) + cold.retries,
            hits=hits, misses=misses,
            stores=cold.cache_totals().get("stores", 0),
            ratio=hits / (hits + misses) if hits + misses else 0.0,
        )
    out.update({
        "batch.makespan_s": (b["makespan"], "s"),
        "batch.task_busy_s": (b["busy"], "s"),
        "batch.worker_util": (b["util"], "ratio"),
        "batch.overhead_s": (b["overhead"], "s"),
        "batch.retries": (b["retries"], "count"),
        "batch.cache.hits": (b["hits"], "count"),
        "batch.cache.misses": (b["misses"], "count"),
        "batch.cache.stores": (b["stores"], "count"),
        "batch.cache.hit_ratio": (b["ratio"], "ratio"),
    })
    out["harness.cpu_wall_ratio"] = (
        (untraced.cpu + traced.cpu) / (untraced.wall + traced.wall), "ratio")
    out["harness.loadavg"] = (os.getloadavg()[0], "procs")
    out["trace.overhead_ratio"] = (
        statistics.median(traced.latencies) / statistics.median(untraced.latencies), "ratio")
    return out
