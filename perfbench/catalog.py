"""Build ``catalog.json``: the pool the XMI workloads draw documents from.

Generated scenarios (``repro.scenarios.generate_scenario``) vary a lot in
cost: the same generator settings give marking spaces from 1 to over
3,000 markings.  A workload that drew raw seeds would spread its work
from seed to seed far more than the machine does.  So this script screens
a range of generator seeds once, keeps those inside each family's marking
band, and records for each one its exact counts and its measured cost.
``run.py`` then picks a workload's documents with one draw from each
cost stratum, so every workload seed carries the same work profile while
the documents themselves differ.

Families:

* ``corpus`` — default generator settings, 1-200 markings (the
  ``figure4_corpus`` and ``batch_warm`` documents);
* ``heavy`` — ``max_tokens=3, max_activities_per_segment=3``,
  500-3,000 markings (the ``derive_heavy`` documents).

Run from the repository root (takes a few minutes)::

    python3 perfbench/catalog.py

A run whose document yields another marking count than its catalog
entry fails.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CATALOG = HERE / "catalog.json"

#: family -> (generator settings, seed range, lowest and highest markings)
FAMILIES = {
    "corpus": ({}, range(0, 4000), 1, 200),
    "heavy": ({"max_tokens": 3, "max_activities_per_segment": 3},
              range(0, 5000), 500, 3000),
}


def load_catalog() -> dict:
    """The checked-in catalog document."""
    return json.loads(CATALOG.read_text())


def _screen(name: str, settings: dict, seeds: range, lo: int, hi: int) -> list[list]:
    from repro.choreographer.platform import Choreographer
    from repro.exceptions import ReproError
    from repro.extract.rates import RateTable
    from repro.pepanets.semantics import explore_net
    from repro.scenarios import GeneratorParams, generate_scenario

    params = GeneratorParams(**settings)
    platform = Choreographer()
    entries = []
    for seed in seeds:
        scenario = generate_scenario(seed, params)
        try:
            size = explore_net(scenario.build_net(), max_states=hi).size
        except ReproError:
            continue  # above the band
        if size < lo:
            continue
        text = scenario.xmi_text()
        times = []
        for _ in range(3):
            rates = RateTable.from_numbers(scenario.rates)
            start = time.perf_counter()
            result = platform.process_xmi(text, rates, reset_rate=scenario.spec.reset_rate)
            times.append(time.perf_counter() - start)
        analysis = result.activity_outcomes[0].analysis
        entries.append([
            seed, analysis.n_states, len(analysis.space.arcs),
            int(analysis.chain.Q.nnz), round(statistics.median(times) * 1e3, 3),
        ])
    print(f"{name}: {len(entries)} of {len(seeds)} seeds kept", file=sys.stderr)
    return entries


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    document = {
        "schema": "perfbench-catalog/1",
        "fields": ["seed", "markings", "arcs", "nnz", "op_ms"],
        "families": {},
    }
    for name, (settings, seeds, lo, hi) in FAMILIES.items():
        document["families"][name] = {
            "params": settings,
            "markings": [lo, hi],
            "seeds": [seeds.start, seeds.stop],
            "entries": _screen(name, settings, seeds, lo, hi),
        }
    CATALOG.write_text(json.dumps(document, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
