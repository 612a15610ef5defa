"""E5 — Figure 5: the PDA-user-on-a-train model.

Reproduces: the two-transmitter PEPA net, the equiprobable handover
outcomes ("it is as likely that the connection will be dropped as it is
that it will survive"), and the equal per-cycle throughput of the
pre-handover activities.  Benchmarks the extract+solve path and a
success-probability sweep.
"""

import math

from conftest import record

from repro.workloads import PDA_RATES, build_pda_activity_diagram


def test_fig5_extraction_and_structure(benchmark, platform):
    outcome = benchmark(
        lambda: platform.analyse_activity_diagram(build_pda_activity_diagram(), PDA_RATES)
    )
    net = outcome.extraction.net
    assert set(net.places) == {"transmitter_1", "transmitter_2"}
    handover = [t for t in net.transitions.values() if t.action == "handover"]
    assert len(handover) == 1
    assert handover[0].inputs == ("transmitter_1",)
    assert handover[0].outputs == ("transmitter_2",)

    # equiprobable outcomes
    abort = outcome.throughput_of("abort download")
    cont = outcome.throughput_of("continue download")
    assert math.isclose(abort, cont, rel_tol=1e-9)
    # every pre-handover activity completes once per cycle
    cycle = outcome.throughput_of("handover")
    for name in ("download file", "detect weak signal", "search for other transmitters"):
        assert math.isclose(outcome.throughput_of(name), cycle, rel_tol=1e-9)
    assert math.isclose(abort + cont, cycle, rel_tol=1e-9)
    record(benchmark, markings=outcome.analysis.n_states, handover=cycle)


def test_fig5_time_to_handover(benchmark, platform):
    """Extension: the expected time for the session to reach
    transmitter_2 equals the sum of the pipeline stage means, and the
    transient probability curve approaches 1 (the handover *must*
    happen — the train is moving)."""
    import math as _math

    from repro.extract import extract_activity_diagram
    from repro.pepanets import analyse_net

    extraction = extract_activity_diagram(build_pda_activity_diagram(), PDA_RATES)
    analysis = analyse_net(extraction.net)

    import numpy as _np

    from repro.ctmc.passage import passage_time_cdf

    targets = analysis.markings_at("transmitter_2")

    def measures():
        mean = analysis.mean_time_to_reach("transmitter_2")
        p10 = float(
            passage_time_cdf(analysis.chain, analysis.chain.initial, targets,
                             _np.array([10.0]))[0]
        )
        return mean, p10

    mean, p10 = benchmark(measures)
    expected = sum(
        1.0 / PDA_RATES[a]
        for a in ("download_file", "detect_weak_signal",
                  "search_for_other_transmitters", "handover")
    )
    assert _math.isclose(mean, expected, rel_tol=1e-9)
    # the handover must happen: the first-passage CDF heads to 1
    assert p10 > 0.9
    record(benchmark, mean_time_to_handover=mean, p_handover_by_10s=p10)


def test_fig5_success_probability_sweep(benchmark, platform):
    """Extension sweep: the continue/abort split follows the configured
    branch weights while the handover rate itself is unchanged."""
    total = PDA_RATES["abort_download"] + PDA_RATES["continue_download"]

    def sweep():
        out = []
        for p_success in (0.1, 0.5, 0.9):
            rates = dict(PDA_RATES)
            rates["continue_download"] = total * p_success
            rates["abort_download"] = total * (1 - p_success)
            outcome = platform.analyse_activity_diagram(build_pda_activity_diagram(), rates)
            out.append(
                (p_success, outcome.throughput_of("continue download"),
                 outcome.throughput_of("abort download"),
                 outcome.throughput_of("handover"))
            )
        return out

    series = benchmark(sweep)
    for p_success, cont, abort, handover in series:
        assert math.isclose(cont / (cont + abort), p_success, rel_tol=1e-9)
    handovers = [h for _, _, _, h in series]
    assert math.isclose(min(handovers), max(handovers), rel_tol=1e-9)
