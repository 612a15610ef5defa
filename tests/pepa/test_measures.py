"""Unit tests for model-level measures (analyse / ModelAnalysis)."""

import math

import pytest

from repro.pepa import analyse, parse_model


class TestTwoStateAnalytic:
    """On/Off with rates 1 (off) and 3 (on): pi = (3/4, 1/4) analytically."""

    def test_state_probabilities(self, two_state_model):
        result = analyse(two_state_model)
        probs = dict(result.state_probabilities())
        p_on = probs["On"]
        p_off = probs["Off"]
        assert math.isclose(p_on, 0.75, rel_tol=1e-9)
        assert math.isclose(p_off, 0.25, rel_tol=1e-9)

    def test_throughputs_balance(self, two_state_model):
        result = analyse(two_state_model)
        # each switch happens equally often in a 2-cycle
        assert math.isclose(result.throughput("switch_on"), result.throughput("switch_off"),
                            rel_tol=1e-9)
        assert math.isclose(result.throughput("switch_off"), 0.75 * 1.0, rel_tol=1e-9)

    def test_unknown_action_throughput_is_zero(self, two_state_model):
        assert analyse(two_state_model).throughput("no_such_action") == 0.0


class TestFileModel:
    def test_flow_balance_open_equals_close(self, file_model):
        """Conservation: every open is eventually closed, so in steady
        state open and close throughputs agree."""
        result = analyse(file_model)
        opens = result.throughput("openread") + result.throughput("openwrite")
        closes = result.throughput("close")
        assert math.isclose(opens, closes, rel_tol=1e-9)

    def test_read_beats_write_throughput(self, file_model):
        """r_read=10 vs r_write=4 with symmetric branching, so reads
        complete more often per unit time."""
        result = analyse(file_model)
        assert result.throughput("read") > result.throughput("write")

    def test_local_state_probabilities_partition(self, file_model):
        result = analyse(file_model)
        total = (
            result.probability_of_local_state("File")
            + result.probability_of_local_state("InStream")
            + result.probability_of_local_state("OutStream")
        )
        assert math.isclose(total, 1.0, rel_tol=1e-9)

    def test_local_state_word_boundary(self, file_model):
        """'File' must not match 'FileReader' (every state contains the
        reader component)."""
        p_closed = analyse(file_model).probability_of_local_state("File")
        assert p_closed < 1.0

    def test_utilisation_predicate(self, file_model):
        result = analyse(file_model)
        u = result.utilisation(lambda i, lbl: "InStream" in lbl)
        assert math.isclose(u, result.probability_of_local_state("InStream"), rel_tol=1e-12)

    def test_all_throughputs_keys(self, file_model):
        ths = analyse(file_model).all_throughputs()
        assert set(ths) == {"openread", "openwrite", "read", "write", "close"}
        assert all(v > 0 for v in ths.values())


class TestSolverChoice:
    @pytest.mark.parametrize("solver", ["direct", "gmres", "jacobi"])
    def test_all_solvers_agree(self, file_model, solver):
        result = analyse(file_model, solver=solver)
        reference = analyse(file_model, solver="direct")
        for (_, p), (_, q) in zip(result.state_probabilities(), reference.state_probabilities()):
            assert math.isclose(p, q, abs_tol=1e-6)


class TestTimeDependentMeasures:
    def test_transient_converges_to_steady(self, two_state_model):
        result = analyse(two_state_model)
        p_inf = result.probability_of_local_state("On")
        p_t = result.transient_probability_of_local_state("On", 100.0)
        assert math.isclose(p_t, p_inf, abs_tol=1e-8)

    def test_transient_at_zero_is_initial(self, two_state_model):
        result = analyse(two_state_model)
        assert result.transient_probability_of_local_state("On", 0.0) == 1.0
        assert result.transient_probability_of_local_state("Off", 0.0) == 0.0

    def test_mean_time_to_local_state(self, two_state_model):
        result = analyse(two_state_model)
        # On --(rate 1)--> Off: mean 1.0
        assert math.isclose(result.mean_time_to_local_state("Off"), 1.0, rel_tol=1e-9)
        assert result.mean_time_to_local_state("On") == 0.0  # already there

    def test_unknown_local_state_rejected(self, two_state_model):
        from repro.exceptions import SolverError

        result = analyse(two_state_model)
        with pytest.raises(SolverError, match="Nowhere"):
            result.mean_time_to_local_state("Nowhere")


class TestErlangPipeline:
    def test_three_stage_cycle_uniform(self):
        """A 3-stage cycle with equal rates spends 1/3 of time per stage."""
        model = parse_model(
            "S1 = (go1, 2.0).S2; S2 = (go2, 2.0).S3; S3 = (go3, 2.0).S1; S1"
        )
        result = analyse(model)
        for name in ("S1", "S2", "S3"):
            assert math.isclose(result.probability_of_local_state(name), 1 / 3, rel_tol=1e-9)

    def test_rates_shift_residence(self):
        """Slower stages accumulate proportionally more probability:
        pi_i is proportional to 1/rate_i around a cycle."""
        model = parse_model(
            "S1 = (go1, 1.0).S2; S2 = (go2, 2.0).S3; S3 = (go3, 4.0).S1; S1"
        )
        result = analyse(model)
        p1 = result.probability_of_local_state("S1")
        p2 = result.probability_of_local_state("S2")
        p3 = result.probability_of_local_state("S3")
        assert math.isclose(p1 / p2, 2.0, rel_tol=1e-9)
        assert math.isclose(p2 / p3, 2.0, rel_tol=1e-9)
