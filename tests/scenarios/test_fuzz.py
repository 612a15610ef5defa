"""The differential oracle: it passes on honest scenarios, it *fails*
when either path is perturbed, and its shrinker/reproducer machinery
produces minimal, replayable artefacts."""

import json

from repro.scenarios import generate_scenario, scenario_from_spec, spec_from_json
from repro.scenarios.fuzz import (
    Mismatch,
    SeedResult,
    compare_seed,
    compare_spec,
    dump_reproducer,
    minimise_spec,
    run_sweep,
    within_tolerance,
)
from repro.scenarios.generator import Scenario, _static_steps


class TestTolerance:
    def test_exact_agreement(self):
        assert within_tolerance(1.234, 1.234)

    def test_relative_window(self):
        assert within_tolerance(100.0, 100.0 + 5e-7)
        assert not within_tolerance(100.0, 100.0 + 5e-5)

    def test_absolute_floor_near_zero(self):
        assert within_tolerance(0.0, 5e-9)
        assert not within_tolerance(0.0, 5e-8)


class TestOracleAgreement:
    def test_small_sweep_is_clean(self):
        report = run_sweep(range(0, 12))
        assert report.ok
        assert report.completed == 12
        assert not report.budget_exhausted

    def test_single_seed(self):
        result = compare_seed(42)
        assert result.ok
        assert result.mismatches == []


class TestOracleSensitivity:
    """A vacuous oracle would pass every sweep; prove it can fail."""

    def test_detects_perturbed_rate(self, monkeypatch):
        spec = generate_scenario(3).spec
        original = Scenario.net_text

        # perturb a plain activity (a move's local rate is overridden by
        # its net-transition rate, so perturbing one would be masked)
        name, rate = next((n, r) for n, r in spec.rates if n.startswith("act"))

        def perturbed(self):
            text = original(self)
            return text.replace(f"({name}, {rate:g})",
                                f"({name}, {rate * 1.001:g})")

        monkeypatch.setattr(Scenario, "net_text", perturbed)
        mismatches = compare_spec(spec)
        assert mismatches
        assert any("throughput" in m.field or "location" in m.field
                   for m in mismatches)

    def test_detects_compiled_divergence_below_tolerance(self, monkeypatch):
        """The compiled marking space must equal the term-level reference
        exactly; a rate nudge far inside the 1e-8 measure tolerance, on
        both paths alike, is still a finding."""
        from repro.pepanets.compiled import CompiledNet

        original = CompiledNet.successors

        def nudged(self, state):
            return [(a, r * (1 + 1e-12), t) for a, r, t in original(self, state)]

        monkeypatch.setattr(CompiledNet, "successors", nudged)
        mismatches = compare_spec(generate_scenario(3).spec)
        assert [m.field for m in mismatches] == ["compiled-arcs"]

    def test_detects_pipeline_crash_as_finding(self, monkeypatch):
        from repro.exceptions import ExtractionError

        def boom(self):
            raise ExtractionError("injected")

        monkeypatch.setattr(Scenario, "xmi_text", boom)
        mismatches = compare_spec(generate_scenario(1).spec)
        assert [m.field for m in mismatches] == ["pipeline-error"]
        assert "injected" in mismatches[0].detail


class TestShrinking:
    def test_minimise_reaches_fixpoint(self):
        # pick a seed with statics: the predicate "has a static" must
        # shrink to a single static step and a single token activity
        seed = next(s for s in range(100)
                    if _static_steps(generate_scenario(s).spec))
        spec = generate_scenario(seed).spec

        def has_static(candidate):
            return bool(_static_steps(candidate))

        small = minimise_spec(spec, has_static)
        assert len(_static_steps(small)) == 1
        assert len([s for s in small.chain if s.kind != "static"]) == 1
        assert len(small.tokens) == 1

    def test_minimised_spec_still_renders(self):
        spec = generate_scenario(7).spec
        small = minimise_spec(spec, lambda candidate: True)
        scenario = scenario_from_spec(small)
        assert scenario.net_text()
        assert scenario.xmi_text()

    def test_normalise_drops_orphaned_statics(self):
        # dropping the token that visits a static's place must drop the
        # static too, or the extractor would reject the reproducer
        seed = next(
            s for s in range(200)
            if _static_steps(generate_scenario(s).spec)
            and len(generate_scenario(s).spec.tokens) > 1
        )
        spec = generate_scenario(seed).spec
        small = minimise_spec(spec, lambda candidate: True)
        assert compare_spec(small) == []  # still a valid, agreeing scenario


class TestReproducers:
    def test_dump_layout(self, tmp_path):
        spec = generate_scenario(9).spec
        result = SeedResult(
            seed=9, ok=False,
            mismatches=[Mismatch("n_states", "sizes differ", 10, 12)],
            spec=spec, minimised=spec,
        )
        directory = tmp_path / "repro"
        path = dump_reproducer(directory, result)
        files = {p.name for p in (directory / "seed-9").iterdir()}
        assert files == {"spec.json", "minimised.json", "scenario.xmi",
                         "scenario.pepanet", "rates.json", "report.json"}
        report = json.loads((directory / "seed-9" / "report.json").read_text())
        assert report["seed"] == 9
        assert report["mismatches"][0]["field"] == "n_states"
        assert path.endswith("seed-9")

    def test_spec_json_replays(self, tmp_path):
        spec = generate_scenario(9).spec
        result = SeedResult(seed=9, ok=False, mismatches=[], spec=spec)
        dump_reproducer(tmp_path, result)
        replayed = spec_from_json((tmp_path / "seed-9" / "spec.json").read_text())
        assert replayed == spec


class TestSweepDriver:
    def test_divergent_seed_is_reported_and_dumped(self, tmp_path, monkeypatch):
        def rigged(spec, **kwargs):
            if spec.seed == 2:
                return [Mismatch("n_states", "rigged", 1, 2)]
            return []

        monkeypatch.setattr("repro.scenarios.fuzz.compare_spec", rigged)
        report = run_sweep(range(0, 4), out_dir=tmp_path, minimise=False)
        assert not report.ok
        assert [r.seed for r in report.divergent] == [2]
        assert (tmp_path / "seed-2" / "spec.json").exists()
        assert "seed 2" in report.summary()

    def test_budget_exhaustion_stops_gracefully(self):
        report = run_sweep(range(0, 50), deadline=1e-9)
        assert report.budget_exhausted
        assert report.completed < 50
        assert report.ok  # unreached seeds are not failures
        # The in-flight seed is named so the sweep can be resumed there.
        assert report.exhausted_seed == report.completed
        assert (
            f"(budget exhausted at seed {report.exhausted_seed})"
            in report.summary()
        )
        assert report.as_json()["exhausted_seed"] == report.exhausted_seed

    def test_report_json_shape(self):
        report = run_sweep(range(0, 3))
        doc = report.as_json()
        assert doc["requested"] == 3
        assert doc["completed"] == 3
        assert doc["divergent"] == []
