"""End-to-end tests over the shipped model files (examples/models/).

These exercise the CLI and the parsers exactly the way a user would:
from files on disk, through the public entry points.
"""

from pathlib import Path

import pytest

from repro.choreographer.cli import main

MODELS = Path(__file__).resolve().parents[2] / "examples" / "models"


@pytest.fixture(scope="module", autouse=True)
def corpus_exists():
    assert MODELS.is_dir(), "examples/models is part of the repository"


class TestPepaCorpus:
    def test_file_protocol_solves(self, capsys):
        code = main(["pepa", str(MODELS / "file_protocol.pepa")])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 states" in out
        assert "openread" in out

    def test_file_protocol_all_solvers(self, capsys):
        for solver in ("direct", "jacobi", "gmres"):
            assert main(["pepa", str(MODELS / "file_protocol.pepa"),
                         "--solver", solver]) == 0
        capsys.readouterr()


class TestNetCorpus:
    def test_instant_message_net(self, capsys):
        code = main(["net", str(MODELS / "instant_message.pepanet")])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 markings" in out
        assert "transmit" in out

    def test_mobile_agents_net(self, capsys):
        code = main(["net", str(MODELS / "mobile_agents.pepanet")])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 markings" in out
        assert "migrate" in out

    def test_simulation_of_corpus_net(self, capsys):
        code = main(["simulate", str(MODELS / "mobile_agents.pepanet"),
                     "--t-end", "100", "--replications", "3"])
        assert code == 0
        assert "work" in capsys.readouterr().out


class TestXmiCorpus:
    def test_validate_pda_project(self, capsys):
        code = main(["validate", str(MODELS / "pda_project.xmi")])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_full_analysis_with_rates_file(self, tmp_path, capsys):
        out_file = tmp_path / "reflected.xmi"
        code = main([
            "analyse", str(MODELS / "pda_project.xmi"),
            "--rates", str(MODELS / "tomcat.rates"),
            "-o", str(out_file),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "handover" in out
        assert out_file.exists()
        assert "Poseidon" in out_file.read_text()  # layout merged back


class TestRatesCorpus:
    def test_tomcat_rates_parse(self):
        from repro.extract import load_rates

        table = load_rates(MODELS / "tomcat.rates")
        assert len(table) == 5
        assert table.lookup("translate").value == 0.5
        # shared request/response deliberately absent: their rates live
        # as per-transition tags (one side passive)
        assert "response" not in table
