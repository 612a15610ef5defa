"""Tests pinning the cached-hash optimisation's correctness.

The optimisation (repro.pepa.syntax._CachedHash) is only safe because
expressions are immutable; these tests pin the invariants it relies on
so a future refactor cannot silently break dictionary semantics.
"""

from hypothesis import given, settings

from repro.pepa import parse_expression
from repro.pepa.syntax import Cell, Choice, Const, Cooperation, Hiding, Prefix
from repro.pepa.rates import ActiveRate

from .test_parser_roundtrip import expressions  # reuse the AST strategy


class TestHashSemantics:
    def test_structurally_equal_nodes_hash_equal(self):
        a = parse_expression("(a, 1).P <x> Q/{y}")
        b = parse_expression("(a, 1).P <x> Q/{y}")
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_different_nodes_differ(self):
        pairs = [
            ("(a, 1).P", "(a, 2).P"),
            ("(a, 1).P", "(b, 1).P"),
            ("P <a> Q", "P <b> Q"),
            ("P <a> Q", "P || Q"),
            ("P/{a}", "P/{b}"),
            ("File[_]", "File[P]"),
        ]
        for left, right in pairs:
            assert parse_expression(left) != parse_expression(right)

    def test_hash_stable_across_calls(self):
        expr = parse_expression("(a, 1).(b, 2).P + (c, 3).Q")
        assert hash(expr) == hash(expr)

    def test_all_node_classes_use_cached_hash(self):
        nodes = [
            Prefix("a", ActiveRate(1.0), Const("P")),
            Choice(Const("P"), Const("Q")),
            Const("P"),
            Cooperation(Const("P"), Const("Q"), frozenset({"a"})),
            Hiding(Const("P"), frozenset({"a"})),
            Cell("File", None),
        ]
        for node in nodes:
            hash(node)
            assert hasattr(node, "_hash_cache")
            assert hash(node) == node._hash_cache

    @settings(max_examples=150, deadline=None)
    @given(expressions())
    def test_hash_consistent_with_equality(self, expr):
        """The contract: equal objects hash equal, and reconstruction
        from the printed form lands in the same dict bucket."""
        clone = parse_expression(str(expr))
        assert clone == expr
        assert hash(clone) == hash(expr)
        assert {expr: "v"}[clone] == "v"


_PICKLE_SCRIPT = """
import pickle, sys
from repro.pepa.syntax import Cell, Const

path = sys.argv[2]
if sys.argv[1] == "dump":
    term = Cell("F", Const("Abc"))
    hash(term)  # fill the cache before pickling
    with open(path, "wb") as fh:
        pickle.dump(term, fh)
else:
    with open(path, "rb") as fh:
        loaded = pickle.load(fh)
    fresh = Cell("F", Const("Abc"))
    assert loaded == fresh
    assert hash(loaded) == hash(fresh), "stale hash survived unpickling"
    assert {loaded: 1}.get(fresh) == 1
    print("ok")
"""


def test_pickled_term_rehashes_under_another_hash_seed(tmp_path):
    """A term read back in another interpreter (the derivation cache's
    case) must hash like a fresh equal term: string hashes are salted
    per process, so the cached hash may not travel with the pickle."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    blob = tmp_path / "term.pickle"

    def run(seed: str, mode: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT, mode, str(blob)],
            env=env, capture_output=True, text=True, timeout=60,
        )

    dumped = run("1", "dump")
    assert dumped.returncode == 0, dumped.stderr
    loaded = run("2", "load")
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.strip() == "ok"


def test_unpickling_drops_a_hash_cached_by_an_older_pickle(monkeypatch):
    """Derivation-cache entries written before the cache was excluded
    from pickling carry it; reading one must not revive it."""
    import pickle

    from repro.pepa.syntax import _CachedHash

    term = Cell("F", Const("Abc"))
    object.__setattr__(term, "_hash_cache", 12345)
    with monkeypatch.context() as patched:
        patched.setattr(_CachedHash, "__getstate__", lambda self: dict(self.__dict__))
        blob = pickle.dumps(term)
    loaded = pickle.loads(blob)
    assert "_hash_cache" not in vars(loaded)
    assert hash(loaded) == hash(Cell("F", Const("Abc")))
