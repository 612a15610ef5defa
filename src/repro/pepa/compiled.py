"""Compiled derivation: state spaces by index arithmetic.

Deriving a state space straight from the operational semantics builds a
fresh tree of :mod:`~repro.pepa.syntax` terms for every successor, then
hashes it to intern it.  Ding & Hillston (*Numerically Representing a
Stochastic Process Algebra*) compile the model into numbers once and
derive by table lookup instead; this module is that compilation.

* A :class:`LeafTable` interns every sequential component (and every
  cell content) the derivation meets as a small integer.  Its rows are
  filled lazily, once per interned term, by the reference semantics of
  :mod:`repro.pepa.semantics`: the one-step transitions with the
  excluded (firing) types held back, the same transitions unexcluded
  (firing eligibility), and the apparent rate per action type.
* A :class:`LevelKernel` compiles a PEPA system equation for
  frontier-at-a-time derivation (:func:`repro.core.explore.explore_levels`).
  A state is a row of leaf ids, one per sequential component, left to
  right; a breadth-first level is a matrix of rows.  The leaves' rows
  are CSR arrays (action code, rate kind and value, target id) gathered
  for the whole frontier at once; an interleaving passes its children's
  arcs up in per-state order, a cooperation pairs its two sides' shared
  arcs state by state with ``np.repeat`` and rates each pair by the
  apparent-rate law, reading apparent rates from per-(term, action)
  tables, and a hiding relabels hidden actions to ``tau``.  A state
  whose walk would raise is only flagged; the search re-derives the
  first flagged state by the reference semantics, which raises the
  error.
* A :class:`Skeleton` compiles the static cooperation/hiding structure
  of a PEPA-net place once.  Its leaves are the sequential components
  and the cells; a global marking is a tuple of leaf states, where a
  sequential leaf holds its term's id and a cell holds its content's id
  or ``-1`` when vacant.  The skeleton walk derives a place's local
  transitions with the cooperation and hiding rules applied to leaf
  rows.  A row is ``(action, rate, writes)``: ``writes`` holds the
  absolute ``(leaf position, new id)`` pairs the transition makes, and
  whoever owns the marking applies them once (:func:`apply_writes`).
  Every node memoises its rows and apparent rates on its own leaf
  sub-tuple, so a marking pays only for the places that changed.

Both compilations are the reference semantics evaluated on the same
operands in the same order, so transitions, float rates and the first
error raised are identical to :func:`~repro.pepa.semantics.derivatives`
on the rendered term.  Terms are rendered back from leaf ids only when
something reads them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.core.explore import Level
from repro.exceptions import ReproError, WellFormednessError
from repro.pepa.environment import Environment
from repro.pepa.rates import Rate, cooperation_rate, rate_min, rate_sum
from repro.pepa.semantics import apparent_rate, derivatives
from repro.pepa.syntax import TAU, Cell, Const, Cooperation, Expression, Hiding

__all__ = ["LeafTable", "LevelKernel", "Skeleton", "apply_writes", "expansion"]

#: Absolute ``(leaf position, new leaf state)`` pairs.
Writes = tuple[tuple[int, int], ...]

#: A compiled transition: action, rate, and the leaf writes it makes.
Row = tuple[str, Rate, Writes]

#: A leaf term's transition: action, rate, target term id.
LeafRow = tuple[str, Rate, int]

#: Sentinel distinguishing "memoised as None" from "not memoised".
_MISSING = object()

_NO_ROWS: list[Row] = []


def apply_writes(state: tuple[int, ...], writes: Writes) -> tuple[int, ...]:
    """The global state after a row's (or a firing's) leaf writes."""
    successor = list(state)
    for pos, leaf in writes:
        successor[pos] = leaf
    return tuple(successor)


def _placed(pos: int, rows: Callable[[int], list[LeafRow]]) -> Callable[[int], list[Row]]:
    """``rows`` of a term, as the rows of the leaf at ``pos``: memoised
    per term id."""
    memo: dict[int, list[Row]] = {}

    def at(tid: int) -> list[Row]:
        out = memo.get(tid)
        if out is None:
            out = memo[tid] = [(a, r, ((pos, t),)) for a, r, t in rows(tid)]
        return out

    return at


class LeafTable:
    """Interned local states with lazily filled derivative rows.

    One table serves every leaf of an exploration: a term's rows do not
    depend on where it sits.  ``exclude`` holds back action types from
    :meth:`rows` (the PEPA-net firing types); :meth:`firing_rows` keeps
    them.
    """

    __slots__ = ("env", "exclude", "terms", "ids", "_rows", "_cell_rows",
                 "_firing_rows", "_apparent")

    def __init__(self, env: Environment, exclude: frozenset[str] = frozenset()):
        self.env = env
        self.exclude = exclude
        self.terms: list[Expression] = []
        self.ids: dict[Expression, int] = {}
        self._rows: list[list[LeafRow] | None] = []
        self._cell_rows: list[list[LeafRow] | None] = []
        self._firing_rows: list[list[LeafRow] | None] = []
        self._apparent: dict[tuple[int, str], Rate | None] = {}

    def intern(self, term: Expression) -> int:
        """The id of ``term``, allocating one on first sight."""
        tid = self.ids.get(term)
        if tid is None:
            tid = len(self.terms)
            self.ids[term] = tid
            self.terms.append(term)
            self._rows.append(None)
            self._cell_rows.append(None)
            self._firing_rows.append(None)
        return tid

    def rows(self, tid: int) -> list[LeafRow]:
        """The transitions of term ``tid`` with excluded types held back,
        as ``(action, rate, target id)``."""
        rows = self._rows[tid]
        if rows is None:
            rows = [
                (tr.action, tr.rate, self.intern(tr.target))
                for tr in derivatives(self.terms[tid], self.env, exclude=self.exclude)
            ]
            self._rows[tid] = rows
        return rows

    def cell_rows(self, tid: int) -> list[LeafRow]:
        """:meth:`rows` of a cell's content, whose derivatives must stay
        sequential to remain in the cell."""
        rows = self._cell_rows[tid]
        if rows is None:
            rows = self.rows(tid)
            for _, _, target in rows:
                if not self.terms[target].is_sequential():
                    raise WellFormednessError(
                        "cell content evolved to a non-sequential term"
                    )
            self._cell_rows[tid] = rows
        return rows

    def firing_rows(self, tid: int) -> list[LeafRow]:
        """Every transition of term ``tid``, nothing excluded, as
        ``(action, rate, target id)``: what a token may fire."""
        rows = self._firing_rows[tid]
        if rows is None:
            rows = [
                (tr.action, tr.rate, self.intern(tr.target))
                for tr in derivatives(self.terms[tid], self.env)
            ]
            self._firing_rows[tid] = rows
        return rows

    def apparent(self, tid: int, action: str) -> Rate | None:
        """The apparent rate of ``action`` in term ``tid``."""
        key = (tid, action)
        rate = self._apparent.get(key, _MISSING)
        if rate is _MISSING:
            rate = apparent_rate(self.terms[tid], action, self.env)
            self._apparent[key] = rate
        return rate  # type: ignore[return-value]


class _Node(NamedTuple):
    """One compiled skeleton node: four functions of the global state."""

    derive: Callable[[tuple[int, ...]], list[Row]]
    apparent: Callable[[tuple[int, ...], str], Rate | None]
    render: Callable[[tuple[int, ...]], Expression]
    encode: Callable[[Expression, list[int]], None]


class Skeleton:
    """The static cooperation/hiding structure of one expression.

    Leaves occupy positions ``offset .. offset + size - 1`` of the
    global state tuple, left to right.  ``cells`` lists every cell leaf
    as ``(position, family)`` in the same order, which is also the order
    of their paths (:func:`repro.pepanets.syntax.find_cells`).  Every
    node memoises on its leaf sub-tuple, the root too: a place's local
    states recur across markings.
    """

    def __init__(self, expr: Expression, table: LeafTable, offset: int = 0):
        self.table = table
        self.offset = offset
        self.cells: list[tuple[int, str]] = []
        self._next = offset
        root = self._compile(expr)
        self.size = self._next - offset
        self.derive = root.derive
        self.render = root.render
        self._encode = root.encode

    def encode(self, expr: Expression) -> tuple[int, ...]:
        """The leaf states of a term shaped like this skeleton."""
        out: list[int] = []
        self._encode(expr, out)
        return tuple(out)

    # ------------------------------------------------------------------
    def _compile(self, expr: Expression) -> _Node:
        if isinstance(expr, Cooperation):
            return self._cooperation(expr)
        if isinstance(expr, Hiding):
            return self._hiding(expr)
        pos = self._next
        self._next += 1
        if isinstance(expr, Cell):
            self.cells.append((pos, expr.family))
            return self._cell(pos, expr.family)
        return self._leaf(pos)

    def _leaf(self, pos: int) -> _Node:
        table = self.table
        terms = table.terms
        placed = _placed(pos, table.rows)

        def derive(state):
            return placed(state[pos])

        def apparent(state, action):
            return table.apparent(state[pos], action)

        def render(state):
            return terms[state[pos]]

        def encode(expr, out):
            out.append(table.intern(expr))

        return _Node(derive, apparent, render, encode)

    def _cell(self, pos: int, family: str) -> _Node:
        table = self.table
        terms = table.terms
        placed = _placed(pos, table.cell_rows)
        rendered: dict[int, Cell] = {}

        def derive(state):
            content = state[pos]
            return _NO_ROWS if content < 0 else placed(content)

        def apparent(state, action):
            content = state[pos]
            return None if content < 0 else table.apparent(content, action)

        def render(state):
            content = state[pos]
            cell = rendered.get(content)
            if cell is None:
                cell = Cell(family, None if content < 0 else terms[content])
                rendered[content] = cell
            return cell

        def encode(expr, out):
            out.append(-1 if expr.content is None else table.intern(expr.content))

        return _Node(derive, apparent, render, encode)

    def _hiding(self, expr: Hiding) -> _Node:
        lo = self._next
        child = self._compile(expr.expr)
        hi = self._next
        hidden = expr.actions
        exclude = self.table.exclude
        child_derive = child.derive
        child_apparent = child.apparent
        child_render = child.render
        derived: dict = {}
        rendered: dict = {}

        def derive(state):
            key = state[lo:hi]
            hit = derived.get(key)
            if hit is not None:
                return hit
            out = []
            for row in child_derive(state):
                action = row[0]
                if action in hidden:
                    row = (TAU, row[1], row[2])
                    action = TAU
                if action in exclude:
                    continue
                out.append(row)
            derived[key] = out
            return out

        def apparent(state, action):
            if action in hidden or action == TAU:
                # Hidden activities lose their type; tau has no apparent
                # rate because cooperation on tau is forbidden.
                return None
            return child_apparent(state, action)

        def render(state):
            key = state[lo:hi]
            term = rendered.get(key)
            if term is None:
                term = rendered[key] = Hiding(child_render(state), hidden)
            return term

        def encode(term, out):
            child.encode(term.expr, out)

        return _Node(derive, apparent, render, encode)

    def _cooperation(self, expr: Cooperation) -> _Node:
        lo = self._next
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        hi = self._next
        actions = expr.actions
        left_derive, right_derive = left.derive, right.derive
        left_apparent, right_apparent = left.apparent, right.apparent
        left_render, right_render = left.render, right.render
        derived: dict = {}
        rendered: dict = {}
        apparents: dict = {}

        def derive(state):
            key = state[lo:hi]
            hit = derived.get(key)
            if hit is not None:
                return hit
            left_ts = left_derive(state)
            right_ts = right_derive(state)
            # Independent (interleaved) activities pass up unchanged.
            if not actions:
                out = left_ts + right_ts
            else:
                out = [row for row in left_ts if row[0] not in actions]
                out += [row for row in right_ts if row[0] not in actions]
                # Shared activities: every pair synchronises, rate by the
                # apparent-rate law.
                shared = {a for a, _, _ in left_ts if a in actions} & {
                    a for a, _, _ in right_ts if a in actions
                }
                for action in sorted(shared):
                    ra_left = left_apparent(state, action)
                    ra_right = right_apparent(state, action)
                    assert ra_left is not None and ra_right is not None
                    for al, rl, wl in left_ts:
                        if al != action:
                            continue
                        for ar, rr, wr in right_ts:
                            if ar != action:
                                continue
                            out.append((
                                action,
                                cooperation_rate(rl, rr, ra_left, ra_right),
                                wl + wr,
                            ))
            derived[key] = out
            return out

        def apparent(state, action):
            key = (state[lo:hi], action)
            rate = apparents.get(key, _MISSING)
            if rate is not _MISSING:
                return rate
            left_rate = left_apparent(state, action)
            right_rate = right_apparent(state, action)
            if action in actions:
                rate = (None if left_rate is None or right_rate is None
                        else rate_min(left_rate, right_rate))
            elif left_rate is None:
                rate = right_rate
            elif right_rate is None:
                rate = left_rate
            else:
                rate = rate_sum(left_rate, right_rate)
            apparents[key] = rate
            return rate

        def render(state):
            key = state[lo:hi]
            term = rendered.get(key)
            if term is None:
                term = Cooperation(left_render(state), right_render(state), actions)
                rendered[key] = term
            return term

        def encode(term, out):
            left.encode(term.left, out)
            right.encode(term.right, out)

        return _Node(derive, apparent, render, encode)


# ----------------------------------------------------------------------
# Frontier-at-a-time derivation of a PEPA system equation
# ----------------------------------------------------------------------
#: Rate kinds in the kernel's arrays: no rate (the action is not
#: enabled; its value is 0), active, passive (the value is the weight).
#: ``min`` of two kinds is the kind of their ``rate_min``, ``|`` that of
#: their ``rate_sum``.  A rate whose computation raises is NaN, whatever
#: its kind, and stays NaN through every sum, minimum and quotient.
_NONE, _ACTIVE, _PASSIVE = 0, 1, 2

#: Columns of an arc matrix: the frontier row the arc leaves, its action
#: code, its rate kind, then the target row's leaf ids.  Its rates (or
#: passive weights) travel beside it as a float array.
_SOURCE, _ACTION, _KIND, _TARGET = 0, 1, 2, 3


def _apparent_sum(kl, rl, kr, rr):
    """``rate_sum`` of two apparent-rate arrays: an absent side (rate 0)
    passes the other through; a mix of kinds, or an overflow, fails."""
    kind, rate = kl | kr, rl + rr
    rate[(kind == _ACTIVE | _PASSIVE) | (rate == np.inf)] = np.nan
    return kind, rate


def _apparent_min(kl, rl, kr, rr):
    """``rate_min`` of two apparent-rate arrays: absent if either is (rate
    0), and a passive side defers to an active one (dividing by ``False``
    makes it infinite)."""
    lp, rp = kl == _PASSIVE, kr == _PASSIVE
    return np.minimum(kl, kr), np.minimum(rl / (lp <= rp), rr / (rp <= lp))


class _Sweep:
    """One level's expansion: the frontier, its leaf arcs leaf by leaf
    (those of leaf ``p`` are ``bounds[p]:bounds[p + 1]``), and the
    frontier rows flagged as failing."""

    __slots__ = ("frontier", "arcs", "rates", "bounds", "flagged")

    def __init__(self, frontier, arcs, rates, bounds):
        self.frontier = frontier
        self.arcs = arcs
        self.rates = rates
        self.bounds = bounds
        self.flagged: list[np.ndarray] = []


class _Flat:
    """Leaves ``lo .. hi - 1`` interleaved: a lone leaf, or a ``||`` tree
    of leaves.  Its arcs are a slice of the level's leaf arcs; ``shape``
    keeps the tree, whose apparent rates sum in its own order.

    Every node hands up its arcs *in per-state order*: restricted to any
    one state, they run in the order the per-state semantics lists them.
    Only a ``grouped`` node's arcs also run state by state."""

    __slots__ = ("kernel", "lo", "hi", "shape", "grouped")

    def __init__(self, kernel, lo, hi, shape):
        self.kernel, self.lo, self.hi, self.shape = kernel, lo, hi, shape
        self.grouped = hi - lo == 1

    def arcs(self, sweep: _Sweep):
        span = slice(sweep.bounds[self.lo], sweep.bounds[self.hi])
        return sweep.arcs[span], sweep.rates[span]

    def apparent(self, sweep: _Sweep, rows, codes):
        return self._apparent(self.shape, sweep, rows, codes)

    def _apparent(self, shape, sweep, rows, codes):
        if isinstance(shape, int):
            return self.kernel.leaf_apparent(sweep.frontier[:, shape][rows], codes)
        return _apparent_sum(*self._apparent(shape[0], sweep, rows, codes),
                             *self._apparent(shape[1], sweep, rows, codes))


class _Hiding:
    """``P/{hidden}``: the child's arcs, hidden actions relabelled to
    ``tau``."""

    __slots__ = ("kernel", "child", "hidden", "lo", "hi", "grouped", "_relabel")

    def __init__(self, kernel, child, actions):
        self.kernel, self.child = kernel, child
        self.lo, self.hi, self.grouped = child.lo, child.hi, child.grouped
        self.hidden = [kernel.code(a) for a in sorted(actions)] + [kernel.tau]
        self._relabel = np.arange(0)

    def _relabelling(self) -> np.ndarray:
        """Action code -> its code after hiding."""
        names = self.kernel.names
        if len(self._relabel) != len(names):
            self._relabel = np.arange(len(names), dtype=np.int32)
            self._relabel[self.hidden] = self.kernel.tau
        return self._relabel

    def arcs(self, sweep: _Sweep):
        arcs, rates = self.child.arcs(sweep)
        arcs = arcs.copy()
        arcs[:, _ACTION] = self._relabelling()[arcs[:, _ACTION]]
        return arcs, rates

    def apparent(self, sweep: _Sweep, rows, codes):
        # Hidden activities lose their type; tau has no apparent rate
        # because cooperation on tau is forbidden.
        kind, rate = self.child.apparent(sweep, rows, codes)
        hidden = self._relabelling()[codes] == self.kernel.tau
        return np.where(hidden, _NONE, kind), np.where(hidden, 0.0, rate)


class _Cooperation:
    """``P <L> Q``: each side's other arcs pass up; every pair of shared
    arcs of one state synchronises by the apparent-rate law, action
    types in name order, left arcs outer, right arcs inner."""

    __slots__ = ("kernel", "left", "right", "lo", "mid", "hi", "shared", "grouped", "_keys")

    def __init__(self, kernel, left, right, actions):
        self.kernel, self.left, self.right = kernel, left, right
        self.lo, self.mid, self.hi = left.lo, left.hi, right.hi
        self.grouped = True
        self.shared = [kernel.code(a) for a in sorted(actions)]
        kernel.synchronised.update(self.shared)
        self._keys = np.zeros((2, 0), dtype=np.int64)

    def _ordering(self) -> np.ndarray:
        """Per action code, its place among one state's arcs: 0 on the
        left and 1 on the right if not shared, else 2 + its rank among
        the shared types by name."""
        names = self.kernel.names
        if self._keys.shape[1] != len(names):
            self._keys = np.zeros((2, len(names)), dtype=np.int64)
            self._keys[1] = 1
            self._keys[:, self.shared] = np.arange(2, 2 + len(self.shared))
        return self._keys

    def arcs(self, sweep: _Sweep):
        left, left_rates = self.left.arcs(sweep)
        right, right_rates = self.right.arcs(sweep)
        order_l, order_r = self._ordering()
        # Sort key: the source row, then the place among its arcs.
        span = np.int64(len(self.shared) + 2)
        place_l = order_l[left[:, _ACTION]]
        place_r = order_r[right[:, _ACTION]]
        key_l = place_l + left[:, _SOURCE] * span
        key_r = place_r + right[:, _SOURCE] * span
        own_l, own_r = place_l == 0, place_r == 1
        keys, arcs, rates = [key_l[own_l], key_r[own_r]], [left[own_l], right[own_r]], \
            [left_rates[own_l], right_rates[own_r]]
        if not (own_l.all() or own_r.all()):
            # Each left arc meets the right arcs of its key: none unless
            # shared.
            by_key = key_r.argsort(kind="stable")
            sorted_r = key_r[by_key]
            first = sorted_r.searchsorted(key_l)
            count = sorted_r.searchsorted(key_l, side="right") - first
            li = np.arange(len(key_l)).repeat(count)
            rj = by_key[(first - count.cumsum() + count).repeat(count) + np.arange(len(li))]
            joint, joint_rates = self._synchronise(sweep, left, left_rates, right,
                                                   right_rates, li, rj)
            keys.append(key_l[li])
            arcs.append(joint)
            rates.append(joint_rates)
        order = np.concatenate(keys).argsort(kind="stable")
        return np.concatenate(arcs)[order], np.concatenate(rates)[order]

    def _synchronise(self, sweep, left, left_rates, right, right_rates, li, rj):
        joint, partner = left[li], right[rj]
        source, action = joint[:, _SOURCE], joint[:, _ACTION]
        kind_l, apparent_l = self.left.apparent(sweep, source, action)
        kind_r, apparent_r = self.right.apparent(sweep, source, action)
        kind, floor = _apparent_min(kind_l, apparent_l, kind_r, apparent_r)
        # cooperation_rate: (r1/ra1) * (r2/ra2) * min(ra1, ra2).  An
        # apparent rate of a valid kind is of each of its arcs' kind, so
        # rate_ratio cannot fail where the apparent rates did not.
        rates = (left_rates[li] / apparent_l) * (right_rates[rj] / apparent_r) * floor
        sweep.flagged.append(source[~((rates > 0.0) & (rates < np.inf))])
        joint[:, _KIND] = kind
        cols = slice(_TARGET + self.mid, _TARGET + self.hi)
        joint[:, cols] = partner[:, cols]
        return joint, rates

    def apparent(self, sweep: _Sweep, rows, codes):
        kl, rl = self.left.apparent(sweep, rows, codes)
        kr, rr = self.right.apparent(sweep, rows, codes)
        sk, sr = _apparent_sum(kl, rl, kr, rr)
        mk, mr = _apparent_min(kl, rl, kr, rr)
        shared = self._ordering()[0][codes] > 1
        return np.where(shared, mk, sk), np.where(shared, mr, sr)


class LevelKernel:
    """A PEPA system equation compiled for frontier-at-a-time derivation.

    A state is a row of ``width`` leaf ids: the sequential components of
    the equation left to right, each holding its term's id in ``table``
    (a cell or a constant naming a cooperation is one leaf, derived by
    the reference semantics like any other term).  :meth:`expand` turns
    a frontier matrix into its :class:`~repro.core.explore.Level`;
    ``names`` lists the action types by code.  Leaf rows are filled per
    level, only for the ids in the frontier, so a derivative that is
    locally reachable but globally blocked is never derived.
    """

    def __init__(self, expr: Expression, table: LeafTable):
        self.table = table
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.tau = self.code(TAU)
        self.width = 0
        #: The action codes some cooperation shares: the only ones whose
        #: apparent rates are ever asked for.
        self.synchronised: set[int] = set()
        self._root = self._compile(expr)
        self._render, self._encode = self._views(expr, [0], memo=False)
        # Leaf rows as CSR over term ids: (action, kind, target id) rows
        # and their rates.  Apparent rates at term id * columns + action code,
        # filled with the rows for the synchronised codes.
        self._filled = np.zeros(0, dtype=bool)
        self._bad = np.zeros(0, dtype=bool)
        self._any_bad = False
        self._start = self._count = np.zeros(0, dtype=np.int64)
        self._derived = np.zeros((0, 3), dtype=np.int32)
        self._rate = np.zeros(0, dtype=np.float64)
        self._used = 0      # rows in use; the arrays above have room for more
        self._columns = np.int64(len(self.names))
        self._app_kind = np.zeros(0, dtype=np.int8)
        self._app_rate = np.zeros(0, dtype=np.float64)

    def code(self, action: str) -> int:
        """The code of an action type, allocating one on first sight."""
        code = self._codes.get(action)
        if code is None:
            code = self._codes[action] = len(self.names)
            self.names.append(action)
        return code

    # ------------------------------------------------------------------
    def _compile(self, expr: Expression):
        if isinstance(expr, Cooperation):
            left, right = self._compile(expr.left), self._compile(expr.right)
            if not expr.actions and isinstance(left, _Flat) and isinstance(right, _Flat):
                return _Flat(self, left.lo, right.hi, (left.shape, right.shape))
            return _Cooperation(self, left, right, expr.actions)
        if isinstance(expr, Hiding):
            return _Hiding(self, self._compile(expr.expr), expr.actions)
        self.width += 1
        return _Flat(self, self.width - 1, self.width, self.width - 1)

    def _views(self, expr: Expression, counter: list[int], memo: bool):
        """``render(row)`` and ``encode(term, out)`` of ``expr``; inner
        nodes memoise rendered terms on their own leaf ids."""
        if not isinstance(expr, (Cooperation, Hiding)):
            pos = counter[0]
            counter[0] += 1
            terms, intern = self.table.terms, self.table.intern
            return (lambda row: terms[row[pos]]), (lambda term, out: out.append(intern(term)))
        lo = counter[0]
        if isinstance(expr, Cooperation):
            left, left_encode = self._views(expr.left, counter, True)
            right, right_encode = self._views(expr.right, counter, True)
            actions = expr.actions

            def build(row):
                return Cooperation(left(row), right(row), actions)

            def encode(term, out):
                left_encode(term.left, out)
                right_encode(term.right, out)
        else:
            child, child_encode = self._views(expr.expr, counter, True)
            hidden = expr.actions

            def build(row):
                return Hiding(child(row), hidden)

            def encode(term, out):
                child_encode(term.expr, out)
        if not memo:
            return build, encode
        hi = counter[0]
        rendered: dict = {}

        def render(row):
            key = row[lo:hi]
            term = rendered.get(key)
            if term is None:
                term = rendered[key] = build(row)
            return term

        return render, encode

    def encode(self, term: Expression) -> list[int]:
        """The leaf ids of a term shaped like the system equation."""
        out: list[int] = []
        self._encode(term, out)
        return out

    def render(self, row) -> Expression:
        """The term of one state row."""
        return self._render(tuple(row))

    # ------------------------------------------------------------------
    def expand(self, frontier: np.ndarray) -> Level:
        """Every arc of every frontier row, and the first row whose
        per-state derivation raises.  Call under ``np.errstate(all=
        "ignore")``: a flagged row's rates may be garbage."""
        self._fill(frontier)
        sweep = _Sweep(frontier, *self._leaf_arcs(frontier))
        if self._any_bad:
            sweep.flagged.append(np.flatnonzero(self._bad[frontier].any(axis=1)))
        arcs, rates = self._root.arcs(sweep)
        if not self._root.grouped:
            order = arcs[:, _SOURCE].argsort(kind="stable")
            arcs, rates = arcs[order], rates[order]
        # The system equation leaves passive activities without a partner.
        sweep.flagged.append(arcs[:, _SOURCE][arcs[:, _KIND] == _PASSIVE])
        failed = min((int(rows.min()) for rows in sweep.flagged if len(rows)), default=-1)
        return Level(arcs[:, _SOURCE], arcs[:, _TARGET:], rates, arcs[:, _ACTION], failed)

    def _leaf_arcs(self, frontier: np.ndarray):
        """Every leaf's rows for every frontier row, leaf by leaf, then
        row by row: the arc matrix, the rates, and where each leaf's arcs
        begin."""
        k, width = frontier.shape
        by_leaf = frontier.T
        count = self._count[by_leaf]
        per_leaf = count.sum(axis=1)
        count = count.ravel()
        total = int(per_leaf.sum())
        row = (self._start[by_leaf].ravel() - count.cumsum() + count).repeat(count) \
            + np.arange(total)
        derived = self._derived[row]
        arcs = np.empty((total, _TARGET + width), dtype=np.int32)
        arcs[:, _SOURCE] = source = (np.arange(k * width) % k).repeat(count)
        arcs[:, _ACTION:_TARGET] = derived[:, :2]
        arcs[:, _TARGET:] = frontier[source]
        arcs[np.arange(total), _TARGET + np.arange(width).repeat(per_leaf)] = derived[:, 2]
        return arcs, self._rate[row], [0] + per_leaf.cumsum().tolist()

    def _fill(self, frontier: np.ndarray) -> None:
        """Derive the rows of the frontier's not yet derived leaf ids and
        append them to the CSR arrays."""
        table = self.table
        if len(table.terms) > len(self._filled):
            self._grow(len(table.terms))
        todo = frontier[~self._filled[frontier]]
        if not len(todo):
            return
        derived_rows: list[tuple[int, int, int]] = []
        rates: list[float] = []
        columns = int(self._columns)
        for tid in sorted(set(todo.tolist())):
            self._filled[tid] = True
            self._start[tid] = self._used + len(rates)
            try:
                derived = table.rows(tid)
            except ReproError:
                self._bad[tid] = self._any_bad = True
                continue
            self._count[tid] = len(derived)
            for code in self.synchronised:
                at = tid * columns + code
                self._app_kind[at], self._app_rate[at] = self._leaf_rate(tid, self.names[code])
            for action, rate, target in derived:
                passive = rate.is_passive()
                derived_rows.append((self.code(action), _PASSIVE if passive else _ACTIVE, target))
                rates.append(rate.weight if passive else rate.value)
        if len(table.terms) > len(self._filled):   # the targets just interned
            self._grow(len(table.terms))
        if rates:
            used = self._used
            self._used += len(rates)
            if self._used > len(self._rate):    # room for them, doubling
                extra = max(self._used, 2 * len(self._rate), 16) - len(self._rate)
                self._derived = np.concatenate(
                    [self._derived, np.zeros((extra, 3), dtype=np.int32)])
                self._rate = np.concatenate([self._rate, np.zeros(extra)])
            self._derived[used:self._used] = derived_rows
            self._rate[used:self._used] = rates

    def _grow(self, n: int) -> None:
        """Room in the per-term arrays for term ids below ``n``, doubling."""
        extra = max(n, 2 * len(self._filled), 16) - len(self._filled)
        self._filled = np.concatenate([self._filled, np.zeros(extra, dtype=bool)])
        self._bad = np.concatenate([self._bad, np.zeros(extra, dtype=bool)])
        self._start = np.concatenate([self._start, np.zeros(extra, dtype=np.int64)])
        self._count = np.concatenate([self._count, np.zeros(extra, dtype=np.int64)])
        cells = extra * self._columns
        self._app_kind = np.concatenate([self._app_kind, np.zeros(cells, dtype=np.int8)])
        self._app_rate = np.concatenate([self._app_rate, np.zeros(cells)])

    def leaf_apparent(self, ids: np.ndarray, codes: np.ndarray):
        """The apparent rate of action ``codes[i]`` in term ``ids[i]``, as
        kind and value arrays."""
        at = ids * self._columns + codes
        return self._app_kind[at], self._app_rate[at]

    def _leaf_rate(self, tid: int, action: str) -> tuple[int, float]:
        try:
            rate = self.table.apparent(tid, action)
        except ReproError:
            return _NONE, np.nan
        if rate is None:
            return _NONE, 0.0
        if rate.is_passive():
            return _PASSIVE, rate.weight
        return _ACTIVE, rate.value


def expansion(expr: Expression, env: Environment) -> Expression:
    """The term whose structure a skeleton of ``expr`` compiles.

    A constant naming a cooperation or hiding (``Sys = P <a> R; Sys``)
    expands to that body: its successors are the body's, but the
    constant itself is a state of its own, distinct from the body should
    the body be reached later.  Every other term is its own structure.
    """
    body = expr
    seen: set[str] = set()
    while isinstance(body, Const) and body.name not in seen:
        seen.add(body.name)
        resolved = env.components.get(body.name)
        if resolved is None:
            return expr
        body = resolved
    return body if isinstance(body, (Cooperation, Hiding)) else expr
