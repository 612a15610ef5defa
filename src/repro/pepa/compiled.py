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
* A :class:`Skeleton` compiles the static cooperation/hiding structure
  of an expression once.  Its leaves are the sequential components and
  the cells; a global state is a tuple of leaf states, where a
  sequential leaf holds its term's id and a cell holds its content's id
  or ``-1`` when vacant.
* The skeleton walk derives a state's transitions with the cooperation
  and hiding rules applied to leaf rows.  A row is ``(action, rate,
  writes)``: ``writes`` holds the absolute ``(leaf position, new id)``
  pairs the transition makes, which depend only on the node's own leaf
  sub-tuple.  An interleaved row passes up unchanged, a synchronised
  row joins its two sides' writes, and whoever owns the global state
  applies a row's writes to it once (:func:`apply_writes`).  Each inner
  node memoises its rows and apparent rates on its own leaf sub-tuple,
  so a global state pays only for the subtrees that changed; the root
  is not memoised (it would be one entry per state).

The compiled walk is the reference semantics evaluated on the same
operands in the same order, so transitions, float rates and the first
error raised are identical to :func:`~repro.pepa.semantics.derivatives`
on the rendered term.  Terms are rendered back from a leaf tuple only
when something reads them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.exceptions import WellFormednessError
from repro.pepa.environment import Environment
from repro.pepa.rates import Rate, cooperation_rate, rate_min, rate_sum
from repro.pepa.semantics import apparent_rate, derivatives
from repro.pepa.syntax import TAU, Cell, Const, Cooperation, Expression, Hiding

__all__ = ["LeafTable", "Skeleton", "apply_writes", "expansion"]

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
    of their paths (:func:`repro.pepanets.syntax.find_cells`).  With
    ``memo_root`` the root memoises too (a PEPA-net place, whose states
    recur across markings); a PEPA system's root does not.
    """

    def __init__(self, expr: Expression, table: LeafTable, offset: int = 0,
                 *, memo_root: bool = False):
        self.table = table
        self.offset = offset
        self.cells: list[tuple[int, str]] = []
        self._next = offset
        root = self._compile(expr, memo_root)
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
    def _compile(self, expr: Expression, memo: bool) -> _Node:
        if isinstance(expr, Cooperation):
            return self._cooperation(expr, memo)
        if isinstance(expr, Hiding):
            return self._hiding(expr, memo)
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

    def _hiding(self, expr: Hiding, memo: bool) -> _Node:
        lo = self._next
        child = self._compile(expr.expr, True)
        hi = self._next
        hidden = expr.actions
        exclude = self.table.exclude
        child_derive = child.derive
        child_apparent = child.apparent
        child_render = child.render
        derived: dict | None = {} if memo else None
        rendered: dict | None = {} if memo else None

        def derive(state):
            if derived is not None:
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
            if derived is not None:
                derived[key] = out
            return out

        def apparent(state, action):
            if action in hidden or action == TAU:
                # Hidden activities lose their type; tau has no apparent
                # rate because cooperation on tau is forbidden.
                return None
            return child_apparent(state, action)

        def render(state):
            if rendered is None:
                return Hiding(child_render(state), hidden)
            key = state[lo:hi]
            term = rendered.get(key)
            if term is None:
                term = rendered[key] = Hiding(child_render(state), hidden)
            return term

        def encode(term, out):
            child.encode(term.expr, out)

        return _Node(derive, apparent, render, encode)

    def _cooperation(self, expr: Cooperation, memo: bool) -> _Node:
        lo = self._next
        left = self._compile(expr.left, True)
        right = self._compile(expr.right, True)
        hi = self._next
        actions = expr.actions
        left_derive, right_derive = left.derive, right.derive
        left_apparent, right_apparent = left.apparent, right.apparent
        left_render, right_render = left.render, right.render
        derived: dict | None = {} if memo else None
        rendered: dict | None = {} if memo else None
        apparents: dict = {}

        def derive(state):
            if derived is not None:
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
            if derived is not None:
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
            if rendered is None:
                return Cooperation(left_render(state), right_render(state), actions)
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
