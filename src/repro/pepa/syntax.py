"""Abstract syntax for PEPA expressions (paper Figure 3, PEPA subset).

The grammar implemented across this module and :mod:`repro.pepanets.syntax`
is the one printed in Figure 3 of the paper::

    P ::= P <L> P   (cooperation)
        | P / L     (hiding)
        | P[C]      (cell)
        | I         (identifier)
    C ::= _         (empty cell)
        | S         (full cell)
    S ::= (alpha, r).S  (prefix)
        | S + S         (choice)
        | I             (identifier)

All nodes are immutable frozen dataclasses, so structural equality and
hashing come for free; the state-space explorer uses expressions
themselves as state identities.  By PEPA convention component constants
begin with an upper-case letter and action types with a lower-case
letter; the parser enforces this, the AST does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.exceptions import WellFormednessError
from repro.pepa.rates import Rate

__all__ = [
    "Expression",
    "Sequential",
    "Prefix",
    "Choice",
    "Const",
    "Cooperation",
    "Hiding",
    "Cell",
    "TAU",
    "WILDCARD_SET",
    "action_set",
    "constants_of",
]

#: The silent action type produced by hiding.
TAU = "tau"

#: Marker cooperation set meaning "all shared action types" (``<*>``);
#: resolved against component alphabets by the environment.
WILDCARD_SET = frozenset({"*"})


class _CachedHash:
    """Hash caching for frozen AST nodes.

    Expressions are used as dictionary keys throughout state-space
    exploration; the dataclass-generated ``__hash__`` walks the whole
    subtree on every call, which profiling showed to be ~25 % of
    derivation time.  Caching the value on first use (legal: nodes are
    immutable) makes repeated lookups O(1).

    The cache is not pickled: string hashes differ between interpreters,
    so a term read back from the derivation cache recomputes its hash
    (and one pickled with its cache, by an older version, drops it).
    ``_hash_fields`` holds each class's field names, set once below.
    """

    _hash_fields: tuple[str, ...] = ()

    def __hash__(self) -> int:
        try:
            return self._hash_cache  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((type(self).__name__,) + tuple(
                [getattr(self, name) for name in self._hash_fields]
            ))
            object.__setattr__(self, "_hash_cache", value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        state.pop("_hash_cache", None)
        self.__dict__.update(state)


@dataclass(frozen=True)
class Expression(_CachedHash):
    """Base class for every PEPA expression node."""

    def is_sequential(self) -> bool:
        """True for nodes that may appear inside cells / as token terms."""
        return isinstance(self, Sequential)


@dataclass(frozen=True)
class Sequential(Expression):
    """Base class for sequential components (prefix, choice, constant)."""


@dataclass(frozen=True)
class Prefix(Sequential):
    """``(action, rate).continuation``"""

    action: str
    rate: Rate
    continuation: Sequential

    def __str__(self) -> str:
        return f"({self.action}, {self.rate}).{_paren_seq(self.continuation)}"


@dataclass(frozen=True)
class Choice(Sequential):
    """``left + right``"""

    left: Sequential
    right: Sequential

    def __str__(self) -> str:
        # the parser is left-associative, so a right-nested choice needs
        # parentheses to round-trip structurally
        right = f"({self.right})" if isinstance(self.right, Choice) else str(self.right)
        return f"{self.left} + {right}"


@dataclass(frozen=True)
class Const(Sequential):
    """A named component constant, bound by a definition ``I = S``.

    Constants double as concurrent-component identifiers in place
    definitions; the environment checks each use site.
    """

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Cooperation(Expression):
    """``left <L> right`` — synchronise on every action type in ``L``.

    ``actions`` may be :data:`WILDCARD_SET` until resolved by the
    environment.  The empty set gives pure interleaving (``||``).
    """

    left: Expression
    right: Expression
    actions: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if TAU in self.actions:
            raise WellFormednessError("cooperation on the silent action tau is not allowed")

    def __str__(self) -> str:
        if self.actions == WILDCARD_SET:
            label = "<*>"
        elif self.actions:
            label = "<" + ", ".join(sorted(self.actions)) + ">"
        else:
            label = "||"
        return f"{_paren(self.left)} {label} {_paren(self.right)}"


@dataclass(frozen=True)
class Hiding(Expression):
    """``expr / {L}`` — action types in ``L`` become the silent ``tau``."""

    expr: Expression
    actions: frozenset[str]

    def __str__(self) -> str:
        return f"{_paren(self.expr)}/{{{', '.join(sorted(self.actions))}}}"


@dataclass(frozen=True)
class Cell(Expression):
    """A token cell ``Family[content]``.

    ``family`` names the sequential component whose derivatives the cell
    may store (its *type* in the PEPA-nets sense); ``content`` is either
    ``None`` (vacant, printed ``Family[_]``) or a sequential component.
    Cells are the only mutable-looking structure in the formalism, but we
    model mutation by rebuilding the enclosing expression, preserving
    immutability.
    """

    family: str
    content: Sequential | None = None

    def is_vacant(self) -> bool:
        """True when the cell holds no token."""
        return self.content is None

    def filled(self, component: Sequential) -> "Cell":
        """A copy of this cell holding the given component."""
        return Cell(self.family, component)

    def vacated(self) -> "Cell":
        """A copy of this cell with its content removed."""
        return Cell(self.family, None)

    def __str__(self) -> str:
        inner = "_" if self.content is None else str(self.content)
        return f"{self.family}[{inner}]"


# @dataclass(frozen=True) regenerates __hash__ on every subclass, which
# would shadow the caching mixin; install the cached version explicitly.
for _cls in (Prefix, Choice, Const, Cooperation, Hiding, Cell):
    _cls.__hash__ = _CachedHash.__hash__  # type: ignore[method-assign]
    _cls._hash_fields = tuple(f.name for f in fields(_cls))


def _paren(expr: Expression) -> str:
    if isinstance(expr, (Cooperation, Hiding, Choice)):
        return f"({expr})"
    return str(expr)


def _paren_seq(expr: Sequential) -> str:
    if isinstance(expr, Choice):
        return f"({expr})"
    return str(expr)


def action_set(expr: Expression) -> frozenset[str]:
    """The syntactic action types occurring in ``expr`` (not following
    constants — use :meth:`Environment.alphabet` for the full alphabet)."""
    if isinstance(expr, Prefix):
        return frozenset({expr.action}) | action_set(expr.continuation)
    if isinstance(expr, Choice):
        return action_set(expr.left) | action_set(expr.right)
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Cooperation):
        return action_set(expr.left) | action_set(expr.right)
    if isinstance(expr, Hiding):
        return action_set(expr.expr)
    if isinstance(expr, Cell):
        return frozenset() if expr.content is None else action_set(expr.content)
    raise TypeError(f"not a PEPA expression: {expr!r}")


def constants_of(expr: Expression) -> frozenset[str]:
    """Every constant name referenced anywhere in ``expr``."""
    if isinstance(expr, Prefix):
        return constants_of(expr.continuation)
    if isinstance(expr, Choice):
        return constants_of(expr.left) | constants_of(expr.right)
    if isinstance(expr, Const):
        return frozenset({expr.name})
    if isinstance(expr, Cooperation):
        return constants_of(expr.left) | constants_of(expr.right)
    if isinstance(expr, Hiding):
        return constants_of(expr.expr)
    if isinstance(expr, Cell):
        base = frozenset({expr.family})
        return base if expr.content is None else base | constants_of(expr.content)
    raise TypeError(f"not a PEPA expression: {expr!r}")
