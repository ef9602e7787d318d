"""Parametric pattern families and the extremal clique-union constructions.

Patterns carry a canonical labeling that the rest of the package relies on:
paths and cycles are numbered along the traversal (``tP_n`` path by path),
wheels and Jahangir graphs number the rim 0..sm-1 with the hub last, and
the Jahangir spokes sit at rim positions 0, s, 2s, ...
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, ClassVar, get_args

from .graphs import Frozen, Graph, from_edges

if TYPE_CHECKING:
    from .witness import ExtractionTrace


class _Family(Frozen):
    """One pattern family: its fields, text form, parse rule and edge list.

    ``SYNTAX`` is the pattern that matches the upper-cased text form in
    full, compiled on first use through ``re``'s cache; by default each
    capture group is one integer field, in field order.  ``hub`` is the
    vertex adjacent to the whole rim in the families that have one.
    """

    SYNTAX: ClassVar[str]

    @classmethod
    def from_match(cls, match: re.Match[str]) -> PatternSpec:
        return cls(*(int(group) for group in match.groups()))

    @property
    def hub(self) -> int | None:
        return None


class Cycle(_Family):
    n: int
    SYNTAX = r"C(\d+)"

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("cycle needs n >= 3")

    @property
    def order(self) -> int:
        return self.n

    def text(self) -> str:
        return f"C{self.n}"

    def edges(self) -> list[tuple[int, int]]:
        return [(i, (i + 1) % self.n) for i in range(self.n)]


class Wheel(_Family):
    """Cycle on k rim vertices plus a hub adjacent to every rim vertex."""

    k: int
    SYNTAX = r"W(\d+)"

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError("wheel needs rim length k >= 3")

    @property
    def order(self) -> int:
        return self.k + 1

    @property
    def hub(self) -> int:
        return self.k

    def text(self) -> str:
        return f"W{self.k}"

    def edges(self) -> list[tuple[int, int]]:
        return Cycle(self.k).edges() + [(i, self.k) for i in range(self.k)]


class Jahangir(_Family):
    """Cycle on s*m rim vertices plus a hub on every s-th rim vertex.

    The hub is adjacent to the m rim vertices at mutual rim distance s,
    i.e. rim positions 0, s, ..., (m-1)s.  Requires s >= 2 and m >= 2.
    """

    s: int
    m: int
    SYNTAX = r"J(\d+),(\d+)"

    def __post_init__(self) -> None:
        if self.s < 2:
            raise ValueError("rim step s >= 2 required")
        if self.m < 2:
            raise ValueError("spoke count m >= 2 required")

    @property
    def order(self) -> int:
        return self.s * self.m + 1

    @property
    def hub(self) -> int:
        return self.s * self.m

    def text(self) -> str:
        return f"J{self.s},{self.m}"

    def edges(self) -> list[tuple[int, int]]:
        sm = self.s * self.m
        return Cycle(sm).edges() + [(j * self.s, sm) for j in range(self.m)]


class DisjointPaths(_Family):
    """t vertex-disjoint paths on n vertices each; ``Path(n)`` is t = 1.

    ``P23`` and ``1P23`` parse to ``Path(23)``, which prints as ``P23``.
    """

    t: int
    n: int
    SYNTAX = r"(\d*)P(\d+)"

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("need t >= 1 paths")
        if self.n < 1:
            raise ValueError("path needs n >= 1")

    @classmethod
    def from_match(cls, match: re.Match[str]) -> DisjointPaths:
        return cls(int(match[1] or 1), int(match[2]))

    @property
    def order(self) -> int:
        return self.t * self.n

    def text(self) -> str:
        return f"P{self.n}" if self.t == 1 else f"{self.t}P{self.n}"

    def edges(self) -> list[tuple[int, int]]:
        return [
            (base + i, base + i + 1)
            for base in range(0, self.order, self.n)
            for i in range(self.n - 1)
        ]


class CliqueUnion(_Family):
    """Disjoint cliques of the given sizes, numbered block by block."""

    sizes: tuple[int, ...]
    SYNTAX = r"K\d+(?:\+K\d+)*"

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("need at least one clique")
        if any(s < 1 for s in self.sizes):
            raise ValueError("clique sizes must be positive")

    @classmethod
    def from_match(cls, match: re.Match[str]) -> CliqueUnion:
        return cls(tuple(int(size) for size in match[0][1:].split("+K")))

    @property
    def order(self) -> int:
        return sum(self.sizes)

    def text(self) -> str:
        return "+".join(f"K{s}" for s in self.sizes)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        base = 0
        for size in self.sizes:
            out.extend((base + i, base + j) for j in range(size) for i in range(j))
            base += size
        return out


def Path(n: int) -> DisjointPaths:
    """P_n, the one-path union; ``P5`` and ``1P5`` parse to the same value."""
    return DisjointPaths(1, n)


def Complete(n: int) -> CliqueUnion:
    """K_n, the one-clique union; ``K5`` parses to the same value."""
    return CliqueUnion((n,))


PatternSpec = Cycle | Wheel | Jahangir | DisjointPaths | CliqueUnion


def build(spec: PatternSpec) -> Graph:
    return from_edges(spec.order, spec.edges())


def parse_spec(text: str) -> PatternSpec:
    """Parse the CLI pattern syntax: P23, C6, W6, J2,3, 2P23, K5, K3+K1.

    Letters are case-insensitive; whitespace is rejected rather than
    stripped so malformed batch input fails loudly.
    """
    if any(ch.isspace() for ch in text):
        raise ValueError(f"whitespace not allowed in pattern {text!r}")
    upper = text.upper()
    for family in get_args(PatternSpec):
        match = re.fullmatch(family.SYNTAX, upper)
        if match:
            return family.from_match(match)
    raise ValueError(f"unrecognized pattern {text!r}")


# ---------------------------------------------------------------------------
# Theorem regimes.
#
# Each class states one regime once: its shape hypotheses (checked on
# construction), the path count t, the least path order ``min_n`` the
# dichotomy covers, and the clique sizes of the extremal graph, a lower-bound
# witness for every n >= 2 whose order plus one is R.  `require_thresholds`
# holds the n and host-order hypotheses the extractors in `witness` add.
# The three exceptions below are the package's contract failures; they live
# here so that the command line names each without loading a search engine.
# ---------------------------------------------------------------------------


class PreconditionError(ValueError):
    """A stated hypothesis of a theorem regime or an extraction does not hold."""


class MaximalityViolation(RuntimeError):
    """A selection the construction is entitled to make was impossible.

    With the exact path engine underneath, this surfaces only when an
    extractor runs outside its guarantees (``force=True``, or hypotheses
    that fail to hold) -- or when there is a genuine defect.  ``trace``
    carries the partial extraction state when one was available.
    """

    def __init__(self, message: str, trace: ExtractionTrace | None = None):
        super().__init__(message)
        self.trace = trace


class BudgetExhausted(RuntimeError):
    """A search ran out of its expansion budget before settling the question."""


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)


class Thm1(Frozen):
    """Even rim step, t disjoint paths: K_{tn-1} + K_{sm/2-1}."""

    n: int
    s: int
    m: int
    t: int = 1

    def __post_init__(self) -> None:
        _need(self.t >= 1, "t >= 1 required")
        _need(self.s >= 2 and self.s % 2 == 0, "this regime needs even s >= 2")
        _need(self.m >= 3, "this regime needs m >= 3")
        _need(self.n >= 2, "n >= 2 required")

    @property
    def min_n(self) -> int:
        sm = self.s * self.m
        return (2 * sm - 1) * (sm // 2 - 1) + 1

    @property
    def clique_sizes(self) -> tuple[int, ...]:
        return (self.t * self.n - 1, self.s * self.m // 2 - 1)


class Thm2EvenM(Frozen):
    """Odd rim step, even spoke count: 2 K_{n-1}."""

    n: int
    s: int
    m: int
    t: ClassVar[int] = 1

    def __post_init__(self) -> None:
        _need(self.s >= 3 and self.s % 2 == 1, "this regime needs odd s >= 3")
        _need(self.m >= 2 and self.m % 2 == 0, "this regime needs even m >= 2")
        _need(self.n >= 2, "n >= 2 required")

    @property
    def min_n(self) -> int:
        sm = self.s * self.m
        return (sm // 2) * (sm - 2)

    @property
    def clique_sizes(self) -> tuple[int, ...]:
        return (self.n - 1, self.n - 1)


class Thm2OddM(Frozen):
    """Odd rim step, odd spoke count: K_1 + 2 K_{n-1}."""

    n: int
    s: int
    m: int
    t: ClassVar[int] = 1

    def __post_init__(self) -> None:
        _need(self.s >= 3 and self.s % 2 == 1, "this regime needs odd s >= 3")
        _need(self.m >= 3 and self.m % 2 == 1, "this regime needs odd m >= 3")
        _need(self.n >= 2, "n >= 2 required")

    @property
    def min_n(self) -> int:
        sm = self.s * self.m
        return ((sm - 1) // 2) * (sm - 1)

    @property
    def clique_sizes(self) -> tuple[int, ...]:
        return (1, self.n - 1, self.n - 1)


def Thm3(t: int, n: int, s: int, m: int) -> Thm1:
    """The paper's Theorem 3, t disjoint paths with even s: Thm1 with t paths."""
    return Thm1(n, s, m, t)


TheoremCase = Thm1 | Thm2EvenM | Thm2OddM


def extremal_graph(case: TheoremCase) -> Graph:
    """Build the lower-bound witness for ``case`` (order R-1)."""
    return build(CliqueUnion(case.clique_sizes))


def require_thresholds(case: TheoremCase, host: Graph) -> None:
    """Raise :class:`PreconditionError` unless n >= ``case.min_n`` and
    ``host`` has order at least R, the extremal order plus one."""
    _need(
        case.n >= case.min_n,
        f"n >= {case.min_n} required for s={case.s}, m={case.m}",
    )
    need = sum(case.clique_sizes) + 1
    _need(host.order >= need, f"host order >= {need} required")
