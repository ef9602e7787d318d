"""Parametric pattern families and the extremal clique-union constructions.

Patterns carry a canonical labeling that the rest of the package relies on:
paths and cycles are numbered along the traversal, wheels and Jahangir
graphs number the rim 0..sm-1 with the hub last, and the Jahangir spokes
sit at rim positions 0, s, 2s, ...
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, get_args

from .graphs import Graph, from_edges


class _Family:
    """One pattern family: its fields, text form, parse rule and edge list.

    ``SYNTAX`` matches the upper-cased text form in full; by default each
    capture group is one integer field, in field order.  ``hub`` is the
    vertex adjacent to the whole rim in the families that have one.
    """

    SYNTAX: ClassVar[re.Pattern[str]]

    @classmethod
    def from_match(cls, match: re.Match[str]) -> PatternSpec:
        return cls(*(int(group) for group in match.groups()))

    @property
    def hub(self) -> int | None:
        return None


@dataclass(frozen=True)
class Path(_Family):
    n: int
    SYNTAX = re.compile(r"P(\d+)")

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("path needs n >= 1")

    @property
    def order(self) -> int:
        return self.n

    def text(self) -> str:
        return f"P{self.n}"

    def edges(self) -> list[tuple[int, int]]:
        return [(i, i + 1) for i in range(self.n - 1)]


@dataclass(frozen=True)
class Cycle(_Family):
    n: int
    SYNTAX = re.compile(r"C(\d+)")

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


@dataclass(frozen=True)
class Wheel(_Family):
    """Cycle on k rim vertices plus a hub adjacent to every rim vertex."""

    k: int
    SYNTAX = re.compile(r"W(\d+)")

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


@dataclass(frozen=True)
class Jahangir(_Family):
    """Cycle on s*m rim vertices plus a hub on every s-th rim vertex.

    The hub is adjacent to the m rim vertices at mutual rim distance s,
    i.e. rim positions 0, s, ..., (m-1)s.  Requires s >= 2 and m >= 2.
    """

    s: int
    m: int
    SYNTAX = re.compile(r"J(\d+),(\d+)")

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


@dataclass(frozen=True)
class DisjointPaths(_Family):
    """t vertex-disjoint paths, each on n vertices."""

    t: int
    n: int
    SYNTAX = re.compile(r"(\d+)P(\d+)")

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("need t >= 1 paths")
        if self.n < 1:
            raise ValueError("path needs n >= 1")

    @property
    def order(self) -> int:
        return self.t * self.n

    def text(self) -> str:
        return f"{self.t}P{self.n}"

    def edges(self) -> list[tuple[int, int]]:
        block = Path(self.n).edges()
        return [
            (base + u, base + v)
            for base in range(0, self.order, self.n)
            for u, v in block
        ]


@dataclass(frozen=True)
class CliqueUnion(_Family):
    """Disjoint cliques of the given sizes, numbered block by block."""

    sizes: tuple[int, ...]
    SYNTAX = re.compile(r"K\d+(?:\+K\d+)*")

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


def Complete(n: int) -> CliqueUnion:
    """K_n, the one-clique union; ``K5`` parses to the same value."""
    return CliqueUnion((n,))


PatternSpec = Path | Cycle | Wheel | Jahangir | DisjointPaths | CliqueUnion


def pattern_edges(spec: PatternSpec) -> list[tuple[int, int]]:
    """Edge list of the canonical labeling of ``spec``."""
    return spec.edges()


def build(spec: PatternSpec) -> Graph:
    return from_edges(spec.order, pattern_edges(spec))


def format_spec(spec: PatternSpec) -> str:
    return spec.text()


def parse_spec(text: str) -> PatternSpec:
    """Parse the CLI pattern syntax: P23, C6, W6, J2,3, 2P23, K5, K3+K1.

    Letters are case-insensitive; whitespace is rejected rather than
    stripped so malformed batch input fails loudly.
    """
    if any(ch.isspace() for ch in text):
        raise ValueError(f"whitespace not allowed in pattern {text!r}")
    upper = text.upper()
    for family in get_args(PatternSpec):
        match = family.SYNTAX.fullmatch(upper)
        if match:
            return family.from_match(match)
    raise ValueError(f"unrecognized pattern {text!r}")


# ---------------------------------------------------------------------------
# Extremal lower-bound constructions.
#
# These build the clique unions whose complements avoid the Jahangir target;
# they are the order R-1 witnesses for the three Ramsey regimes.  Only shape
# constraints are validated here (parities, minimal s and m): the graphs are
# valid lower-bound witnesses for every n, while the n-thresholds of the
# dichotomy theorems are enforced by the extractors in `witness`.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Thm1:
    """Even rim step: K_{n-1} + K_{sm/2-1}."""

    n: int
    s: int
    m: int

    def __post_init__(self) -> None:
        if self.s < 2 or self.s % 2:
            raise ValueError("this regime needs even s >= 2")
        if self.m < 3:
            raise ValueError("this regime needs m >= 3")
        if self.n < 2:
            raise ValueError("n >= 2 required")


@dataclass(frozen=True)
class Thm2EvenM:
    """Odd rim step, even spoke count: 2 K_{n-1}."""

    n: int
    s: int
    m: int

    def __post_init__(self) -> None:
        if self.s < 3 or self.s % 2 == 0:
            raise ValueError("this regime needs odd s >= 3")
        if self.m < 2 or self.m % 2:
            raise ValueError("this regime needs even m >= 2")
        if self.n < 2:
            raise ValueError("n >= 2 required")


@dataclass(frozen=True)
class Thm2OddM:
    """Odd rim step, odd spoke count: K_1 + 2 K_{n-1}."""

    n: int
    s: int
    m: int

    def __post_init__(self) -> None:
        if self.s < 3 or self.s % 2 == 0:
            raise ValueError("this regime needs odd s >= 3")
        if self.m < 3 or self.m % 2 == 0:
            raise ValueError("this regime needs odd m >= 3")
        if self.n < 2:
            raise ValueError("n >= 2 required")


@dataclass(frozen=True)
class Thm3:
    """t disjoint paths, even rim step: K_{sm/2-1} + K_{tn-1}."""

    t: int
    n: int
    s: int
    m: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("t >= 1 required")
        if self.s < 2 or self.s % 2:
            raise ValueError("this regime needs even s >= 2")
        if self.m < 3:
            raise ValueError("this regime needs m >= 3")
        if self.n < 2:
            raise ValueError("n >= 2 required")


TheoremCase = Thm1 | Thm2EvenM | Thm2OddM | Thm3


def extremal_graph(case: TheoremCase) -> Graph:
    """Build the lower-bound witness for ``case`` (order R-1)."""
    if isinstance(case, Thm1):
        return build(CliqueUnion((case.n - 1, case.s * case.m // 2 - 1)))
    if isinstance(case, Thm2EvenM):
        return build(CliqueUnion((case.n - 1, case.n - 1)))
    if isinstance(case, Thm2OddM):
        return build(CliqueUnion((1, case.n - 1, case.n - 1)))
    if isinstance(case, Thm3):
        return build(CliqueUnion((case.s * case.m // 2 - 1, case.t * case.n - 1)))
    raise TypeError(f"not a theorem case: {case!r}")
