"""Block decomposition of type vectors and characteristic subgroups.

A nondecreasing exponent vector e splits uniquely into blocks, in one
left-to-right scan over its maximal runs of equal exponents:

1. a run of length >= 2 is an ``a``-block;
2. a single v followed directly by a single v + 1 is a ``b``-block, and
   the scan moves past both;
3. any other single is a ``c``-block (pairwise distinct, gaps >= 2).

This gives the same blocks as taking every a-block first, then the
adjacent pairs (v, v + 1) among the leftovers from the left, then the
rest.  The depth vector d(e) starts at 0 and goes up by one on entering
each b- or c-block after the first block.  It selects the characteristic
subgroup  +. p^{d_i} Z / p^{e_i} Z;  restricting an automorphism to it
conjugates the matrix by diag(p^{d_1}, ..., p^{d_n}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Sequence

from .core import IntMatrix
from .endo import EndoMatrix, PGroupType, is_automorphism
from .errors import (
    DimensionMismatch,
    FullDepth,
    InvariantViolation,
    NotAutomorphism,
    NotCharacteristic,
    OutOfRange,
)

__all__ = [
    "Block",
    "BlockDecomposition",
    "ColumnReport",
    "abc_decompose",
    "is_characteristic",
    "restrict",
    "column_structure_check",
    "block_notation",
]


@dataclass(frozen=True)
class Block:
    """One block: kind in {"a", "b", "c"}, 0-based start index, values."""

    kind: str
    start: int
    values: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.values)

    @property
    def end(self) -> int:
        """Index one past the last element."""
        return self.start + len(self.values)


@dataclass(frozen=True)
class BlockDecomposition:
    """Ordered blocks covering e, their counts, and the depth vector d."""

    e: tuple[int, ...]
    blocks: tuple[Block, ...]
    a: int
    b: int
    c: int
    d: tuple[int, ...]

    @property
    def floor_exponent(self) -> int:
        """b + c: the least product-number exponent over automorphisms."""
        return self.b + self.c


@lru_cache(maxsize=256)
def abc_decompose(g: PGroupType) -> BlockDecomposition:
    """Split the type vector into a/b/c blocks and compute d(e), in one
    scan over the runs of equal exponents."""
    e = g.e
    runs = [(v, len(list(run))) for v, run in groupby(e)]
    blocks: list[Block] = []
    d: list[int] = []
    k = start = depth = 0
    while k < len(runs):
        v, length = runs[k]
        if length > 1:
            kind, size = "a", length
        elif k + 1 < len(runs) and runs[k + 1] == (v + 1, 1):
            kind, size = "b", 2
        else:
            kind, size = "c", 1
        if kind != "a" and blocks:  # entering a b- or c-block after the first
            depth += 1
        blocks.append(Block(kind, start, e[start : start + size]))
        d += [depth] * size
        start += size
        k += 2 if kind == "b" else 1
    counts = [sum(blk.kind == kind for blk in blocks) for kind in "abc"]
    return BlockDecomposition(e, tuple(blocks), *counts, tuple(d))


def block_notation(dec: BlockDecomposition) -> str:
    """Render blocks as nested parentheses, e.g. ``((1,1),(2,3),(8))``."""
    inner = ",".join(
        "(" + ",".join(str(v) for v in blk.values) + ")" for blk in dec.blocks
    )
    return f"({inner})"


def is_characteristic(g: PGroupType, d: Sequence[int]) -> bool:
    """True iff the subgroup selected by depths d is characteristic:
    d nondecreasing and e - d nondecreasing."""
    d = tuple(int(v) for v in d)
    if len(d) != g.n:
        raise DimensionMismatch(f"expected {g.n} depths, got {len(d)}")
    e = g.e
    for i in range(g.n):
        if d[i] < 0 or d[i] > e[i]:
            raise OutOfRange(f"depth {d[i]} at index {i} outside [0, {e[i]}]")
    return all(
        d[i] <= d[i + 1] and e[i] - d[i] <= e[i + 1] - d[i + 1]
        for i in range(g.n - 1)
    )


def restrict(em: EndoMatrix, d: Sequence[int]) -> EndoMatrix:
    """Matrix of the automorphism induced on the characteristic subgroup
    of depths d, as a map on the group of type e - d.

    The result is D^{-1} M D with D = diag(p^{d_1}, ..., p^{d_n}); all
    entries are integral whenever d is characteristic and d_i < e_i.
    """
    d = tuple(int(v) for v in d)
    sub = _subgroup_type(em.group, d)
    if not any(d):  # D = I
        return em
    n, powers = sub.n, [em.group.p**v for v in d]
    entries = []
    for i in range(n):
        for v, power in zip(em.m.row(i), powers):
            num = v * power
            if num % powers[i]:
                raise InvariantViolation("conjugated entry is not integral")
            entries.append(num // powers[i])
    return EndoMatrix(sub, IntMatrix(n, n, tuple(entries)))


@lru_cache(maxsize=256)
def _subgroup_type(g: PGroupType, d: tuple[int, ...]) -> PGroupType:
    """Type e - d of the characteristic subgroup of depths d < e."""
    if not is_characteristic(g, d):
        raise NotCharacteristic(f"depths {d} are not characteristic for {g}")
    if any(d[i] == g.e[i] for i in range(g.n)):
        raise FullDepth("restriction needs d_i < e_i for every i")
    return PGroupType(g.p, tuple(ei - di for ei, di in zip(g.e, d)))


@dataclass(frozen=True)
class ColumnReport:
    """Mod-p shape of one column of the restricted matrix.

    ``index`` is the 0-based column of a b- or c-block start; the column
    must vanish mod p off the diagonal and be a unit on it.
    """

    index: int
    block_kind: str
    off_diagonal_zero: bool
    diagonal_nonzero: bool

    @property
    def ok(self) -> bool:
        return self.off_diagonal_zero and self.diagonal_nonzero


def column_structure_check(em: EndoMatrix) -> list[ColumnReport]:
    """Check the columns of restrict(em, d(e)) at every b/c-block start."""
    if not is_automorphism(em):
        raise NotAutomorphism("column structure is only defined for automorphisms")
    dec = abc_decompose(em.group)
    return _column_reports(restrict(em, dec.d), dec)


def _column_reports(restricted: EndoMatrix, dec: BlockDecomposition) -> list[ColumnReport]:
    """column_structure_check's reports for restricted = restrict(em, dec.d)."""
    p, n = restricted.group.p, restricted.group.n
    reports = []
    for blk in dec.blocks:
        if blk.kind == "a":
            continue
        j = blk.start
        off_zero = all(
            restricted.m[i, j] % p == 0 for i in range(n) if i != j
        )
        diag_nonzero = restricted.m[j, j] % p != 0
        reports.append(ColumnReport(j, blk.kind, off_zero, diag_nonzero))
    return reports
