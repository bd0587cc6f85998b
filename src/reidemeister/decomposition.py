"""Block decomposition of type vectors and characteristic subgroups.

A nondecreasing exponent vector e splits uniquely into three kinds of
blocks, found in this order:

1. every maximal constant run of length >= 2 becomes an ``a``-block;
2. among the leftovers, scanning left to right, adjacent pairs
   (v, v + 1) become ``b``-blocks;
3. the rest are singleton ``c``-blocks (pairwise distinct, gaps >= 2).

The depth vector d(e) derived from the blocks selects a characteristic
subgroup  +. p^{d_i} Z / p^{e_i} Z;  restricting an automorphism to it
conjugates the matrix by diag(p^{d_1}, ..., p^{d_n}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    """Split the type vector into a/b/c blocks and compute d(e)."""
    e = g.e
    n = len(e)
    taken = [False] * n
    blocks: list[Block] = []

    i = 0
    while i < n:
        j = i
        while j + 1 < n and e[j + 1] == e[i]:
            j += 1
        if j > i:
            blocks.append(Block("a", i, e[i : j + 1]))
            for t in range(i, j + 1):
                taken[t] = True
        i = j + 1

    i = 0
    while i < n - 1:
        if not taken[i] and not taken[i + 1] and e[i + 1] == e[i] + 1:
            blocks.append(Block("b", i, (e[i], e[i + 1])))
            taken[i] = taken[i + 1] = True
            i += 2
        else:
            i += 1

    for i in range(n):
        if not taken[i]:
            blocks.append(Block("c", i, (e[i],)))

    blocks.sort(key=lambda blk: blk.start)
    counts = {"a": 0, "b": 0, "c": 0}
    for blk in blocks:
        counts[blk.kind] += 1
    tup = tuple(blocks)
    return BlockDecomposition(
        e, tup, counts["a"], counts["b"], counts["c"], _depths(n, tup)
    )


def _depths(n: int, blocks: tuple[Block, ...]) -> tuple[int, ...]:
    """d(e): d_1 = 0, +1 exactly on entering a new b- or c-block."""
    if n == 0:
        return ()
    owner = [0] * n
    for bid, blk in enumerate(blocks):
        for i in range(blk.start, blk.end):
            owner[i] = bid
    d = [0] * n
    for i in range(1, n):
        same_block = owner[i] == owner[i - 1]
        if same_block or blocks[owner[i]].kind == "a":
            d[i] = d[i - 1]
        else:
            d[i] = d[i - 1] + 1
    return tuple(d)


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
