"""Brute-force ground truth for spectra and fixed-point counts.

Endomorphisms have one canonical parameterization: entry (i, j) ranges
over p^{max(0, e_i - e_j)} * t with t in [0, p^{min(e_i, e_j)}), one
representative per endomorphism, in lexicographic order of the row-major
parameter vector: the last coordinate varies fastest, as in
``elements``.  The sweeps of ``_sweep`` walk it in that order.  Fixed points
and twisted classes are counted at the element level, independently of
the lattice route and the sweep kernel they validate, by one int64 numpy
product with the (n, |A|) grid of every element: entries and coordinates
are below |A| <= 2^14 and n <= 14, so every sum is below 14 * 2^28 < 2^32.

The sweeps' cap on endomorphisms per cell lives in ``EnumBudget``, the
element counts' cap on the group order in ``MAX_GROUP_ORDER``; sweeps
over whole families of groups are driven by the ``iter_types`` helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .core import Factored
from .endo import EndoMatrix, PGroupType
from .errors import BudgetExceeded, InvariantViolation
from .spectra import Spectrum

__all__ = [
    "EnumBudget",
    "DEFAULT_BUDGET",
    "MAX_GROUP_ORDER",
    "canonical_parameters",
    "endomorphism_count",
    "brute_fixed_points",
    "twisted_class_count",
    "oracle_spectrum",
    "iter_partitions",
    "iter_types",
]


@dataclass(frozen=True)
class EnumBudget:
    """Cap on the endomorphisms of one cell for exhaustive enumeration."""

    max_endos: int = 2**20

    def __post_init__(self) -> None:
        if self.max_endos < 1:
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = EnumBudget()
MAX_GROUP_ORDER = 2**14  # elements per group for the element counts


def canonical_parameters(g: PGroupType) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row-major (strides, counts): entry (i, j) of a canonical matrix is
    p^{max(0, e_i - e_j)} * t with 0 <= t < p^{min(e_i, e_j)}."""
    p, e = g.p, g.e
    strides = tuple(p ** max(0, ei - ej) for ei in e for ej in e)
    counts = tuple(p ** min(ei, ej) for ei in e for ej in e)
    return strides, counts


def endomorphism_count(g: PGroupType) -> int:
    """Number of endomorphisms: product over (i, j) of p^{min(e_i, e_j)}."""
    return math.prod(canonical_parameters(g)[1])


def _hillar_rhea_aut_count(g: PGroupType) -> int:
    """Number of automorphisms: Hillar and Rhea, Amer. Math. Monthly 2007,
    Thm 4.1 (1-based indices)."""
    p, e, n = g.p, g.e, g.n
    count = 1
    for k, ek in enumerate(e, start=1):
        hi = n - e[::-1].index(ek)  # max{l : e_l = e_k}
        lo = e.index(ek) + 1  # min{l : e_l = e_k}
        count *= (p**hi - p ** (k - 1)) * p ** (ek * (n - hi)) * p ** ((ek - 1) * (n - lo + 1))
    return count


def _check_endo_budget(g: PGroupType, budget: EnumBudget) -> int:
    count = endomorphism_count(g)
    if count > budget.max_endos:
        raise BudgetExceeded(
            f"{count} endomorphisms of {g} exceed the cap {budget.max_endos}"
        )
    return count


def _check_order(g: PGroupType) -> int:
    order = g.order
    if order > MAX_GROUP_ORDER:
        raise BudgetExceeded(f"group order {order} exceeds the cap {MAX_GROUP_ORDER}")
    return order


def _element_images(em: EndoMatrix):
    """The (n, |A|) int64 grid x of every element and phi(x) per column."""
    import numpy as np  # so that ``import reidemeister`` stays numpy-free
    g = em.group
    x = np.indices(g.moduli, dtype=np.int64).reshape(g.n, g.order)
    m = np.array(em.m.entries, dtype=np.int64).reshape(g.n, g.n)
    return x, (m @ x) % np.array(g.moduli, dtype=np.int64).reshape(g.n, 1)


def brute_fixed_points(em: EndoMatrix) -> int:
    """Count fixed points: grid columns x with phi(x) = x (int64 sums < 2^32)."""
    _check_order(em.group)
    x, y = _element_images(em)
    return int((y == x).all(axis=0).sum())


def twisted_class_count(em: EndoMatrix) -> int:
    """Count twisted conjugacy classes as |P| / |im(Id - phi)|, the image the
    distinct mixed-radix codes of x - phi(x) on the grid (int64 sums < 2^32)."""
    import numpy as np
    order = _check_order(em.group)
    x, y = _element_images(em)
    # sorted, as np.unique hashes (10x slower); axis=None: n = 0 gives a scalar
    codes = np.sort(np.ravel_multi_index(x - y, em.group.moduli, mode="wrap"), axis=None)
    image = int(np.count_nonzero(np.diff(codes, prepend=-1)))
    if order % image:
        raise InvariantViolation("image size must divide the group order")
    return order // image


def oracle_spectrum(
    g: PGroupType, use_pi: bool = False, budget: EnumBudget = DEFAULT_BUDGET
) -> Spectrum:
    """Exact set of twisted class counts (or product numbers) over every
    automorphism, computed by exhaustive enumeration."""
    from . import _sweep  # _sweep imports this module at load time

    report = _sweep.sweep_cell(g, budget)
    exps = report.pi_exponents if use_pi else report.r_exponents
    return Spectrum(Factored.prime_power(g.p, v) for v in exps)


def iter_partitions(total: int, smallest: int = 1) -> Iterator[tuple[int, ...]]:
    """Nondecreasing tuples of integers >= smallest summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(smallest, total + 1):
        for rest in iter_partitions(total - first, first):
            yield (first,) + rest


def iter_types(
    p: int,
    max_endos: int | None = None,
    max_order: int | None = None,
) -> Iterator[PGroupType]:
    """All types (including the trivial one) whose endomorphism count
    and/or group order stay within the given caps, in lexicographic
    order of the exponent vector."""
    if max_endos is None and max_order is None:
        raise ValueError("need at least one of max_endos / max_order")

    def fits(e: tuple[int, ...]) -> bool:
        g = PGroupType(p, e)
        if max_order is not None and g.order > max_order:
            return False
        if max_endos is not None and endomorphism_count(g) > max_endos:
            return False
        return True

    def grow(e: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        yield e
        nxt = e[-1] if e else 1
        while True:
            cand = e + (nxt,)
            if not fits(cand):
                return
            yield from grow(cand)
            nxt += 1

    yield from (PGroupType(p, e) for e in grow(()))
