"""Brute-force ground truth for spectra and fixed-point counts.

Endomorphisms are enumerated through their canonical parameterization:
entry (i, j) ranges over p^{max(0, e_i - e_j)} * t with
t in [0, p^{min(e_i, e_j)}), one representative per endomorphism, in
lexicographic order of the row-major parameter vector: the last
coordinate varies fastest, as in ``elements``.  Fixed points
and twisted classes are counted at the element level, independently of
the lattice-index shortcut they validate.

Caps on enumeration sizes live in ``EnumBudget``; sweeps over whole
families of groups are driven by the ``iter_types`` helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Iterator

from .core import Factored, IntMatrix
from .endo import (
    EndoMatrix,
    PGroupType,
    elements,
    is_automorphism,
)
from .errors import BudgetExceeded, InvariantViolation
from .spectra import Spectrum

__all__ = [
    "EnumBudget",
    "DEFAULT_BUDGET",
    "canonical_parameters",
    "endomorphism_count",
    "enumerate_endomorphisms",
    "enumerate_automorphisms",
    "brute_fixed_points",
    "twisted_class_count",
    "oracle_spectrum",
    "iter_partitions",
    "iter_types",
]


@dataclass(frozen=True)
class EnumBudget:
    """Caps for exhaustive enumeration."""

    max_endos: int = 2**20
    max_group_order: int = 2**14

    def __post_init__(self) -> None:
        if self.max_endos < 1 or self.max_group_order < 1:
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = EnumBudget()


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


def _check_endo_budget(g: PGroupType, budget: EnumBudget) -> int:
    count = endomorphism_count(g)
    if count > budget.max_endos:
        raise BudgetExceeded(
            f"{count} endomorphisms of {g} exceed the cap {budget.max_endos}"
        )
    return count


def enumerate_endomorphisms(
    g: PGroupType, budget: EnumBudget = DEFAULT_BUDGET
) -> Iterator[EndoMatrix]:
    """Yield one canonical matrix per endomorphism, lexicographically in
    the row-major parameter vector (last coordinate varies fastest)."""
    _check_endo_budget(g, budget)
    n = g.n
    strides, counts = canonical_parameters(g)
    for params in product(*map(range, counts)):
        entries = tuple(s * t for s, t in zip(strides, params))
        yield EndoMatrix(g, IntMatrix(n, n, entries))


def enumerate_automorphisms(
    g: PGroupType, budget: EnumBudget = DEFAULT_BUDGET
) -> Iterator[EndoMatrix]:
    """The subsequence of enumerate_endomorphisms invertible mod p."""
    for em in enumerate_endomorphisms(g, budget):
        if is_automorphism(em):
            yield em


def _check_order_budget(g: PGroupType, budget: EnumBudget) -> int:
    order = g.order
    if order > budget.max_group_order:
        raise BudgetExceeded(
            f"group order {order} exceeds the cap {budget.max_group_order}"
        )
    return order


def brute_fixed_points(em: EndoMatrix, budget: EnumBudget = DEFAULT_BUDGET) -> int:
    """Count fixed points by applying the map to every group element."""
    g = em.group
    _check_order_budget(g, budget)
    rows = [(em.m.row(i), m) for i, m in enumerate(g.moduli)]
    return sum(
        1
        for x in elements(g)
        if all(sum(map(mul, row, x)) % m == xi for (row, m), xi in zip(rows, x))
    )


def twisted_class_count(em: EndoMatrix, budget: EnumBudget = DEFAULT_BUDGET) -> int:
    """Count twisted conjugacy classes as |P| / |im(Id - phi)|, with the
    image collected by applying x -> x - phi(x) to every element."""
    g = em.group
    order = _check_order_budget(g, budget)
    # row i of Id - M: x - phi(x) is one matrix-vector product
    rows = [
        (tuple(int(i == j) - a for j, a in enumerate(em.m.row(i))), m)
        for i, m in enumerate(g.moduli)
    ]
    image = {tuple(sum(map(mul, row, x)) % m for row, m in rows) for x in elements(g)}
    if order % len(image):
        raise InvariantViolation("image size must divide the group order")
    return order // len(image)


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
