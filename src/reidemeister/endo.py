"""Matrix model for endomorphisms of finite abelian p-groups.

A group of type ``e`` (a nondecreasing vector of positive exponents) is
the direct sum of Z/p^{e_i}.  Following Hillar and Rhea, its
endomorphisms are exactly the integer matrices M with
p^{e_i - e_j} | M_{ij} for i >= j, acting on column vectors of
coordinates; automorphisms are the M that are invertible mod p.

An ``EndoMatrix`` stores the canonical representative: row i is reduced
mod p^{e_i}, so two matrices are equal iff they induce the same map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Iterable, Iterator

from .core import Factored, IntMatrix, is_prime, lattice_index
from .core import det_mod_p as _det_mod_p
from .errors import (
    DimensionMismatch,
    GroupMismatch,
    GroupSpecError,
    InvalidEndoMatrix,
    InvariantViolation,
    NonPositiveExponent,
    NotCoprime,
    NotPrime,
)

__all__ = [
    "PGroupType",
    "EndoMatrix",
    "GroupElement",
    "validate_type",
    "is_valid_endo",
    "is_automorphism",
    "apply",
    "compose",
    "scale",
    "fixed_point_count",
    "reidemeister_number",
    "reidemeister_cyclic",
    "induced_mod_p",
    "elements",
    "parse_type_spec",
    "format_type_spec",
]


@dataclass(frozen=True)
class PGroupType:
    """A prime p and nondecreasing exponent vector e; n = 0 is trivial."""

    p: int
    e: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")
        e = tuple(int(v) for v in self.e)
        if any(v < 1 for v in e):
            raise NonPositiveExponent(f"exponents must be >= 1, got {e}")
        if any(e[i] > e[i + 1] for i in range(len(e) - 1)):
            raise ValueError(f"exponents must be nondecreasing, got {e}")
        object.__setattr__(self, "e", e)

    @property
    def n(self) -> int:
        return len(self.e)

    @property
    def total_exponent(self) -> int:
        return sum(self.e)

    @property
    def order(self) -> int:
        return self.p**self.total_exponent

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(self.p**v for v in self.e)

    @property
    def is_trivial(self) -> bool:
        return self.n == 0

    def __str__(self) -> str:
        return format_type_spec(self)


def validate_type(p: int, raw: Iterable[int]) -> PGroupType:
    """Canonicalize raw exponents: sort nondecreasing, validate p prime."""
    exps = [int(v) for v in raw]
    if any(v < 1 for v in exps):
        raise NonPositiveExponent(f"exponents must be >= 1, got {tuple(exps)}")
    return PGroupType(p, tuple(sorted(exps)))


def parse_type_spec(text: str) -> PGroupType:
    """Parse the ``p=2 e=2,3`` group type text format."""
    p = None
    e: tuple[int, ...] | None = None
    for token in text.split():
        if token.startswith("p="):
            try:
                p = int(token[2:])
            except ValueError as exc:
                raise GroupSpecError(f"bad prime in {token!r}") from exc
        elif token.startswith("e="):
            body = token[2:]
            try:
                e = tuple(int(v) for v in body.split(",")) if body else ()
            except ValueError as exc:
                raise GroupSpecError(f"bad exponent list in {token!r}") from exc
        else:
            raise GroupSpecError(f"unexpected token {token!r} in type spec")
    if p is None or e is None:
        raise GroupSpecError(f"type spec {text!r} needs both p= and e=")
    return validate_type(p, e)


def format_type_spec(g: PGroupType) -> str:
    return f"p={g.p} e={','.join(str(v) for v in g.e)}"


@dataclass(frozen=True)
class GroupElement:
    """Coordinate vector with coordinate i reduced mod p^{e_i}."""

    group: PGroupType
    coords: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        coords = tuple(int(v) for v in self.coords)
        if len(coords) != self.group.n:
            raise DimensionMismatch(
                f"expected {self.group.n} coordinates, got {len(coords)}"
            )
        moduli = self.group.moduli
        object.__setattr__(
            self, "coords", tuple(v % m for v, m in zip(coords, moduli))
        )

    @classmethod
    def zero(cls, group: PGroupType) -> GroupElement:
        return cls(group, (0,) * group.n)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coords)


def elements(g: PGroupType) -> Iterator[GroupElement]:
    """Iterate every element of the group, last coordinate varies fastest."""
    for coords in product(*map(range, g.moduli)):
        yield GroupElement(g, coords)


def _divisibility_ok(g: PGroupType, m: IntMatrix) -> bool:
    p, e = g.p, g.e
    for i in range(g.n):
        row = m.row(i)
        for j in range(i):
            if e[i] > e[j] and row[j] % p ** (e[i] - e[j]):
                return False
    return True


@dataclass(frozen=True)
class EndoMatrix:
    """Canonical matrix of an endomorphism of a finite abelian p-group."""

    group: PGroupType
    m: IntMatrix

    def __post_init__(self) -> None:
        g = self.group
        if self.m.rows != g.n or self.m.cols != g.n:
            raise DimensionMismatch(
                f"type {g} needs a {g.n}x{g.n} matrix, got {self.m.rows}x{self.m.cols}"
            )
        if not _divisibility_ok(g, self.m):
            raise InvalidEndoMatrix(
                f"matrix violates p^(e_i-e_j) divisibility for type {g}"
            )
        moduli = g.moduli
        reduced = tuple(
            v % moduli[i]
            for i in range(g.n)
            for v in self.m.row(i)
        )
        object.__setattr__(self, "m", IntMatrix(g.n, g.n, reduced))

    @classmethod
    def identity(cls, group: PGroupType) -> EndoMatrix:
        return cls(group, IntMatrix.identity(group.n))

    def __str__(self) -> str:
        return f"{self.group}: {self.m}"


def is_valid_endo(g: PGroupType, m: IntMatrix) -> bool:
    """True iff m is n x n and satisfies the divisibility constraints."""
    if m.rows != g.n or m.cols != g.n:
        raise DimensionMismatch(
            f"type {g} needs a {g.n}x{g.n} matrix, got {m.rows}x{m.cols}"
        )
    return _divisibility_ok(g, m)


def is_automorphism(em: EndoMatrix) -> bool:
    """True iff the matrix is invertible mod p (0x0 matrices are)."""
    if em.group.n == 0:
        return True
    return _det_mod_p(em.m, em.group.p) != 0


def apply(em: EndoMatrix, x: GroupElement) -> GroupElement:
    if x.group != em.group:
        raise GroupMismatch(f"element of {x.group} fed to map on {em.group}")
    g = em.group
    coords = tuple(
        sum(a * b for a, b in zip(em.m.row(i), x.coords))
        for i in range(g.n)
    )
    return GroupElement(g, coords)


def compose(outer: EndoMatrix, inner: EndoMatrix) -> EndoMatrix:
    """Matrix of outer . inner (apply inner first)."""
    if outer.group != inner.group:
        raise GroupMismatch("cannot compose maps on different groups")
    return EndoMatrix(outer.group, outer.m @ inner.m)


def scale(em: EndoMatrix, i: int) -> EndoMatrix:
    """Compose with multiplication by i; i must be coprime to p."""
    if gcd(i, em.group.p) != 1:
        raise NotCoprime(f"{i} is not coprime to {em.group.p}")
    return EndoMatrix(em.group, em.m.map_entries(lambda v: i * v))


def fixed_point_count(em: EndoMatrix) -> Factored:
    """Number of fixed points as a power of p.

    Computed as the index in Z^n of the column lattice of the n x 2n
    block [M - I | diag(p^{e_1}, ..., p^{e_n})]; this equals both
    |ker(Id - phi)| and the number of twisted conjugacy classes of phi.
    """
    g = em.group
    n = g.n
    if n == 0:
        return Factored.one()
    moduli = g.moduli
    entries = []
    for i in range(n):
        row = list(em.m.row(i))
        row[i] -= 1
        row.extend(moduli[i] if j == i else 0 for j in range(n))
        entries.extend(row)
    index = lattice_index(IntMatrix(n, 2 * n, tuple(entries)))
    nu = 0
    while index % g.p == 0:
        index //= g.p
        nu += 1
    if index != 1:
        raise InvariantViolation("fixed-point index must be a power of p")
    return Factored.prime_power(g.p, nu)


def reidemeister_number(em: EndoMatrix) -> Factored:
    """Number of twisted conjugacy classes; equals fixed_point_count."""
    return fixed_point_count(em)


def reidemeister_cyclic(k: int, p: int, n: int) -> Factored:
    """Twisted class count of 1 -> k on Z/p^n, i.e. gcd(k - 1, p^n)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 0:
        raise NonPositiveExponent(f"exponent must be >= 0, got {n}")
    g = gcd(k - 1, p**n)
    nu = 0
    while g % p == 0:
        g //= p
        nu += 1
    return Factored.prime_power(p, nu)


def induced_mod_p(em: EndoMatrix) -> IntMatrix:
    """Matrix of the induced map on P/pP: entrywise reduction mod p."""
    p = em.group.p
    return em.m.map_entries(lambda v: v % p)
