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
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence

from .core import Factored, IntMatrix, is_prime, lattice_index
from .core import det_mod_p as _det_mod_p
from .errors import (
    DimensionMismatch,
    GroupSpecError,
    InvalidEndoMatrix,
    InvariantViolation,
    NonPositiveExponent,
    NotPrime,
)

__all__ = [
    "PGroupType",
    "EndoMatrix",
    "validate_type",
    "is_valid_endo",
    "is_automorphism",
    "apply",
    "fixed_point_count",
    "reidemeister_number",
    "elements",
    "parse_exponents",
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

    @cached_property
    def n(self) -> int:
        return len(self.e)

    @property
    def total_exponent(self) -> int:
        return sum(self.e)

    @property
    def order(self) -> int:
        return self.p**self.total_exponent

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(self.p**v for v in self.e)

    @cached_property
    def _divisors(self) -> tuple[tuple[int, int], ...]:
        """(row-major position of M_ij, p^(e_i - e_j)) for each e_i > e_j."""
        e, n = self.e, self.n
        return tuple(
            (i * n + j, self.p ** (e[i] - e[j])) for i in range(n) for j in range(i) if e[i] > e[j]
        )

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


def parse_exponents(text: str) -> tuple[int, ...]:
    """Parse a comma-separated exponent list; the empty text is ()."""
    try:
        return tuple(int(v) for v in text.split(",")) if text else ()
    except ValueError as exc:
        raise GroupSpecError(f"bad exponent list {text!r}") from exc


def parse_type_spec(text: str) -> PGroupType:
    """Parse the ``p=2 e=2,3`` group type text format; each token once."""
    fields: dict[str, str] = {}
    for token in text.split():
        key = token[:2]
        if key not in ("p=", "e="):
            raise GroupSpecError(f"unexpected token {token!r} in type spec")
        if key in fields:
            raise GroupSpecError(f"repeated {key} token in type spec {text!r}")
        fields[key] = token[2:]
    if len(fields) < 2:
        raise GroupSpecError(f"type spec {text!r} needs both p= and e=")
    try:
        p = int(fields["p="])
    except ValueError as exc:
        raise GroupSpecError(f"bad prime {fields['p=']!r}") from exc
    return validate_type(p, parse_exponents(fields["e="]))


def format_type_spec(g: PGroupType) -> str:
    return f"p={g.p} e={','.join(str(v) for v in g.e)}"


def elements(g: PGroupType) -> Iterator[tuple[int, ...]]:
    """Iterate the coordinate tuple of every element of the group,
    coordinate i in range(p^{e_i}); the last coordinate varies fastest."""
    return product(*map(range, g.moduli))


def is_valid_endo(g: PGroupType, m: IntMatrix) -> bool:
    """True iff m is n x n and satisfies the divisibility constraints."""
    if m.rows != g.n or m.cols != g.n:
        raise DimensionMismatch(f"type {g} needs a {g.n}x{g.n} matrix, got {m.rows}x{m.cols}")
    return not any(m.entries[k] % divisor for k, divisor in g._divisors)


@dataclass(frozen=True)
class EndoMatrix:
    """Canonical matrix of an endomorphism of a finite abelian p-group."""

    group: PGroupType
    m: IntMatrix

    def __post_init__(self) -> None:
        g = self.group
        if not is_valid_endo(g, self.m):
            raise InvalidEndoMatrix(
                f"matrix violates p^(e_i-e_j) divisibility for type {g}"
            )
        n, moduli = g.n, g.moduli
        reduced = tuple(v % moduli[k // n] for k, v in enumerate(self.m.entries))
        if reduced != self.m.entries:  # keep an already canonical matrix
            object.__setattr__(self, "m", IntMatrix(n, n, reduced))

    @classmethod
    def identity(cls, group: PGroupType) -> EndoMatrix:
        return cls(group, IntMatrix.identity(group.n))

    def __str__(self) -> str:
        return f"{self.group}: {self.m}"


def is_automorphism(em: EndoMatrix) -> bool:
    """True iff the matrix is invertible mod p (0x0 matrices are)."""
    return _det_mod_p(em.m, em.group.p) != 0


def apply(em: EndoMatrix, x: tuple[int, ...]) -> tuple[int, ...]:
    """Image of the coordinate tuple x, coordinate i reduced mod p^{e_i}."""
    g = em.group
    if len(x) != g.n:
        raise DimensionMismatch(f"expected {g.n} coordinates, got {len(x)}")
    return tuple(
        sum(a * b for a, b in zip(em.m.row(i), x)) % m
        for i, m in enumerate(g.moduli)
    )


def fixed_point_count(em: EndoMatrix) -> Factored:
    """Number of fixed points as a power of p.

    Computed as the index in Z^n of the column lattice of the n x 2n
    block [M - I | diag(p^{e_1}, ..., p^{e_n})]; this equals both
    |ker(Id - phi)| and the number of twisted conjugacy classes of phi.
    """
    return Factored.prime_power(em.group.p, _fixed_point_exponent(em.group, em.m.entries))


def _fixed_point_exponent(g: PGroupType, entries: Sequence[int]) -> int:
    """Exponent of p in the index of fixed_point_count's lattice, for the
    n x n matrix M with these row-major entries; M need not be reduced
    mod p^{e_i}, since the diagonal block absorbs such multiples."""
    n = g.n
    generators = []
    for i, modulus in enumerate(g.moduli):
        row = [*entries[i * n : (i + 1) * n], *[0] * n]
        row[i] -= 1
        row[n + i] = modulus
        generators += row
    index = lattice_index(IntMatrix(n, 2 * n, tuple(generators)))
    nu = 0
    while index % g.p == 0:
        index //= g.p
        nu += 1
    if index != 1:
        raise InvariantViolation("fixed-point index must be a power of p")
    return nu


def reidemeister_number(em: EndoMatrix) -> Factored:
    """Number of twisted conjugacy classes; equals fixed_point_count."""
    return fixed_point_count(em)
