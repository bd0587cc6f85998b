"""Closed-form spectra, product numbers, and witness automorphisms.

The twisted-class spectrum of a finite abelian p-group of type e is

* the full range {p^0, ..., p^{S}} when p is odd (S = sum of e), and
* {2^m : b + c <= m <= S} when p = 2, where b and c count the b- and
  c-blocks of the type vector.

Both facts are instances of one statement about the product number
Pi(phi) = prod over units i mod p of |Fix(mul_i . phi)|, whose spectrum
over automorphisms is exactly {p^m : b + c <= m <= S}.  For every
admissible m this module builds an explicit block-diagonal automorphism
realizing p^m, assembled from cyclic maps 1 -> p^t + 1, the pair matrix
[[1, 1], [p, 1]], and companion matrices of irreducible polynomials.

Spectra of general finite abelian groups are product sets over the
Sylow components: all divisors d of |A| whose 2-adic valuation is at
least b + c of the Sylow-2 type.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .core import Factored, IntMatrix, factorize, is_prime
from .decomposition import Block, abc_decompose
from .endo import EndoMatrix, PGroupType, fixed_point_count, is_automorphism, scale
from .errors import (
    InvariantViolation,
    NotAutomorphism,
    NotPrime,
    OutOfSpectrum,
    WrongPrime,
)

__all__ = [
    "Spectrum",
    "AbelianGroupType",
    "product_number",
    "spec_r_odd_p",
    "spec_p",
    "spec_r_2group",
    "spec_r_abelian",
    "witness",
    "witness_abelian",
    "find_irreducible",
    "companion_matrix",
]


class Spectrum:
    """A finite set of positive integers kept in factored form."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[Factored] = ()):
        vals = frozenset(values)
        if not all(isinstance(v, Factored) for v in vals):
            raise TypeError("spectrum values must be Factored")
        self._values: frozenset[Factored] = vals

    @classmethod
    def prime_range(cls, p: int, lo: int, hi: int) -> Spectrum:
        """{p^m : lo <= m <= hi}."""
        return cls(Factored.prime_power(p, m) for m in range(lo, hi + 1))

    @property
    def values(self) -> frozenset[Factored]:
        return self._values

    def sorted_values(self) -> list[Factored]:
        return sorted(self._values, key=Factored.to_int)

    def ints(self) -> list[int]:
        return sorted(v.to_int() for v in self._values)

    def __contains__(self, value: Factored) -> bool:
        return value in self._values

    def __iter__(self) -> Iterator[Factored]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Spectrum) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __mul__(self, other: Spectrum) -> Spectrum:
        """Product set {x * y : x in self, y in other}."""
        return Spectrum(x * y for x in self._values for y in other._values)

    def __repr__(self) -> str:
        return f"Spectrum({self.ints()})"


@dataclass(frozen=True)
class AbelianGroupType:
    """A finite abelian group given as a multiset of cyclic orders >= 2."""

    cyclic_orders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        orders = tuple(sorted(int(v) for v in self.cyclic_orders))
        if any(v < 2 for v in orders):
            raise ValueError(f"cyclic orders must be >= 2, got {orders}")
        object.__setattr__(self, "cyclic_orders", orders)

    @property
    def order(self) -> int:
        n = 1
        for v in self.cyclic_orders:
            n *= v
        return n

    def sylow(self) -> dict[int, PGroupType]:
        """Primary decomposition: one p-group type per prime divisor."""
        per_prime: dict[int, list[int]] = {}
        for m in self.cyclic_orders:
            for p, k in factorize(m).items():
                per_prime.setdefault(p, []).append(k)
        return {
            p: PGroupType(p, tuple(sorted(exps)))
            for p, exps in sorted(per_prime.items())
        }

    def primary_orders(self) -> tuple[int, ...]:
        """Cyclic orders of the primary decomposition, ascending."""
        out = []
        for p, g in self.sylow().items():
            out.extend(p**k for k in g.e)
        return tuple(sorted(out))


def product_number(em: EndoMatrix) -> Factored:
    """Pi(phi): product over i in [1, p-1] of |Fix(mul_i . phi)|."""
    if not is_automorphism(em):
        raise NotAutomorphism("product number is only defined for automorphisms")
    result = Factored.one()
    for i in range(1, em.group.p):
        result = result * fixed_point_count(scale(em, i))
    return result


def spec_r_odd_p(g: PGroupType) -> Spectrum:
    """Twisted-class spectrum of an odd-p abelian p-group: the full
    geometric range {1, p, ..., p^S}."""
    if g.p == 2:
        raise WrongPrime("closed form for odd primes only; use spec_r_2group")
    return Spectrum.prime_range(g.p, 0, g.total_exponent)


def spec_p(g: PGroupType) -> Spectrum:
    """Product-number spectrum over automorphisms: {p^m : b+c <= m <= S}."""
    dec = abc_decompose(g)
    return Spectrum.prime_range(g.p, dec.floor_exponent, g.total_exponent)


def spec_r_2group(g: PGroupType) -> Spectrum:
    """Twisted-class spectrum of a finite abelian 2-group."""
    if g.p != 2:
        raise WrongPrime("closed form for p = 2 only; use spec_r_odd_p")
    return spec_p(g)


def spec_r_abelian(a: AbelianGroupType) -> Spectrum:
    """Twisted-class spectrum of a finite abelian group: the product set
    of the per-Sylow spectra.  Equivalently, all divisors d of |A| with
    2-adic valuation at least b + c of the Sylow-2 type."""
    result = Spectrum([Factored.one()])
    for p, g in a.sylow().items():
        result = result * (spec_r_2group(g) if p == 2 else spec_r_odd_p(g))
    return result


# -- irreducible polynomials and companion matrices -----------------------
#
# Polynomials over Z/p are tuples of coefficients, lowest degree first;
# a monic degree-n polynomial has length n + 1 with last entry 1.


def _poly_rem(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    # remainder of f mod a monic g, coefficients mod p
    work = [v % p for v in f]
    dg = len(g) - 1
    for i in range(len(work) - 1, dg - 1, -1):
        c = work[i]
        if c:
            for j in range(dg + 1):
                work[i - dg + j] = (work[i - dg + j] - c * g[j]) % p
    return work[:dg]


def _monic_polys(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    # ascending in (c_{degree-1}, ..., c_0), the last varying fastest
    for high_first in product(range(p), repeat=degree):
        yield high_first[::-1] + (1,)


def _poly_mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return _poly_rem(out, f, p)


def _trimmed(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _x_power_minus_x(f: Sequence[int], p: int, k: int) -> list[int]:
    """x^{p^k} - x mod the monic f, without trailing zero coefficients."""
    h = [0, 1]
    for _ in range(k):
        power, base, e = [1], h, p
        while e:
            if e & 1:
                power = _poly_mulmod(power, base, f, p)
            base = _poly_mulmod(base, base, f, p)
            e >>= 1
        h = power
    diff = h + [0] * (2 - len(h))
    diff[1] -= 1
    return _trimmed(_poly_rem(diff, f, p))


def is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin's test for f of degree n over Z/p, made monic first:
    x^{p^n} = x mod f, and gcd(x^{p^{n/q}} - x, f) = 1 for every prime
    q dividing n.  The leading coefficient must be a unit mod p."""
    degree = len(f) - 1
    if degree < 1:
        return False
    inv = pow(f[-1], -1, p)
    f = [v * inv % p for v in f]
    if _x_power_minus_x(f, p, degree):
        return False
    for q in factorize(degree):
        a, b = f, _x_power_minus_x(f, p, degree // q)
        while b:  # Euclid over Z/p; a ends as the monic gcd
            inv = pow(b[-1], -1, p)
            a, b = [v * inv % p for v in b], a
            b = _trimmed(_poly_rem(b, a, p))
        if len(a) > 1:
            return False
    return True


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over Z/p,
    ordering candidates by coefficients read from degree n-1 down to 0.

    Returns coefficients lowest degree first, e.g. (1, 1, 1) for the
    polynomial x^2 + x + 1.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    for f in _monic_polys(p, n):
        if is_irreducible(f, p):
            return f
    raise InvariantViolation("irreducible polynomials exist for every degree")


def companion_matrix(f: Sequence[int]) -> IntMatrix:
    """Companion matrix of a monic polynomial: ones on the subdiagonal,
    last column the negated coefficients."""
    coeffs = [int(v) for v in f]
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    n = len(coeffs) - 1
    grid = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        grid[i + 1][i] = 1
    for i in range(n):
        grid[i][n - 1] = -coeffs[i]
    return IntMatrix.from_rows(grid)


# -- witness construction --------------------------------------------------


def _cyclic_witness(p: int, t: int) -> IntMatrix:
    # 1 -> p^t + 1; a unit multiplier mod p whenever t >= 1 or p is odd
    return IntMatrix(1, 1, (p**t + 1,))


def _pair_matrix(p: int) -> IntMatrix:
    return IntMatrix.from_rows([[1, 1], [p, 1]])


def _two_cyclic(p: int, s1: int, s2: int) -> IntMatrix:
    return IntMatrix.diagonal((p**s1 + 1, p**s2 + 1))


def _b_block_witness(p: int, blk: Block, t: int) -> IntMatrix:
    v = blk.values[0]
    if t == 1:
        return _pair_matrix(p)
    s1 = max(1, t - (v + 1))
    return _two_cyclic(p, s1, t - s1)


def _a_block_witness(p: int, blk: Block, t: int) -> IntMatrix:
    k = blk.values[0]
    width = blk.length
    if t == 0:
        return companion_matrix(find_irreducible(p, width))
    parts = []
    remaining = t
    if width % 2 == 1:
        s0 = min(remaining, k)
        parts.append(_cyclic_witness(p, s0))
        remaining -= s0
    for _ in range(width // 2):
        tp = min(remaining, 2 * k)
        remaining -= tp
        if tp == 0:
            parts.append(companion_matrix(find_irreducible(p, 2)))
        elif tp == 1:
            parts.append(_pair_matrix(p))
        else:
            s1 = max(1, tp - k)
            parts.append(_two_cyclic(p, s1, tp - s1))
    return IntMatrix.block_diagonal(parts)


def witness(g: PGroupType, m: int) -> EndoMatrix:
    """An automorphism with product number exactly p^m (hence twisted
    class count 2^m when p = 2), block-diagonal along the blocks of e.

    Every b- and c-block contributes at least exponent one, a-blocks may
    contribute zero, and a block of values summing to s can carry at
    most s; the target is distributed greedily left to right.
    """
    dec = abc_decompose(g)
    lo = dec.floor_exponent
    hi = g.total_exponent
    if m < lo or m > hi:
        raise OutOfSpectrum(
            f"exponent {m} outside [{lo}, {hi}] for type {g}"
        )
    minimums = [0 if blk.kind == "a" else 1 for blk in dec.blocks]
    capacities = [sum(blk.values) for blk in dec.blocks]
    targets = list(minimums)
    extra = m - sum(minimums)
    for idx in range(len(targets)):
        take = min(extra, capacities[idx] - targets[idx])
        targets[idx] += take
        extra -= take
    if extra:
        raise InvariantViolation(f"exponent {m} left {extra} undistributed over the blocks")

    p = g.p
    parts = []
    for blk, t in zip(dec.blocks, targets):
        if blk.kind == "c":
            parts.append(_cyclic_witness(p, t))
        elif blk.kind == "b":
            parts.append(_b_block_witness(p, blk, t))
        else:
            parts.append(_a_block_witness(p, blk, t))
    return EndoMatrix(g, IntMatrix.block_diagonal(parts))


def _witness_r_odd(g: PGroupType, m: int) -> EndoMatrix:
    # diagonal map with twisted class count p^m on an odd-p group:
    # component i multiplies by p^{s_i} + 1 with the s_i filled greedily
    if m < 0 or m > g.total_exponent:
        raise OutOfSpectrum(
            f"exponent {m} outside [0, {g.total_exponent}] for type {g}"
        )
    p = g.p
    remaining = m
    diag = []
    for ei in g.e:
        s = min(remaining, ei)
        remaining -= s
        diag.append(p**s + 1)
    return EndoMatrix(g, IntMatrix.diagonal(diag))


def witness_abelian(a: AbelianGroupType, target: Factored) -> dict[int, EndoMatrix]:
    """Per-prime automorphisms whose twisted class counts multiply to the
    target; keys are the primes dividing |A|."""
    sylow = a.sylow()
    for q, k in target.factorization.items():
        if q not in sylow or k > sylow[q].total_exponent:
            raise OutOfSpectrum(f"{target} does not divide the group order")
    if 2 in sylow:
        floor = abc_decompose(sylow[2]).floor_exponent
        if target.nu(2) < floor:
            raise OutOfSpectrum(
                f"2-adic valuation of {target} is below the floor {floor}"
            )
    out: dict[int, EndoMatrix] = {}
    for p, g in sylow.items():
        m = target.nu(p)
        out[p] = witness(g, m) if p == 2 else _witness_r_odd(g, m)
    return out
