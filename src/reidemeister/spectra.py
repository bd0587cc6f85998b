"""Closed-form spectra, product numbers, and witness automorphisms.

The twisted-class spectrum of a finite abelian p-group of type e is

* the full range {p^0, ..., p^{S}} when p is odd (S = sum of e), and
* {2^m : b + c <= m <= S} when p = 2, where b and c count the b- and
  c-blocks of the type vector.

Both facts are instances of one statement about the product number
Pi(phi) = prod over units i mod p of |Fix(mul_i . phi)|, whose spectrum
over automorphisms is exactly {p^m : b + c <= m <= S}.  For every
admissible m this module builds an explicit block-diagonal automorphism
realizing p^m: a sum of cyclic units 1 -> p^t + 1 and 2x2 pair units
(the pair matrix [[1, 1], [p, 1]], diag(p^s + 1, p^{t-s} + 1), or the
companion of the least irreducible quadratic), whose exponents t are
filled greedily left to right; an a-block of width w that carries 0 is
the companion of the least irreducible of degree w.

Spectra of general finite abelian groups are product sets over the
Sylow components: all divisors d of |A| whose 2-adic valuation is at
least b + c of the Sylow-2 type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Sequence

from .core import Factored, IntMatrix, factorize, is_prime
from .decomposition import Block, abc_decompose
from .endo import EndoMatrix, PGroupType, _fixed_point_exponent, is_automorphism
from .errors import (
    InvariantViolation,
    NotAutomorphism,
    NotPrime,
    OutOfRange,
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


class Spectrum(frozenset):
    """A finite set of positive integers kept in factored form: a frozenset
    of Factored values."""

    __slots__ = ()

    def __new__(cls, values: Iterable[Factored] = ()):
        self = super().__new__(cls, values)
        if not all(isinstance(v, Factored) for v in self):
            raise TypeError("spectrum values must be Factored")
        return self

    @classmethod
    def prime_range(cls, p: int, lo: int, hi: int) -> Spectrum:
        """{p^m : lo <= m <= hi}."""
        return cls(Factored.prime_power(p, m) for m in range(lo, hi + 1))

    @property
    def values(self) -> frozenset[Factored]:
        return frozenset(self)

    def sorted_values(self) -> list[Factored]:
        return sorted(self, key=Factored.to_int)

    def ints(self) -> list[int]:
        return sorted(v.to_int() for v in self)

    def __mul__(self, other: Spectrum) -> Spectrum:
        """Product set {x * y : x in self, y in other}."""
        return Spectrum(x * y for x in self for y in other)

    def __repr__(self) -> str:
        return f"Spectrum({self.ints()})"


@dataclass(frozen=True)
class AbelianGroupType:
    """A finite abelian group given as a multiset of cyclic orders >= 2."""

    cyclic_orders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        orders = tuple(sorted(int(v) for v in self.cyclic_orders))
        if any(v < 2 for v in orders):
            raise OutOfRange(f"cyclic orders must be >= 2, got {orders}")
        object.__setattr__(self, "cyclic_orders", orders)

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_orders)

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
    return Factored.prime_power(em.group.p, _r_pi_exponents(em)[1])


def _r_pi_exponents(em: EndoMatrix) -> tuple[int, int]:
    """Exponents of R(phi) and Pi(phi): R's is Pi's k = 1 lattice index."""
    g, entries = em.group, em.m.entries
    if g.n == 0:  # every multiple fixes the one element
        return 0, 0
    # k*M, unreduced, is a matrix of mul_k . phi: see _fixed_point_exponent
    r = _fixed_point_exponent(g, entries)
    return r, r + sum(_fixed_point_exponent(g, [k * v for v in entries]) for k in range(2, g.p))


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
# Polynomials over Z/p are sequences of coefficients, lowest degree first;
# a monic degree-n polynomial has length n + 1 with last entry 1.  The
# F_p[x] arithmetic is one remainder and one powmod, which Ben-Or's test
# and its one Euclid loop read.


def _poly_rem(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    # f mod g (leading coefficient a unit mod p), zero high coefficients trimmed
    work, dg, inv = [v % p for v in f], len(g) - 1, pow(g[-1], -1, p)
    for i in range(len(work) - 1, dg - 1, -1):
        c = work[i] * inv % p
        if c:
            for j in range(dg + 1):
                work[i - dg + j] = (work[i - dg + j] - c * g[j]) % p
    del work[dg:]
    while work and work[-1] == 0:
        work.pop()
    return work


def _poly_powmod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    # a^e mod f by square and multiply
    def mulmod(u: Sequence[int], v: Sequence[int]) -> list[int]:
        out = [0] * (len(u) + len(v) - 1)
        for i, s in enumerate(u):
            for j, t in enumerate(v):
                out[i + j] += s * t
        return _poly_rem(out, f, p)

    power = [1]
    while e:
        if e & 1:
            power = mulmod(power, a)
        a, e = mulmod(a, a), e >> 1
    return power


def is_irreducible(f: Sequence[int], p: int) -> bool:
    """Ben-Or's test ("Probabilistic algorithms in finite fields", FOCS
    1981) for f of degree n over Z/p: f is irreducible exactly when
    gcd(x^{p^i} - x, f) = 1 for every i <= n / 2, each x^{p^i} mod f the
    p-th power of the one before.  The leading coefficient must be a
    unit mod p."""
    degree = len(f) - 1
    if degree < 1:
        return False
    h = _poly_rem([0, 1], f, p)  # x^{p^i} mod f; raises unless f[-1] is a unit
    for _ in range(degree // 2):
        h = _poly_powmod(h, p, f, p)
        diff = h + [0] * (2 - len(h))
        diff[1] -= 1
        a, b = f, _poly_rem(diff, f, p)
        while b:  # Euclid over Z/p; a ends as a gcd
            a, b = b, _poly_rem(a, b, p)
        if len(a) > 1:
            return False
    return True


def _irreducible_binomials(p: int, n: int) -> Iterator[int]:
    # the c, ascending, with x^n + c irreducible over Z/p for n >= 2
    # (Lidl and Niederreiter, Finite Fields, Thm 3.75): every prime r | n
    # divides p - 1 and -c is no r-th power, and p = 1 mod 4 when 4 | n
    rs = factorize(n)
    if all((p - 1) % r == 0 for r in rs) and (n % 4 or p % 4 == 1):
        yield from (c for c in range(1, p) if all(pow(-c, (p - 1) // r, p) != 1 for r in rs))


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over Z/p,
    ordering candidates by coefficients read from degree n-1 down to 0:
    the binomials x^n + c by arithmetic, then a base-p counter by Ben-Or.

    Returns coefficients lowest degree first, e.g. (1, 1, 1) for the
    polynomial x^2 + x + 1.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if n == 1:
        return (0, 1)
    c = next(_irreducible_binomials(p, n), 0)
    if c:
        return (c,) + (0,) * (n - 1) + (1,)
    candidates = ([k // p**i % p for i in range(n)] + [1] for k in count(p))
    return tuple(next(f for f in candidates if is_irreducible(f, p)))


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


def _fill(total: int, floors: Sequence[int], caps: Sequence[int]) -> list[int]:
    """Raise each floor toward its cap, left to right, until the sum is total."""
    extra = total - sum(floors)
    if not 0 <= extra <= sum(caps) - sum(floors):
        raise InvariantViolation(f"{total} does not fit between floors {floors} and caps {caps}")
    out = []
    for lo, cap in zip(floors, caps):
        take = min(extra, cap - lo)
        out.append(lo + take)
        extra -= take
    return out


def _pair_unit(p: int, t: int, inner: int) -> IntMatrix:
    # 2x2 unit with product-number exponent t; in the diagonal case the
    # second exponent t - s stays at most inner (a b-block's upper value,
    # an a-block's k)
    if t == 0:
        return companion_matrix(find_irreducible(p, 2))
    if t == 1:
        return IntMatrix.from_rows([[1, 1], [p, 1]])
    s = max(1, t - inner)
    return IntMatrix.diagonal((p**s + 1, p ** (t - s) + 1))


def _block_witness(p: int, blk: Block, t: int) -> IntMatrix:
    k, width = blk.values[0], blk.length
    if blk.kind == "c":  # 1 -> p^t + 1, a unit since c-blocks carry t >= 1
        return IntMatrix.diagonal((p**t + 1,))
    if blk.kind == "b":
        return _pair_unit(p, t, k + 1)
    if t == 0:
        return companion_matrix(find_irreducible(p, width))
    odd = width % 2  # one leading cyclic unit of cap k, then pairs of cap 2k
    units = _fill(t, [0] * (odd + width // 2), [k] * odd + [2 * k] * (width // 2))
    parts = [_pair_unit(p, tp, k) for tp in units[odd:]]
    if odd:
        parts.insert(0, IntMatrix.diagonal((p ** units[0] + 1,)))
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
    floors = [0 if blk.kind == "a" else 1 for blk in dec.blocks]
    targets = _fill(m, floors, [sum(blk.values) for blk in dec.blocks])
    parts = [_block_witness(g.p, blk, t) for blk, t in zip(dec.blocks, targets)]
    return EndoMatrix(g, IntMatrix.block_diagonal(parts))


def _witness_r_odd(g: PGroupType, m: int) -> EndoMatrix:
    # diagonal map with twisted class count p^m on an odd-p group:
    # component i multiplies by p^{s_i} + 1 with the s_i filled greedily
    if m < 0 or m > g.total_exponent:
        raise OutOfSpectrum(
            f"exponent {m} outside [0, {g.total_exponent}] for type {g}"
        )
    return EndoMatrix(g, IntMatrix.diagonal(g.p**s + 1 for s in _fill(m, [0] * g.n, g.e)))


def witness_abelian(a: AbelianGroupType, target: Factored) -> dict[int, EndoMatrix]:
    """Per-prime automorphisms whose twisted class counts multiply to the
    target; keys are the primes dividing |A|.  A valuation outside a
    Sylow component's range raises OutOfSpectrum from its witness."""
    sylow = a.sylow()
    if any(q not in sylow for q in target.factorization):
        raise OutOfSpectrum(f"{target} does not divide the group order")
    out: dict[int, EndoMatrix] = {}
    for p, g in sylow.items():
        m = target.nu(p)
        out[p] = witness(g, m) if p == 2 else _witness_r_odd(g, m)
    return out
