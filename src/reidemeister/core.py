"""Exact integer matrix arithmetic.

Everything here runs on arbitrary-precision Python integers: lattice
indices and determinants mod p never round.  Matrices
are immutable row-major tuples, so values can be shared freely between
threads and used as dict keys.

The text format used by the CLI and the test fixtures writes rows
separated by ``;`` and entries by ``,`` (whitespace is ignored), e.g.
``1,1;2,1`` for a 2x2 matrix.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import count
from math import gcd, prod
from typing import Iterable, Mapping

from .errors import (
    DimensionMismatch,
    MatrixFormatError,
    NotPrime,
    NumberTooLarge,
    RankDeficient,
)

__all__ = [
    "IntMatrix",
    "Factored",
    "lattice_index",
    "det_mod_p",
    "parse_matrix",
    "format_matrix",
    "decimal",
    "is_prime",
    "factorize",
    "PRIMALITY_LIMIT",
]


# Sorenson and Webster, "Strong pseudoprimes to twelve prime bases"
# (Math. Comp. 2017): the least strong pseudoprime to all of the first 13
# prime bases, so Miller-Rabin with them is exact below it
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 prime bases.  Raises
    NumberTooLarge for n >= PRIMALITY_LIMIT without a factor <= 41."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return True
    if n >= PRIMALITY_LIMIT:
        raise NumberTooLarge(f"{n} is at or above the proven primality bound {PRIMALITY_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper factor of a composite n with no prime factor <= 41, by
    Brent's variant of Pollard's rho ("An improved Monte Carlo
    factorization algorithm", BIT 1980), with x -> x^2 + c from x = 2."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product hit 0 mod n; step back one by one
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent},
    primes ascending: trial division by the primes up to 41, then
    Miller-Rabin and Pollard-Brent on the cofactors (see is_prime for
    the bound)."""
    if n < 1:
        raise ValueError(f"cannot factorize non-positive integer {n}")
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            pending += [d, m // d]
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch(f"negative shape {self.rows}x{self.cols}")
        entries = tuple(map(int, self.entries))
        if len(entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(entries)}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> IntMatrix:
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(n, m, tuple(v for r in rows for v in r))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, values: Iterable[int]) -> IntMatrix:
        vals = list(values)
        n = len(vals)
        return cls(n, n, tuple(vals[i] if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def block_diagonal(cls, parts: Iterable[IntMatrix]) -> IntMatrix:
        parts = list(parts)
        if any(p.rows != p.cols for p in parts):
            raise DimensionMismatch("block-diagonal assembly needs square blocks")
        n = sum(p.rows for p in parts)
        grid = [[0] * n for _ in range(n)]
        off = 0
        for p in parts:
            for i in range(p.rows):
                for j in range(p.cols):
                    grid[off + i][off + j] = p[i, j]
            off += p.rows
        return cls.from_rows(grid)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def map_entries(self, fn) -> IntMatrix:
        return IntMatrix(self.rows, self.cols, tuple(fn(v) for v in self.entries))

    def __str__(self) -> str:
        return format_matrix(self)


def parse_matrix(text: str) -> IntMatrix:
    """Parse the ``;``/``,`` matrix text format; empty text is the 0x0 matrix."""
    stripped = "".join(text.split())
    if not stripped:
        return IntMatrix(0, 0, ())
    rows = []
    for part in stripped.split(";"):
        cells = part.split(",")
        try:
            rows.append([int(c) for c in cells])
        except ValueError as exc:
            raise MatrixFormatError(f"bad matrix entry in {part!r}") from exc
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MatrixFormatError("rows have differing lengths")
    return IntMatrix.from_rows(rows)


def format_matrix(m: IntMatrix) -> str:
    return ";".join(",".join(decimal(v) for v in m.row(i)) for i in range(m.rows))


def decimal(v: int | Factored) -> str:
    """Decimal text of v.

    Python refuses to print an int of more than
    ``sys.get_int_max_str_digits()`` digits (4300 by default); past that
    this raises NumberTooLarge, naming a Factored value in factored form.
    """
    try:
        return str(int(v))
    except ValueError:
        name = str(v) if isinstance(v, Factored) else f"an integer of {v.bit_length()} bits"
        raise NumberTooLarge(
            f"{name} has more than {sys.get_int_max_str_digits()} decimal digits, "
            "the limit of int-to-str conversion"
        ) from None


class Factored:
    """A positive integer kept in factored form {prime: exponent}.

    The empty factorization is 1.  Values multiply by merging exponents,
    so spectrum entries like 2**40 never pass through fixed-width
    arithmetic until rendered.
    """

    __slots__ = ("_pairs",)

    def __init__(self, factorization: Mapping[int, int] | None = None):
        pairs = []
        for p, k in sorted((factorization or {}).items()):
            p = int(p)
            k = int(k)
            if k == 0:
                continue
            if not is_prime(p):
                raise NotPrime(f"{p} is not prime")
            if k < 0:
                raise ValueError(f"negative exponent {k} for prime {p}")
            pairs.append((p, k))
        self._pairs: tuple[tuple[int, int], ...] = tuple(pairs)

    @classmethod
    def one(cls) -> Factored:
        return cls()

    @classmethod
    def prime_power(cls, p: int, k: int) -> Factored:
        return cls({p: k})

    @classmethod
    def from_int(cls, n: int) -> Factored:
        return cls(factorize(n))

    @property
    def factorization(self) -> dict[int, int]:
        return dict(self._pairs)

    def nu(self, p: int) -> int:
        """p-adic valuation: the exponent of p, 0 when p does not occur."""
        for q, k in self._pairs:
            if q == p:
                return k
        return 0

    def to_int(self) -> int:
        return prod(p**k for p, k in self._pairs)

    def __int__(self) -> int:
        return self.to_int()

    def __mul__(self, other: Factored) -> Factored:
        merged = self.factorization
        for p, k in other._pairs:
            merged[p] = merged.get(p, 0) + k
        return Factored(merged)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Factored) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __str__(self) -> str:
        if not self._pairs:
            return "1"
        return "*".join(f"{p}^{k}" if k > 1 else str(p) for p, k in self._pairs)

    def __repr__(self) -> str:
        return f"Factored({dict(self._pairs)!r})"


def lattice_index(generators: IntMatrix) -> int:
    """Index in Z^n of the lattice spanned by the columns of an n x m
    matrix (m >= n); equals the product of the Smith invariant factors.

    Computed as |det| of a triangular column basis (Cohen, "A Course in
    Computational Algebraic Number Theory", 2.4), without Smith's
    divisibility chain: in each row, unimodular extended-Euclid steps
    fold the columns that are non-zero there into one basis column.
    Raises RankDeficient when the columns do not span a finite-index
    sublattice.
    """
    n, m = generators.rows, generators.cols
    if m < n:
        raise RankDeficient(f"{m} columns cannot span a rank-{n} lattice")
    # each column as its entries from the current row down
    cols = [generators.entries[j::m] for j in range(m)]
    index = 1
    for _ in range(n):
        pivot, rest = None, []
        for c in cols:  # in column order: the first live column pivots
            if not c[0]:
                rest.append(c)
            elif pivot is None:
                pivot = c
            elif c[0] % pivot[0] == 0:
                q = c[0] // pivot[0]
                rest.append([t - q * s for s, t in zip(pivot, c)])
            else:
                # unimodular step to x*pivot + y*c (top g) and (a*c - b*pivot) / g (top 0)
                a, b = pivot[0], c[0]
                g = gcd(a, b)
                x = pow(a // g, -1, abs(b // g))
                y = (g - x * a) // b
                rest.append([a // g * t - b // g * s for s, t in zip(pivot, c)])
                pivot = [x * s + y * t for s, t in zip(pivot, c)]
        if pivot is None:
            raise RankDeficient("columns span a lattice of deficient rank")
        index *= abs(pivot[0])
        cols = [c[1:] for c in rest]
    return index


def det_mod_p(m: IntMatrix, p: int) -> int:
    """Determinant of a square matrix reduced into [0, p) for prime p."""
    if m.rows != m.cols:
        raise DimensionMismatch(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    a = [[v % p for v in m.row(i)] for i in range(n)]
    det = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        pivot = a[k][k]
        det = det * pivot % p
        inv = pow(pivot, -1, p)
        for i in range(k + 1, n):
            if a[i][k]:
                factor = a[i][k] * inv % p
                a[i] = [(x - factor * y) % p for x, y in zip(a[i], a[k])]
    return det % p
