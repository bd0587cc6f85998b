"""Vectorized exhaustive sweeps over canonical endomorphism matrices.

A cell (p, e) has up to about 10^6 canonical endomorphisms, too many to
build one EndoMatrix at a time.  Both walks decode parameter indices in
numpy chunks that ``_chunks`` alone sizes (the trivial group is n = 0):
``triple_check`` walks every endomorphism (``_walk``) and counts its
fixed points three ways, ``sweep_cell`` only the automorphisms.  Every
stack is batch-last, (n, n, B), from ``_decode`` on: the stages run along
contiguous rows of B entries, and the per-object loops read matrix b as
[:, :, b].  The element kernel turns a chunk into one (B, |A|) table of
codes, a row of |A| elements per matrix.

p | M_ij when e_i > e_j, so mod p a canonical matrix M is block upper
triangular over the runs of equal exponents (Hillar and Rhea, Amer.
Math. Monthly 2007): it is invertible exactly when each diagonal block
B is, and the residues of the block entries, the residue pattern,
decide that.  The walk keeps each pattern whose blocks have a unit
determinant mod p and adds every value of the other, free, digits.
kM - I has the same shape, so |Fix(kM)| = 1 exactly when every k*B - I
is invertible mod p.  A multiplier k is live for a pattern when some
k*B - I is singular, that is when 1/k is an eigenvalue of B mod p.
``_live`` keeps one rule per type: when every diagonal block is 1x1 it
takes k = 1/r from each block r, otherwise it tests every k, which finds
the live k of the 1x1 blocks too.  A pattern has at most n live
multipliers, every other k has exponent 0, and ``_fix_exponents`` runs
on the live (row, k) pairs only.  The rows walked are checked against
the Hillar-Rhea count.

All arithmetic stays exact: ``_product_bound`` bounds every intermediate
of the stages, ``_stack_dtype`` picks int32 or int64 stacks from it,
every reduction is ``_reduce`` (a mask at powers of two), the element
kernel adds one base per block of |A| matrices to a cached slice of
last-row codes, in int32 under the group order cap
(``_element_counts``), the elimination keys pivots by
valuation, divides only exactly (by shifts, or by inverses mod 2^w) and
reads its last two valuations from a 2x2 determinant below p^{2E}, and
cells past the int64 bounds of ``batchable`` raise BudgetExceeded
like cells over the enumeration budget.  A deterministic sample of every
cell, automorphisms or not, is re-checked one matrix at a time: in
``sweep_cell`` by ``det_mod_p``, ``lattice_index`` over all p - 1 unit
multiples (k = 1 gives R) and ``restrict`` plus ``_column_reports``; in
``triple_check`` by the lattice route and the element-level numpy counts
of ``oracle``, which share no code with the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator

import numpy as np

from .core import IntMatrix
from .decomposition import _column_reports, _subgroup_type, abc_decompose, restrict
from .endo import EndoMatrix, PGroupType, fixed_point_count, is_automorphism
from .errors import BudgetExceeded, InvariantViolation
from .oracle import (
    _check_endo_budget,
    _check_order,
    _hillar_rhea_aut_count,
    brute_fixed_points,
    canonical_parameters,
    endomorphism_count,
    twisted_class_count,
)
from .spectra import _r_pi_exponents

_INT64_SAFE = 2**62
SWEEP_SAMPLES = 48  # per-object re-checks per sweep_cell
TRIPLE_SAMPLES = 24  # per-object re-checks per triple_check


def _product_bound(g: PGroupType) -> int:
    """Bound on |x| for every intermediate of the stages on a stack: the
    products of the elimination stay below p^{2E}, and its closing 2x2
    determinant ad - bc lies in (-p^{2E}, p^{2E}).  With n = 1 there is no
    elimination and the largest product is the unit scaling k*M < p^{E+1}.
    The packed pivot keys key * n^2 + position of ``_fix_exponents`` stay
    below (p^E + 1) n^2: a key is 2^u <= 2^E at p = 2, the valuation u <= E
    at odd p, whose exact divisions wrap mod 2^w into quotients below p^E."""
    largest = g.p ** max(g.e, default=0)
    return max(largest * (largest if g.n > 1 else g.p), (largest + 1) * g.n**2)


def batchable(g: PGroupType) -> bool:
    """True when every intermediate of the batched pipeline fits int64:
    the endomorphism indices that _decode splits, and the products of
    the stages."""
    return _product_bound(g) < _INT64_SAFE and endomorphism_count(g) < _INT64_SAFE


def _reduce(a: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """a mod m for a Python int m > 0.  At a power of two it is the mask
    a & (m - 1), which in two's complement is a mod m for negative a too.
    Elsewhere it is a - (a // m) * m: numpy divides by a scalar with a
    multiply and shift (Granlund and Montgomery, PLDI 1994) but runs ``%``
    as one hardware division per element, about ten times slower.
    (a // m) * m lies in (a - m, a], and with |a| < p^{2E}, m <= p^E it
    keeps the stack's dtype: p^{2E} + p^E < 2^31 whenever p^{2E} < 2^31.
    For a >= 0, as the packed pivot keys and their positions, it lies in [0, a].
    The closing determinant of ``_fix_exponents`` is reduced mod m = p^{2E}:
    as |a| < m, (a // m) * m is -m or 0, which fits too.
    Writes into ``out`` when given, which must be a temporary of the
    caller, never a view of its input."""
    if m & (m - 1) == 0:
        return np.bitwise_and(a, m - 1, out=out)
    q = a // m
    q *= m
    return np.subtract(a, q, out=out)


def _check_cell(g: PGroupType, budget) -> int:
    total = _check_endo_budget(g, budget)
    if not batchable(g):
        raise BudgetExceeded(f"cell {g} exceeds the int64 bounds of the batched engine")
    return total


def _support(histogram: tuple[int, ...]) -> frozenset[int]:
    return frozenset(v for v, count in enumerate(histogram) if count)


@dataclass(frozen=True)
class CellReport:
    """One full sweep over the automorphisms of a cell.  Bin v of
    ``r_histogram`` (``pi_histogram``) counts the automorphisms with
    R = p^v (Pi = p^v)."""

    group: PGroupType
    endo_count: int
    r_histogram: tuple[int, ...]
    pi_histogram: tuple[int, ...]
    structure_violations: int
    samples_checked: int
    samples_ok: bool

    @property
    def auto_count(self) -> int:
        return sum(self.r_histogram)

    @property
    def r_exponents(self) -> frozenset[int]:
        return _support(self.r_histogram)

    @property
    def pi_exponents(self) -> frozenset[int]:
        # the identity is an automorphism of every cell, so this is not empty
        return _support(self.pi_histogram)

    @property
    def pi_min(self) -> int:
        return min(self.pi_exponents)

    @property
    def pi_max(self) -> int:
        return max(self.pi_exponents)


@dataclass(frozen=True)
class TripleReport:
    """Elementwise agreement of the three fixed-point counting routes
    (brute iteration, image counting, lattice index) over every
    canonical endomorphism of a cell."""

    group: PGroupType
    endo_count: int
    mismatches: int
    samples_checked: int
    samples_ok: bool


def _batch(mats: np.ndarray, n: int) -> int:
    """B of an (n, n, B) stack.  Other shapes raise: a (B, n, n) one gives wrong results."""
    if mats.ndim != 3 or mats.shape[:2] != (n, n):
        raise InvariantViolation(f"the stages take an (n, n, B) stack, n = {n}, not {mats.shape}")
    return mats.shape[2]


def _batch_det(mats: np.ndarray) -> np.ndarray:
    """Exact int64 determinants of an (n, n, B) integer stack, n >= 1: a
    Laplace expansion from the bottom row up that keeps the minors of the
    last k rows by column set (Rote, "Division-free algorithms for the
    determinant and the Pfaffian", 2001), n * 2^(n-1) - n products.  With
    entries in (-p, p) a k-minor and its partial sums are below k! * p^k; a
    batchable cell has p^(n^2) <= its endomorphism count < 2^62, which
    keeps n! * p^n below 2^33 for n >= 2 (n = 1 takes no product)."""
    n = len(mats)
    _batch(mats, n)
    minors = {(c,): mats[n - 1, c] for c in range(n)}
    for k in range(2, n + 1):
        row, below, minors = mats[n - k], minors, {}
        for cols in combinations(range(n), k):
            det = np.multiply(row[cols[0]], below[cols[1:]], dtype=np.int64)
            for j in range(1, k):
                term = np.multiply(row[cols[j]], below[cols[:j] + cols[j + 1 :]], dtype=np.int64)
                if j % 2:
                    det -= term
                else:
                    det += term
            minors[cols] = det
    return minors[tuple(range(n))].astype(np.int64, copy=False)


def _invertible_mod_p(mats: np.ndarray, exps, p: int) -> np.ndarray:
    """Per matrix of an (n, n, B) stack: invertible mod p, given p | M_ij when exps[i] > exps[j]."""
    exps = np.asarray(exps)
    ok = np.ones(_batch(mats, len(exps)), dtype=bool)
    for v in np.unique(exps):
        idx = np.flatnonzero(exps == v)
        block = mats[idx[:, None], idx]  # an (m, m, B) copy, reduced in place
        _reduce(block, p, out=block)
        ok &= _reduce(_batch_det(block), p) != 0
    return ok


def _weights(radices) -> np.ndarray:
    """Place values of a mixed-radix number whose last digit varies fastest."""
    weights = np.ones(len(radices), dtype=np.int64)
    for k in range(len(radices) - 2, -1, -1):
        weights[k] = weights[k + 1] * radices[k + 1]
    return weights


def _decode(indices: np.ndarray, strides, counts, n: int) -> np.ndarray:
    """Map endomorphism indices to an (n, n, B) stack of canonical matrices, in int64."""
    strides, counts = np.asarray(strides, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    params = (indices[None, :] // _weights(counts)[:, None]) % counts[:, None]
    return (params * strides[:, None]).reshape(n, n, len(indices))


@lru_cache(maxsize=None)
def _inverse_powers(p: int, cap: int, words: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """(p^j)^{-1} mod 2^w and (2^w - 1) // p^j for j <= cap, odd p, as w-bit
    unsigned ``words``: a word a is divisible by p^j exactly when a (p^j)^{-1}
    mod 2^w <= (2^w - 1) // p^j, and then that product is a / p^j (Granlund
    and Montgomery, PLDI 1994)."""
    modulus = 1 << (8 * words.itemsize)
    inverses = [pow(p, -j, modulus) for j in range(cap + 1)]
    limits = [(modulus - 1) // p**j for j in range(cap + 1)]
    return np.array(inverses, dtype=words), np.array(limits, dtype=words)


def _valuations(a: np.ndarray, p: int, cap: int) -> np.ndarray:
    """min(v_p(a), cap) as uint8 (cap < 256), cap on 0, per entry of a C-contiguous
    non-negative int32 or int64 array at odd p: the count of j <= cap with p^j | a,
    by ``_inverse_powers`` on the entries' bits as unsigned words."""
    words = np.dtype(f"u{a.itemsize}")
    inverses, limits = _inverse_powers(p, cap, words)
    quotients = a.view(words).copy()
    divisible = np.empty(a.shape, dtype=bool)
    count = np.zeros(a.shape, dtype=np.uint8)
    for j in range(1, cap + 1):
        quotients *= inverses[1]  # a * (p^j)^{-1} mod 2^w
        np.less_equal(quotients, limits[j], out=divisible)
        count += divisible.view(np.uint8)
    return count


@lru_cache(maxsize=None)
def _closing_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(bits, positions): a pivot at r * n + c adds bits[r * n + c] = 2^r +
    2^{n + c} to a mask of 2n bits (n <= 7 in batchable cells), and
    positions[:, mask] are the flat positions of the 2x2 block that n - 2
    pivots with those marks leave, row by row."""
    bits = np.array([1 << r | 1 << (n + c) for r in range(n) for c in range(n)], dtype=np.intp)
    positions = np.zeros((4, 4**n), dtype=np.intp)
    for (r0, r1), (c0, c1) in product(combinations(range(n), 2), repeat=2):
        mask = 4**n - 1 - bits[r0 * n + c0] - bits[r1 * n + c1]
        positions[:, mask] = [r0 * n + c0, r0 * n + c1, r1 * n + c0, r1 * n + c1]
    return bits, positions


def _valuation_keys(a: np.ndarray, p: int, cap: int) -> np.ndarray:
    """Keys that order the entries of a C-contiguous array in [0, p^cap) by
    u = min(v_p(a), cap), cap on 0: 2^u at p = 2, the lowest set bit of
    a | 2^cap, and u at odd p, by ``_valuations``."""
    if p != 2:
        return _valuations(a, p, cap)
    keys = a | (1 << cap)
    keys &= -keys
    return keys


def _key_valuations(keys: np.ndarray, p: int) -> np.ndarray:
    """The u of ``_valuation_keys``: 2^u = 0.5 * 2^{u + 1} at p = 2."""
    return np.frexp(keys)[1] - 1 if p == 2 else keys


def _fix_exponents(mats: np.ndarray, g: PGroupType, multiplier) -> np.ndarray:
    """Exponent of |Fix(mul_k . phi)| for an (n, n, B) stack of matrices,
    with one multiplier k for the stack or an array of one per matrix.  |Fix|
    is the index of the column lattice of [kM - I | diag(p^{e_i})]; scaling
    row i by p^{E - e_i}, E = e_n, makes it [N | p^E I], so the exponent is
    the sum of the Smith valuations of N over Z/p^E minus sum(E - e_i).
    All but two come from n - 2 steps of a batched valuation-pivot
    elimination (Storjohann and Mulders, ESA 1998): clear the column of an
    entry a of least valuation u with the inverse-free (a / p^u) row_i -
    (a_ic / p^u) row_r, drop the pivot row and column, and add u.

    The rows and columns no pivot used hold a 2x2 block [[a, b], [c, d]],
    over Z_p of Smith form diag(p^{s1}, p^{s2}) with s1 its least entry
    valuation and s1 + s2 = v(ad - bc) (Smith 1861); mod p^E each s_i is
    capped at E.  With t1 = min(s1, E) and t = min(v(ad - bc), 2E) the
    capped pair sums to min(t, t1 + E): s1 + s2 when below 2E, else 2E if
    s1 >= E and s1 + E if s1 < E < s2.  A 1x1 [a] has min(v(a), E).

    The entries stay in [0, p^E).  The pivot key of an entry a is its
    valuation u = min(v(a), E), E on a = 0: at p = 2 the lowest set bit
    2^u of a | 2^E, at odd p u itself (``_valuation_keys``).  Every entry of
    the pivot column is divisible by p^u, since used rows are zero and the
    pivot has the least u of the active submatrix, so the divisions by p^u
    are exact: shifts at p = 2, products with (p^u)^{-1} mod 2^w at odd p.

    The elimination works on a C-contiguous (n, n, B) copy, so every
    reduction, gather and update runs along contiguous rows of B entries.
    The pivot is the least packed key key * n^2 + position over the (n^2,
    B) view: the first entry of least valuation in row-major order, the
    choice of an argmin over each matrix.  ``_closing_tables`` maps the
    rows and columns of the pivots to the positions of the block."""
    n, p = g.n, g.p
    top_exp = max(g.e, default=0)
    top = p**top_exp
    scale = top // np.array(g.moduli, dtype=mats.dtype)
    batch, size = _batch(mats, n), n * n
    # reducing row i mod p^{e_i} and then scaling it by p^{E - e_i} is
    # the same as scaling first and reducing mod p^E
    multiplier = np.atleast_1d(np.asarray(multiplier, dtype=mats.dtype))
    work = np.empty((n, n, batch), dtype=mats.dtype)
    np.multiply(mats, np.multiply.outer(scale, multiplier)[:, None], out=work)
    work -= np.diag(scale)[:, :, None]
    _reduce(work, top, out=work)
    flat, entries = work.reshape(size, batch), work.reshape(-1)
    offset = sum(top_exp - v for v in g.e)
    if n < 2:  # [a] has the one valuation min(v(a), E), and [] none
        keys = _valuation_keys(flat, p, top_exp)
        return _key_valuations(keys, p).sum(axis=0, dtype=np.int64) - offset
    positions = np.arange(size, dtype=mats.dtype)[:, None]
    # entry (i, j) of matrix b is entries[(i * n + j) * B + b]
    lanes = np.arange(batch)
    across = np.arange(n)[:, None] * batch  # j * B: along a row
    down = across * n  # i * n * B: down a column
    if p != 2:  # the entries' bits as unsigned words, whose products wrap mod 2^w
        words = np.dtype(f"u{work.itemsize}")
        inverses = _inverse_powers(p, top_exp, words)[0]
    exps = np.zeros(batch, dtype=np.int64)
    bits, block_at = _closing_tables(n)
    used = np.zeros(batch, dtype=np.intp)
    for _ in range(n - 2):
        keys = _valuation_keys(flat, p, top_exp).astype(flat.dtype, copy=False)
        keys *= size
        keys += positions
        # used rows and columns are zero, so they have u = E and are
        # never chosen while a live entry has a smaller u
        least = keys.min(axis=0)
        key, at = least // size, _reduce(least, size)
        u = _key_valuations(key, p)
        exps += u
        used |= bits.take(at)
        at = lanes + at.astype(lanes.dtype) * batch  # (r * n + c) * B + b
        col = _reduce(at, n * batch)  # c * B + b
        if p == 2:
            unit, factors = entries.take(at) >> u, entries.take(down + col) >> u
        else:
            unit, factors = (
                (entries.view(words).take(i) * inverses[u]).view(work.dtype) for i in (at, down + col)
            )
        pivot_row = entries.take(across + (at - col + lanes))
        # clears column c everywhere, the pivot row included
        work *= unit
        work -= factors[:, None] * pivot_row
        _reduce(work, top, out=work)
    # the block's entries are at positions * B + lanes, as in the pivot steps
    block = entries.take((block_at * batch).take(used, axis=1) + lanes) if n > 2 else flat
    det = block[0] * block[3] - block[1] * block[2]
    t = _valuation_keys(_reduce(det, top * top), p, 2 * top_exp)
    t1 = _valuation_keys(block, p, top_exp).min(axis=0)
    # the key of min(t, t1 + E); at p = 2 that of t1 + E is 2^{t1} 2^E
    closing = np.minimum(t, t1 * top if p == 2 else t1 + top_exp)
    return exps + _key_valuations(closing, p) - offset


def _structure_ok(mats: np.ndarray, g: PGroupType) -> np.ndarray:
    """Per matrix of an (n, n, B) stack: conjugate by diag(p^{d_i}), then
    check that the result is a valid invertible matrix on the subgroup type
    e - d and that every b/c-block start column c[:, j] is zero mod p off
    the diagonal and a unit on it, along contiguous rows of B entries."""
    n, p = g.n, g.p
    ok = np.ones(_batch(mats, n), dtype=bool)
    dec = abc_decompose(g)
    p_d = np.array([p**int(v) for v in dec.d], dtype=mats.dtype)
    sub = _subgroup_type(g, dec.d)  # the type e - d
    c = mats * p_d[None, :, None]
    for i, d in enumerate(dec.d):
        if d:  # by a Python-int scalar: see _reduce
            c[i] //= p**d

    for k, divisor in sub._divisors:
        ok &= _reduce(c[divmod(k, n)], divisor) == 0
    # d(e) is characteristic, so sub.e is nondecreasing and the loop above gives p | M_ij
    ok &= _invertible_mod_p(c, sub.e, p)
    for j in [blk.start for blk in dec.blocks if blk.kind != "a"]:  # b/c-block starts
        col = _reduce(c[:, j], p)
        ok &= col[j] != 0
        col[j] = 0
        ok &= ~col.any(axis=0)
    return ok


def _sample_indices(total: int, quota: int) -> np.ndarray:
    if total <= quota:
        return np.arange(total, dtype=np.int64)
    return np.unique(np.linspace(0, total - 1, quota).astype(np.int64))


def _to_endo(g: PGroupType, mat: np.ndarray) -> EndoMatrix:
    return EndoMatrix(g, IntMatrix(g.n, g.n, tuple(mat.reshape(-1).tolist())))


def _stack_dtype(g: PGroupType):
    """int32 when every intermediate of the stages fits it, int64 otherwise."""
    return np.int32 if _product_bound(g) < 2**31 else np.int64


def _chunks(
    g: PGroupType, strides, counts, total: int, cap: int
) -> tuple[np.ndarray, list[tuple[int, int, np.ndarray]]]:
    """Digit-aligned chunks of the first ``total`` indices of the parameter
    space with these row-major ``strides`` and ``counts`` (powers of p).
    A chunk of a * p^K <= cap indices (a < p) that starts at a multiple of
    it inside one multiple of p^{K+1} never carries into digit K + 1: it
    is the first chunk, decoded once, plus its decoded start.  Returns
    (inner, chunks): chunk (start, length, shift) is the decode of indices
    start .. start + length - 1, which is inner[:, :, :length] + shift, the
    shift an (n, n, 1) stack, at ``_stack_dtype``."""
    limit = min(cap, total)
    step = 1  # p^K, the largest power of p up to limit
    while step * g.p <= limit:
        step *= g.p
    width = limit // step * step  # a * p^K with a < p
    cycle = min(step * g.p, total)
    dtype = _stack_dtype(g)
    inner = _decode(np.arange(width, dtype=np.int64), strides, counts, g.n).astype(dtype)
    starts = [c + s for c in range(0, total, cycle) for s in range(0, cycle, width)]
    shifts = _decode(np.array(starts, dtype=np.int64), strides, counts, g.n).astype(dtype)
    return inner, [
        (start, min(width, cycle - start % cycle), shifts[:, :, k, None])
        for k, start in enumerate(starts)
    ]


def _walk(
    g: PGroupType, total: int, quota: int, cap: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Decode all ``total`` canonical endomorphisms of g in the chunks of
    at most ``cap`` rows that ``_chunks`` cuts, stably sorted by their
    offsets start mod |A|, so that the chunks sharing a ``_last_row_slice``
    come one after another.  Yields (mats, positions): the (n, n, B) chunk
    at ``_stack_dtype`` and the matrices of it that
    ``_sample_indices(total, quota)`` selects."""
    samples = _sample_indices(total, quota)
    inner, chunks = _chunks(g, *canonical_parameters(g), total, cap)
    for start, length, shift in sorted(chunks, key=lambda chunk: chunk[0] % g.order):
        lo, hi = np.searchsorted(samples, (start, start + length))
        yield inner[:, :, :length] + shift, samples[lo:hi] - start


def _inverse_mod_p(units: np.ndarray, p: int) -> np.ndarray:
    """u^{-1} = u^{p-2} mod p (Fermat) for residues u != 0, by square and
    multiply: every product stays below p^2."""
    result, power, e = np.ones_like(units), units, p - 2
    while e:
        if e & 1:
            result = _reduce(result * power, p)
        power = _reduce(power * power, p)
        e >>= 1
    return result


def _live(mats: np.ndarray, g: PGroupType) -> tuple[np.ndarray | None, np.ndarray]:
    """The live (row, k) pairs of an (n, n, B) stack of automorphisms or of
    their residue patterns, row b being matrix [:, :, b], as arrays (rows,
    ks) sorted by row then k: k*M - I is not invertible mod p, see the
    module docstring.  rows is None when each row has one live k, ks[i]
    that of row i.  One rule per block shape: when every diagonal block is
    1x1, a block r makes only r^{-1} live; otherwise every k is tested,
    which covers the 1x1 blocks too."""
    p, every = g.p, np.arange(_batch(mats, g.n))
    if len(set(g.e)) == g.n:
        inverses = [_inverse_mod_p(_reduce(mats[i, i], p), p) for i in range(g.n)]
        if g.n == 1:  # r^{-1} is the one live k of each row
            return None, inverses[0]
        codes = [every * p + ks for ks in inverses]
    else:
        eye = np.eye(g.n, dtype=mats.dtype)[:, :, None]
        codes = [every[~_invertible_mod_p(k * mats - eye, g.e, p)] * p + k for k in range(1, p)]
    rows, ks = np.divmod(np.unique(np.concatenate(codes or [every[:0]])), p)
    return (None if np.array_equal(rows, every) else rows), ks


def _automorphisms(g: PGroupType, cap: int) -> Iterator[tuple[np.ndarray, tuple]]:
    """Every automorphism of g once, in C-contiguous (n, n, B) chunks of at
    most ``cap`` matrices at ``_stack_dtype``: each residue pattern of the
    diagonal blocks that ``_invertible_mod_p`` accepts, plus every value of
    the free digits; see the module docstring.  Yields (rows, live), live
    the ``_live`` pairs of the chunk's patterns spread over its rows."""
    n = g.n
    strides, counts = canonical_parameters(g)
    # a diagonal-block entry (e_i = e_j) has stride 1: its residue mod p
    # is the pattern digit, the rest of it a free digit of stride p
    radix = [g.p if ei == ej else 1 for ei in g.e for ej in g.e]
    pattern_inner, patterns = _chunks(g, [1] * (n * n), radix, math.prod(radix), cap)
    free_counts = [c // r for c, r in zip(counts, radix)]
    free_strides = [s * r for s, r in zip(strides, radix)]
    free_inner, frees = _chunks(g, free_strides, free_counts, math.prod(free_counts), cap)
    per = cap // free_inner.shape[2]  # kept patterns per chunk
    for _, length, shift in patterns:
        block = pattern_inner[:, :, :length] + shift
        kept = np.compress(_invertible_mod_p(block, g.e, g.p), block, axis=2)
        for first in range(0, kept.shape[2], per):
            group = kept[:, :, first : first + per]
            live, ks = _live(group, g)
            for _, free_length, free_shift in frees:
                rows = group[..., None] + free_shift[..., None]
                rows = rows + free_inner[..., None, :free_length]
                spread = live  # pattern i is rows i * free_length .. (i + 1) * free_length - 1
                if live is not None:
                    spread = (live[:, None] * free_length + np.arange(free_length)).reshape(-1)
                rows = rows.reshape(n, n, group.shape[2] * free_length)  # not -1: n may be 0
                yield rows, (spread, np.repeat(ks, free_length))


def _exponents(autos: np.ndarray, live, g: PGroupType) -> tuple[np.ndarray, np.ndarray]:
    """Per automorphism: the exponents of R and of Pi, the sum of the R
    exponents of every unit multiple, from one elimination per live
    (row, k) pair of ``_live``; every other pair contributes 0."""
    rows, ks = live
    if rows is None:  # one live pair per row, in row order
        exps = _fix_exponents(autos, g, ks)
        return np.where(ks == 1, exps, 0), exps
    exps = _fix_exponents(autos.take(rows, axis=2), g, ks)
    r_exp, pi_exp = np.zeros((2, autos.shape[2]), dtype=exps.dtype)
    r_exp[rows[ks == 1]] = exps[ks == 1]
    np.add.at(pi_exp, rows, exps)
    return r_exp, pi_exp


def _recheck_samples(g: PGroupType, total: int) -> tuple[int, bool]:
    """Re-check the batched stages on an even spread of the cell's
    endomorphisms, one EndoMatrix each: invertibility by ``det_mod_p``, R and
    Pi by ``lattice_index`` over all p - 1 unit multiples (k = 1 shared) and
    the structure by ``restrict`` plus ``_column_reports``."""
    indices = _sample_indices(total, SWEEP_SAMPLES)
    mats = _decode(indices, *canonical_parameters(g), g.n).astype(_stack_dtype(g))
    amask = _invertible_mod_p(mats, g.e, g.p)
    autos = np.compress(amask, mats, axis=2)
    r_exp, pi_exp = _exponents(autos, _live(autos, g), g)
    rows = zip(r_exp.tolist(), pi_exp.tolist(), _structure_ok(autos, g).tolist())
    dec = abc_decompose(g)
    ok = True
    samples = mats.transpose(2, 0, 1).reshape(len(indices), -1).tolist()
    for auto, entries in zip(amask.tolist(), samples):
        em = EndoMatrix(g, IntMatrix(g.n, g.n, entries))
        ok &= is_automorphism(em) == auto
        if auto:
            r, pi, struct = next(rows)
            ok &= _r_pi_exponents(em) == (r, pi) and _reference_structure_ok(em, dec) == struct
    return len(indices), ok


@lru_cache(maxsize=256)
def sweep_cell(g: PGroupType, budget) -> CellReport:
    """Sweep every automorphism of the cell; see the module docstring."""
    total = _check_cell(g, budget)
    top = g.total_exponent
    r_hist = np.zeros(top + 1, dtype=np.int64)
    pi_hist = np.zeros((g.p - 1) * top + 1, dtype=np.int64)
    violations = 0

    for autos, live in _automorphisms(g, 1 << 13):
        r_exp, pi_exp = _exponents(autos, live, g)
        r_hist += np.bincount(r_exp, minlength=r_hist.size)
        pi_hist += np.bincount(pi_exp, minlength=pi_hist.size)
        violations += int((~_structure_ok(autos, g)).sum())

    auto_count = int(r_hist.sum())
    expected = _hillar_rhea_aut_count(g)
    if auto_count != expected:
        raise InvariantViolation(
            f"the sweep of {g} walked {auto_count} automorphisms, not {expected}"
        )
    samples_checked, samples_ok = _recheck_samples(g, total)
    histograms = tuple(r_hist.tolist()), tuple(pi_hist.tolist())
    return CellReport(g, total, *histograms, violations, samples_checked, samples_ok)


def _reference_structure_ok(em: EndoMatrix, dec) -> bool:
    restricted = restrict(em, dec.d)
    return is_automorphism(restricted) and all(r.ok for r in _column_reports(restricted, dec))


def _coordinate_codes(a_i: np.ndarray, g: PGroupType, i: int) -> np.ndarray:
    """((sum_j a_ij x_j) mod m_i) * w_i over the elements x of g, w the place
    values, as a (K, |A|) array for an (n, K) array a_i of the rows i of K
    matrices a = Id - M: the term x_j a_ij mod m_i broadcasts along grid
    axis j, and one reduction finishes the sum.  Exact in the dtype of a_i
    while p^{2E} + p^E (``_reduce`` of x_j a_ij) fits it."""
    n, m = g.n, g.moduli[i]
    codes = np.zeros((a_i.shape[1],) + (1,) * n, dtype=a_i.dtype)
    for j, mj in enumerate(g.moduli):
        term = _reduce(a_i[j][:, None] * np.arange(mj, dtype=a_i.dtype), m)
        codes = codes + term.reshape((-1,) + (1,) * j + (mj,) + (1,) * (n - 1 - j))
    _reduce(codes, m, out=codes)
    codes *= int(_weights(g.moduli)[i])
    return codes.reshape(len(codes), -1)


@lru_cache(maxsize=1)
def _last_row_slice(g: PGroupType, first: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(last, codes) for the last-row parameter indices first .. first +
    rows - 1 < |A|: their (n, rows) last rows, and row k of the (rows, |A|)
    int32 codes is the last coordinate of code(x - phi(x)) (place value 1)
    plus the lane offset k * |A|.  One slice is cached, as the walk visits
    the chunks that share it one after another."""
    n, indices = g.n, np.arange(first, first + rows, dtype=np.int64)
    last = _decode(indices, *canonical_parameters(g), n)[n - 1]
    a_last = np.eye(n, dtype=np.int64)[n - 1, :, None] - last
    codes = _coordinate_codes(a_last.astype(np.int32), g, n - 1)
    codes += np.arange(rows, dtype=np.int32)[:, None] * g.order
    last.flags.writeable = codes.flags.writeable = False
    return last, codes


def _element_counts(mats: np.ndarray, g: PGroupType) -> tuple[np.ndarray, np.ndarray]:
    """(fixed, image_sizes) per matrix of an (n, n, B) stack of canonical
    matrices with consecutive indices: the elements x of g with x - phi(x)
    = 0, and the distinct x - phi(x).  The last row takes prod_j
    p^{min(e_n, e_j)} = |A| values, the index mod |A|, and rows 0 .. n - 2
    are constant over each block of |A| indices.  The stack is one run of
    rows = min(B, |A|): whole blocks from a block boundary, or a part of
    one block, as is every chunk of ``_walk`` (a * p^K rows inside a
    p^{K+1} cycle, of a total that |A| divides); other stacks raise.  The
    code of x - phi(x) plus the lane b * |A| of matrix b is base[block] +
    slice[row]: ``_last_row_slice`` gives the last coordinate and the
    lanes, ``_coordinate_codes`` of the block's first matrix the others.
    The fixed points are the codes equal to their lane, the image the
    distinct codes, scattered into one (B, |A|) bool table.  Exact in
    int32: ``_check_order`` caps |A| at 2^14, so p^{2E} + p^E < 2^31, and
    stacks of |A| * B >= 2^31 codes raise."""
    n, batch = g.n, _batch(mats, g.n)
    order = _check_order(g)
    if n == 0:  # the trivial group: one element, fixed
        return np.ones(batch, dtype=np.int32), np.ones(batch, dtype=np.int32)
    strides, counts = canonical_parameters(g)
    first = int(mats[n - 1, :, 0] // strides[-n:] @ _weights(counts[-n:]))
    rows = min(batch, order)
    if batch % rows or first + rows > order or batch * order >= 2**31:
        raise InvariantViolation(
            "the element kernel takes whole blocks of |A| or a run inside one, below 2^31 codes"
        )
    last, codes = _last_row_slice(g, first, rows)
    run = mats.reshape(n, n, -1, rows)
    rest = run[: n - 1]
    if not ((run[n - 1] == last[:, None]).all() and (rest == rest[..., :1]).all()):
        raise InvariantViolation("the element kernel takes a run of consecutive canonical matrices")
    heads = np.subtract(np.eye(n, dtype=np.int32)[:, :, None], mats[:, :, ::rows], dtype=np.int32)
    base = sum(_coordinate_codes(heads[i], g, i) for i in range(n - 1))
    base = base + np.arange(run.shape[2], dtype=np.int32)[:, None] * (rows * order)
    index = (base[:, None, :] + codes).reshape(batch, order)
    lanes = np.arange(batch, dtype=np.int32)[:, None] * order
    fixed = (index == lanes).sum(axis=1, dtype=np.int32)
    seen, flat = np.zeros(index.size, dtype=bool), index.reshape(-1)
    for k in range(0, flat.size, 1 << 15):  # numpy indexes by intp: cast cache-sized blocks
        seen[flat[k : k + (1 << 15)].astype(np.intp)] = True
    # the counts are at most order; sums into int32 run faster than into int64
    return fixed, seen.reshape(batch, order).sum(axis=1, dtype=np.int32)


@lru_cache(maxsize=64)
def triple_check(g: PGroupType, budget) -> TripleReport:
    """Compare the three fixed-point counting routes over every canonical
    endomorphism of the cell at the element level."""
    total = _check_cell(g, budget)
    order = _check_order(g)
    mismatches, samples_checked, samples_ok = 0, 0, True

    # the element kernel is memory-bound: n * order * B <= 2^19 keeps its
    # int32 (B, order) table and last-row slice within 2 MiB / n each, near
    # L2-cache size
    chunk = max(1, min(1 << 13, (1 << 19) // max(1, order * g.n)))
    for mats, positions in _walk(g, total, TRIPLE_SAMPLES, chunk):
        brute, image_sizes = _element_counts(mats, g)
        if (order % image_sizes).any():
            raise InvariantViolation("image size must divide the group order")
        twisted = order // image_sizes
        lattice = g.p ** _fix_exponents(mats, g, 1)
        mismatches += int((brute != twisted).sum())
        mismatches += int((brute != lattice).sum())

        samples_checked += len(positions)
        for pos in positions:
            em = _to_endo(g, mats[:, :, pos])
            samples_ok &= (
                brute_fixed_points(em) == int(brute[pos])
                and twisted_class_count(em) == int(twisted[pos])
                and fixed_point_count(em).to_int() == int(lattice[pos])
            )

    return TripleReport(g, total, mismatches, samples_checked, samples_ok)
