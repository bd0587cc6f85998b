"""Vectorized exhaustive sweeps over canonical endomorphism matrices.

The verification suites walk the canonical endomorphisms of a cell
(p, e), about 10^6 in the larger cells: far too many to build one
EndoMatrix at a time.  Both walks decode parameter indices in numpy
chunks, and ``_chunks`` alone sizes them; the trivial group is their
case n = 0 (one empty matrix).  Every parameter count is a power of p,
so a chunk of a * p^K <= cap indices (a < p) that starts at a multiple
of it and stays inside one multiple of p^{K+1} never carries into digit
K + 1: the chunk is the first one, decoded once, plus its decoded start.

``triple_check`` walks every endomorphism (``_walk``); ``sweep_cell``
walks only the automorphisms (``_automorphisms``).  p | M_ij when
e_i > e_j, so mod p a canonical matrix is block upper triangular over
the runs of equal exponents (Hillar and Rhea, Amer. Math. Monthly
2007), and it is invertible exactly when each diagonal block is.  A
diagonal-block entry (e_i = e_j) has stride 1, so its residue mod p is
its parameter's lowest digit.  These digits are the residue pattern;
the rest of the entry (stride p) and every other entry are the free
digits.  The walk decodes the patterns in chunks and keeps those whose
diagonal blocks have a unit Leibniz determinant mod p.  It adds every
value of the free digits to each kept pattern, in chunks of free values
when they do not fit the cap, and several patterns to a chunk when they
do.  The walk never holds all kept patterns at once, and
``sweep_cell`` checks the number of rows walked against the Hillar-Rhea
count.  Per chunk, ``sweep_cell`` evaluates:

* fixed-point counts of every unit multiple k*M.  |Fix| is the index of
  the column lattice of [kM - I | diag(p^{e_i})].  Scaling row i by
  p^{E - e_i}, with E = e_n, turns the block into [N | p^E I], so the
  exponent is the sum of the Smith valuations of N over Z/p^E (each
  capped at E) minus sum(E - e_i).  The valuations come from a batched
  valuation-pivot elimination (Storjohann and Mulders, "Fast algorithms
  for linear algebra modulo N", ESA 1998): take the entry of least
  valuation, clear its column with the inverse-free row operation
  u*row_i - (a_ic / p^v)*row_r, where u is the pivot's unit part, and
  drop the pivot row and column.  The exponents of R and of Pi (the sum
  over the multiples) go into one histogram each per cell,
* validity, invertibility (runs of e - d) and mod-p column structure
  of the matrices conjugated by diag(p^{d_i}) for the depth vector d(e).

``triple_check`` counts the fixed points of every endomorphism by brute
force and by the image of x - phi(x), both as float matmuls over an
element table, and by the lattice index above.  This element kernel is
memory-bound, so its cap is min(8192, 2^19 // (order * n)) rows: each
(chunk, n, order) intermediate then holds at most 2^19 entries, 2 MiB as
float32 or int32, a typical per-core L2 cache.  Chunks of 2^23 entries,
32 MiB each, made the kernel 1.3-1.4x slower.

All arithmetic stays exact.  Every entry of a stack is below p^E, and
every intermediate of the stages below p^{2E} in absolute value
(p^{E+1} when n = 1, which has no elimination).  ``_chunks`` decodes
in int64 and returns int32 stacks when that bound is below 2^31, int64
stacks otherwise; every stage keeps its operands at the stack's dtype,
and only ``_batch_det`` accumulates its mod-p products in int64.
``batchable`` holds the int64 bounds, and the element kernel needs its
dot products below 2^53; cells outside these bounds raise
BudgetExceeded like cells over the enumeration budget.  Every reduction
is ``_reduce``, a - (a // m) * m for a Python-int scalar m: numpy
divides by a scalar with a multiply and shift (Granlund and Montgomery,
PLDI 1994) but runs ``%`` as one hardware division per element, about
ten times slower.  A deterministic sample of endomorphism indices from
every cell, automorphisms or not, is decoded and re-checked through the
plain per-object APIs
(fixed_point_count, product_number, restrict, column_structure_check,
brute_fixed_points, twisted_class_count), so the batched results stay
anchored to the reference implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator

import numpy as np

from .core import IntMatrix
from .decomposition import abc_decompose, column_structure_check, restrict
from .endo import EndoMatrix, PGroupType, fixed_point_count, is_automorphism
from .errors import BudgetExceeded, InvariantViolation
from .oracle import (
    _check_endo_budget,
    _check_order_budget,
    _hillar_rhea_aut_count,
    brute_fixed_points,
    canonical_parameters,
    endomorphism_count,
    twisted_class_count,
)
from .spectra import product_number

_INT64_SAFE = 2**62
SWEEP_SAMPLES = 48  # per-object re-checks per sweep_cell
TRIPLE_SAMPLES = 24  # per-object re-checks per triple_check


def _product_bound(g: PGroupType) -> int:
    """Bound on |x| for every intermediate of the stages on a stack: the
    products of the elimination stay below p^{2E}.  With n = 1 there is
    no elimination and the largest product is the unit scaling k*M < p^{E+1}."""
    largest = g.p ** max(g.e, default=0)
    return largest * (largest if g.n > 1 else g.p)


def batchable(g: PGroupType) -> bool:
    """True when every intermediate of the batched pipeline fits int64:
    the endomorphism indices that _decode splits, and the products of
    the stages."""
    return _product_bound(g) < _INT64_SAFE and endomorphism_count(g) < _INT64_SAFE


def _reduce(a: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """a mod m for a Python int m > 0, as a - (a // m) * m; see the module
    docstring.  (a // m) * m lies in (a - m, a], and with |a| < p^{2E},
    m <= p^E it keeps the stack's dtype: p^{2E} + p^E < 2^31 whenever
    p^{2E} < 2^31.  Writes into ``out`` when given, which must be a
    temporary of the caller, never a view of its input."""
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


@lru_cache(maxsize=None)
def _perm_data(n: int) -> tuple[np.ndarray, np.ndarray]:
    perms = list(permutations(range(n)))
    signs = []
    for perm in perms:
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        signs.append(-1 if inv % 2 else 1)
    return np.array(perms, dtype=np.int64), np.array(signs, dtype=np.int64)


def _batch_det(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a (B, n, n) integer stack, in int64 (caller
    bounds entries)."""
    n = mats.shape[1]
    perms, signs = _perm_data(n)
    rows = np.arange(n, dtype=np.int64)[None, :]
    gathered = mats[:, rows, perms]  # (B, n!, n)
    return (gathered.prod(axis=2, dtype=np.int64) * signs).sum(axis=1)


def _invertible_mod_p(mats: np.ndarray, exps, p: int) -> np.ndarray:
    """Per matrix: invertible mod p, given p | M_ij when exps[i] > exps[j]."""
    exps = np.asarray(exps)
    ok = np.ones(mats.shape[0], dtype=bool)
    for v in np.unique(exps):
        idx = np.flatnonzero(exps == v)
        block = mats[:, idx[:, None], idx]  # a copy, reduced in place
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
    """Map endomorphism indices to (B, n, n) canonical matrices, in int64."""
    strides, counts = np.asarray(strides, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    params = (indices[:, None] // _weights(counts)[None, :]) % counts[None, :]
    return (params * strides[None, :]).reshape(len(indices), n, n)


def _fix_exponents(mats: np.ndarray, g: PGroupType, multiplier: int) -> np.ndarray:
    """Exponent of |Fix(mul_multiplier . phi)| for a stack of matrices."""
    n, p = g.n, g.p
    top_exp = max(g.e, default=0)
    top = p**top_exp
    scale = top // np.array(g.moduli, dtype=mats.dtype)
    # reducing row i mod p^{e_i} and then scaling it by p^{E - e_i} is
    # the same as scaling first and reducing mod p^E
    work = mats * (multiplier * scale)[None, :, None]
    work -= np.diag(scale)
    _reduce(work, top, out=work)
    batch = mats.shape[0]
    rows = np.arange(batch)
    # gcd(a, p^E) = p^{min(v(a), E)}; used rows and columns are zero, so
    # they hold p^E and are never chosen while a live entry is smaller
    pivots = np.empty((batch, n), dtype=mats.dtype)
    for step in range(n):
        flat = work.reshape(batch, n * n)
        gcds = np.gcd(flat, top)
        at = gcds.argmin(axis=1)
        pivot = gcds[rows, at]
        pivots[:, step] = pivot
        if step == n - 1:
            break
        r, c = np.divmod(at, n)
        unit = flat[rows, at] // pivot
        factors = work[rows, :, c] // pivot[:, None]
        pivot_row = work[rows, r, :]
        # clears column c everywhere, the pivot row included
        work *= unit[:, None, None]
        work -= factors[:, :, None] * pivot_row[:, None, :]
        _reduce(work, top, out=work)
    powers = p ** np.arange(top_exp + 1, dtype=mats.dtype)
    shift = sum(top_exp - v for v in g.e)
    return np.searchsorted(powers, pivots).sum(axis=1) - shift


def _structure_ok(mats: np.ndarray, g: PGroupType) -> np.ndarray:
    """Per matrix: conjugate by diag(p^{d_i}), then check that the result
    is a valid invertible matrix on the subgroup type e - d and that every
    b/c-block start column is zero mod p off the diagonal and a unit on it."""
    n = g.n
    p = g.p
    dec = abc_decompose(g)
    depths = np.array(dec.d, dtype=np.int64)
    p_d = np.array([p**int(v) for v in dec.d], dtype=mats.dtype)
    sub_e = np.array(g.e, dtype=np.int64) - depths
    conjugated = mats * p_d[None, None, :]
    for i, d in enumerate(dec.d):
        if d:  # by a Python-int scalar: see the module docstring
            conjugated[:, i, :] //= p**d

    ok = np.ones(mats.shape[0], dtype=bool)
    for i in range(n):
        for j in range(i):
            gap = int(sub_e[i] - sub_e[j])
            if gap > 0:
                ok &= _reduce(conjugated[:, i, j], p**gap) == 0
    # d(e) is characteristic, so sub_e is nondecreasing and the loop above gives p | M_ij
    ok &= _invertible_mod_p(conjugated, sub_e, p)
    for blk in dec.blocks:
        if blk.kind == "a":
            continue
        j = blk.start
        col = _reduce(conjugated[:, :, j], p)
        diag_entry = col[:, j].copy()
        col[:, j] = 0
        ok &= (diag_entry != 0) & ~col.any(axis=1)
    return ok


def _sample_indices(total: int, quota: int) -> np.ndarray:
    if total <= quota:
        return np.arange(total, dtype=np.int64)
    return np.unique(np.linspace(0, total - 1, quota).astype(np.int64))


def _to_endo(g: PGroupType, mat: np.ndarray) -> EndoMatrix:
    n = g.n
    entries = tuple(int(v) for v in mat.reshape(-1))
    return EndoMatrix(g, IntMatrix(n, n, entries))


def _stack_dtype(g: PGroupType):
    """int32 when every intermediate of the stages fits it, int64 otherwise."""
    return np.int32 if _product_bound(g) < 2**31 else np.int64


def _chunks(
    g: PGroupType, strides, counts, total: int, cap: int
) -> tuple[np.ndarray, list[tuple[int, int, np.ndarray]]]:
    """Digit-aligned chunks of the first ``total`` indices of the parameter
    space with these row-major ``strides`` and ``counts`` (powers of p);
    see the module docstring.  Returns (inner, chunks): chunk (start,
    length, shift) is the decode of indices start .. start + length - 1,
    which is inner[:length] + shift."""
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
        (start, min(width, cycle - start % cycle), shift) for start, shift in zip(starts, shifts)
    ]


def _walk(
    g: PGroupType, total: int, quota: int, cap: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Decode all ``total`` canonical endomorphisms of g in index order, in
    the chunks of at most ``cap`` rows that ``_chunks`` cuts.  Yields
    (mats, positions): the (B, n, n) chunk at ``_stack_dtype`` and the
    rows of it that ``_sample_indices(total, quota)`` selects."""
    samples = _sample_indices(total, quota)
    inner, chunks = _chunks(g, *canonical_parameters(g), total, cap)
    for start, length, shift in chunks:
        lo, hi = np.searchsorted(samples, (start, start + length))
        yield inner[:length] + shift, samples[lo:hi] - start


def _automorphisms(g: PGroupType, cap: int) -> Iterator[np.ndarray]:
    """Every automorphism of g once, in (B, n, n) chunks of at most ``cap``
    rows at ``_stack_dtype``: each residue pattern of the diagonal blocks
    that ``_invertible_mod_p`` accepts, plus every value of the free
    digits; see the module docstring."""
    n = g.n
    strides, counts = canonical_parameters(g)
    # a diagonal-block entry (e_i = e_j) has stride 1: its residue mod p
    # is the pattern digit, the rest of it a free digit of stride p
    radix = [g.p if ei == ej else 1 for ei in g.e for ej in g.e]
    pattern_inner, patterns = _chunks(g, [1] * (n * n), radix, math.prod(radix), cap)
    free_counts = [c // r for c, r in zip(counts, radix)]
    free_inner, frees = _chunks(
        g, [s * r for s, r in zip(strides, radix)], free_counts, math.prod(free_counts), cap
    )
    per = cap // len(free_inner)  # kept patterns per chunk
    for _, length, shift in patterns:
        block = pattern_inner[:length] + shift
        kept = block[_invertible_mod_p(block, g.e, g.p)]
        for k in range(0, len(kept), per):
            for _, free_length, free_shift in frees:
                rows = (kept[k : k + per, None] + free_shift) + free_inner[:free_length]
                yield rows.reshape(rows.shape[0] * rows.shape[1], n, n)


def _exponents(autos: np.ndarray, g: PGroupType) -> tuple[np.ndarray, np.ndarray]:
    """Per automorphism: the exponents of R and of Pi, the sum of the R
    exponents of every unit multiple.  For p = 2 they are one array."""
    r_exp = _fix_exponents(autos, g, 1)
    pi_exp = r_exp
    for mult in range(2, g.p):
        pi_exp = pi_exp + _fix_exponents(autos, g, mult)
    return r_exp, pi_exp


def _recheck_samples(g: PGroupType, total: int) -> tuple[int, bool]:
    """Re-check an even spread of the cell's endomorphisms through the
    batched stages against the per-object APIs."""
    indices = _sample_indices(total, SWEEP_SAMPLES)
    mats = _decode(indices, *canonical_parameters(g), g.n).astype(_stack_dtype(g))
    amask = _invertible_mod_p(mats, g.e, g.p)
    autos = mats[amask]
    r_exp, pi_exp = _exponents(autos, g)
    rows = zip(r_exp.tolist(), pi_exp.tolist(), _structure_ok(autos, g).tolist())
    dec = abc_decompose(g)
    ok = True
    for mat, auto in zip(mats, amask.tolist()):
        em = _to_endo(g, mat)
        if not auto:
            ok &= not is_automorphism(em)
            continue
        r, pi, struct = next(rows)
        ok &= (
            is_automorphism(em)
            and fixed_point_count(em).nu(g.p) == r
            and product_number(em).nu(g.p) == pi
            and _reference_structure_ok(em, dec) == struct
        )
    return len(indices), ok


@lru_cache(maxsize=256)
def sweep_cell(g: PGroupType, budget) -> CellReport:
    """Sweep every automorphism of the cell; see the module docstring."""
    total = _check_cell(g, budget)
    top = g.total_exponent
    r_hist = np.zeros(top + 1, dtype=np.int64)
    pi_hist = np.zeros((g.p - 1) * top + 1, dtype=np.int64)
    violations = 0

    cap = max(1, min(1 << 13, (1 << 22) // max(1, math.factorial(g.n) * g.n)))
    for autos in _automorphisms(g, cap):
        r_exp, pi_exp = _exponents(autos, g)
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
    return CellReport(
        group=g,
        endo_count=total,
        r_histogram=tuple(r_hist.tolist()),
        pi_histogram=tuple(pi_hist.tolist()),
        structure_violations=violations,
        samples_checked=samples_checked,
        samples_ok=samples_ok,
    )


def _reference_structure_ok(em: EndoMatrix, dec) -> bool:
    restricted = restrict(em, dec.d)
    if not is_automorphism(restricted):
        return False
    return all(r.ok for r in column_structure_check(em))


@lru_cache(maxsize=64)
def triple_check(g: PGroupType, budget) -> TripleReport:
    """Compare the three fixed-point counting routes over every canonical
    endomorphism of the cell at the element level."""
    total = _check_cell(g, budget)
    order = _check_order_budget(g, budget)
    n, p = g.n, g.p
    # dot products are bounded by n * p^{2 e_n}; pick representations in
    # which every intermediate stays exact
    largest = p ** max(g.e, default=0)
    prod_bound = n * largest * largest
    if prod_bound >= 2**53:
        # such a cell has at least 2^50 endomorphism x element pairs
        raise BudgetExceeded(f"cell {g} exceeds the float64 bound of the element kernel")
    mat_dtype = np.float32 if prod_bound < 2**24 else np.float64
    int_dtype = np.int32 if prod_bound < 2**31 else np.int64

    # element table: column k holds the coordinates of element k
    moduli = np.array(g.moduli, dtype=np.int64)
    weights = _weights(moduli)
    cols = np.arange(order, dtype=np.int64)
    table = (cols[None, :] // weights[:, None]) % moduli[:, None]
    table_m = table.astype(mat_dtype)
    table_i = table.astype(int_dtype)
    weights_i = weights.astype(int_dtype)
    low_bits = (moduli - 1).astype(int_dtype)

    mismatches = 0
    samples_checked = 0
    samples_ok = True

    chunk = max(1, min(1 << 13, (1 << 19) // max(1, order * n)))
    for mats, positions in _walk(g, total, TRIPLE_SAMPLES, chunk):
        # difference element x - phi(x), encoded in mixed radix; an
        # element is fixed exactly when its code is zero
        diff = np.matmul(mats.astype(mat_dtype), table_m).astype(int_dtype)
        np.subtract(table_i[None], diff, out=diff)
        if p == 2:
            # moduli are powers of two: low bits give the residue
            diff &= low_bits[None, :, None]
        else:
            for i, m in enumerate(g.moduli):
                _reduce(diff[:, i], m, out=diff[:, i])
        codes = np.einsum("bnq,n->bq", diff, weights_i)
        brute = (codes == 0).sum(axis=1)

        span = codes.shape[0] * order
        offset = np.arange(codes.shape[0], dtype=np.int64)[:, None] * order
        seen = np.zeros(span, dtype=bool)
        seen[(codes + offset).reshape(-1)] = True
        image_sizes = seen.reshape(codes.shape[0], order).sum(axis=1)
        if (order % image_sizes).any():
            raise InvariantViolation("image size must divide the group order")
        twisted = order // image_sizes

        lattice = p ** _fix_exponents(mats, g, 1)

        mismatches += int((brute != twisted).sum())
        mismatches += int((brute != lattice).sum())

        samples_checked += len(positions)
        for pos in positions:
            em = _to_endo(g, mats[pos])
            reference = brute_fixed_points(em, budget)
            if reference != int(brute[pos]):
                samples_ok = False
            if twisted_class_count(em, budget) != int(twisted[pos]):
                samples_ok = False
            if fixed_point_count(em).to_int() != int(lattice[pos]):
                samples_ok = False

    return TripleReport(g, total, mismatches, samples_checked, samples_ok)
