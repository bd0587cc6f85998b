"""Reference implementations used only by the tests: the per-object
enumeration of canonical endomorphisms, the integer matrix product, the
Smith normal form that ``core.lattice_index`` replaced, the scaling map
k*phi that ``spectra.product_number`` builds directly, the gcd-keyed
Smith elimination that ``_sweep._fix_exponents`` replaced, the
Leibniz sum that ``_sweep._batch_det`` replaced, and the pure-Python
element loops that the numpy grid of ``oracle.brute_fixed_points`` and
``oracle.twisted_class_count`` replaced, and the three-pass a/b/c
decomposition that the one-scan ``decomposition.abc_decompose``
replaced, the plain irreducible search that ``spectra.find_irreducible``
replaced, and the place-value decode that ``np.unravel_index`` replaced
in ``_sweep._decode``."""

from __future__ import annotations

from itertools import permutations, product
from math import gcd
from operator import mul
from typing import Iterator

import numpy as np

from reidemeister import _sweep
from reidemeister.core import IntMatrix
from reidemeister.decomposition import Block, BlockDecomposition
from reidemeister.endo import EndoMatrix, PGroupType, elements, is_automorphism
from reidemeister.errors import DimensionMismatch, InvariantViolation
from reidemeister.oracle import DEFAULT_BUDGET, _check_order, canonical_parameters
from reidemeister.spectra import is_irreducible


def enumerate_endomorphisms(g: PGroupType, budget: int = DEFAULT_BUDGET) -> Iterator[EndoMatrix]:
    """Yield one canonical matrix per endomorphism, lexicographically in
    the row-major parameter vector (last coordinate varies fastest)."""
    _sweep._check_cell(g, budget)
    n = g.n
    strides, counts = canonical_parameters(g)
    for params in product(*map(range, counts)):
        entries = tuple(s * t for s, t in zip(strides, params))
        yield EndoMatrix(g, IntMatrix(n, n, entries))


def enumerate_automorphisms(g: PGroupType, budget: int = DEFAULT_BUDGET) -> Iterator[EndoMatrix]:
    """The subsequence of enumerate_endomorphisms invertible mod p."""
    for em in enumerate_endomorphisms(g, budget):
        if is_automorphism(em):
            yield em


def weights(radices) -> np.ndarray:
    """Place values of a mixed-radix number whose last digit varies fastest."""
    values = np.ones(len(radices), dtype=np.int64)
    for k in range(len(radices) - 2, -1, -1):
        values[k] = values[k + 1] * radices[k + 1]
    return values


def weights_decode(indices: np.ndarray, strides, counts, n: int) -> np.ndarray:
    """Map endomorphism indices to an (n, n, B) stack of canonical matrices,
    in int64, digit by digit: (index // place value) % radix."""
    strides, counts = np.asarray(strides, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    params = (indices[None, :] // weights(counts)[:, None]) % counts[:, None]
    return (params * strides[:, None]).reshape(n, n, len(indices))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The integer matrix product a b."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        ri = a.row(i)
        for j in range(b.cols):
            out.append(sum(ri[k] * b[k, j] for k in range(a.cols)))
    return IntMatrix(a.rows, b.cols, tuple(out))


def smith_invariants(m: IntMatrix) -> list[int]:
    """Diagonal of the Smith normal form: non-negative, each dividing the
    next, zeros last; the list has min(rows, cols) entries.

    Pivots are chosen by smallest non-zero absolute value, ties broken by
    lowest row then lowest column index, so runs are reproducible.
    """
    rows, cols = m.rows, m.cols
    size = min(rows, cols)
    a = m.to_rows()
    invariants: list[int] = []

    for k in range(size):
        pivot = _find_pivot(a, k, rows, cols)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for r in a:
                r[k], r[pj] = r[pj], r[k]
        while True:
            if a[k][k] < 0:
                a[k] = [-v for v in a[k]]
            # clear below, then to the right of the pivot
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    if a[i][k]:
                        dirty = True
            for j in range(k + 1, cols):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    if q:
                        for i in range(rows):
                            a[i][j] -= q * a[i][k]
                    if a[k][j]:
                        dirty = True
            if dirty:
                pi, pj = _find_pivot(a, k, rows, cols)  # type: ignore[misc]
                if pi != k:
                    a[k], a[pi] = a[pi], a[k]
                if pj != k:
                    for r in a:
                        r[k], r[pj] = r[pj], r[k]
                continue
            # pivot must divide the remaining submatrix for the chain property
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if a[i][j] % a[k][k]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
        invariants.append(a[k][k])

    invariants.extend(0 for _ in range(size - len(invariants)))
    return invariants


def _find_pivot(a: list[list[int]], k: int, rows: int, cols: int) -> tuple[int, int] | None:
    best = None
    best_abs = None
    for i in range(k, rows):
        row = a[i]
        for j in range(k, cols):
            v = row[j]
            if v and (best_abs is None or abs(v) < best_abs):
                best = (i, j)
                best_abs = abs(v)
    return best


def scale(em: EndoMatrix, i: int) -> EndoMatrix:
    """Compose with multiplication by i; i must be coprime to p."""
    if gcd(i, em.group.p) != 1:
        raise ValueError(f"{i} is not coprime to {em.group.p}")
    return EndoMatrix(em.group, em.m.map_entries(lambda v: i * v))


def gcd_fix_exponents(mats: np.ndarray, g: PGroupType, multiplier) -> np.ndarray:
    """``_sweep._fix_exponents`` with the pivot key gcd(a, p^E) = p^u of
    each entry a, divisions of the pivot column by the pivot p^u, and the
    exponent counted as the pivots p^u >= p^v over every v <= E."""
    n, p = g.n, g.p
    top_exp = max(g.e, default=0)
    top = p**top_exp
    scale = top // np.array(g.moduli, dtype=mats.dtype)
    batch, size = _sweep._batch(mats, n), n * n
    multiplier = np.atleast_1d(np.asarray(multiplier, dtype=mats.dtype))
    work = np.empty((n, n, batch), dtype=mats.dtype)
    np.multiply(mats, np.multiply.outer(scale, multiplier)[:, None], out=work)
    work -= np.diag(scale)[:, :, None]
    _sweep._reduce(work, top, out=work)
    flat, entries = work.reshape(size, batch), work.reshape(-1)
    positions = np.arange(size, dtype=mats.dtype)[:, None]
    lanes = np.arange(batch)
    across = np.arange(n)[:, None] * batch
    down = across * n
    pivots = np.empty((n, batch), dtype=mats.dtype)
    for step in range(n):
        if p == 2:
            keys = flat | top
            keys &= -keys
        else:
            keys = np.gcd(flat, top)
        keys *= size
        keys += positions
        pivot, at = np.divmod(keys.min(axis=0), size)
        pivots[step] = pivot
        if step == n - 1:
            break
        at = lanes + at.astype(lanes.dtype) * batch
        col = at % (n * batch)
        unit = entries.take(at) // pivot
        factors = entries.take(down + col) // pivot
        pivot_row = entries.take(across + (at - col + lanes))
        work *= unit
        work -= factors[:, None] * pivot_row
        _sweep._reduce(work, top, out=work)
    exps = np.zeros(batch, dtype=np.int64)
    for v in range(1, top_exp + 1):
        exps += (pivots >= p**v).sum(axis=0)
    return exps - sum(top_exp - v for v in g.e)


def leibniz_det(mats: np.ndarray) -> np.ndarray:
    """Exact int64 determinants of an (n, n, B) integer stack as the sum of
    the n! Leibniz terms sign(s) * mats[0, s(0)] * ... * mats[n - 1, s(n - 1)],
    the sign -1 to the number of inversions of s."""
    n = len(mats)
    det = np.zeros(mats.shape[2], dtype=np.int64)
    for s in permutations(range(n)):
        term = np.full_like(det, (-1) ** sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n)))
        for i in range(n):
            term *= mats[i, s[i]]
        det += term
    return det


def loop_fixed_points(em: EndoMatrix) -> int:
    """Count fixed points by applying the map to every group element."""
    g = em.group
    _check_order(g)
    rows = [(em.m.row(i), m) for i, m in enumerate(g.moduli)]
    return sum(
        1
        for x in elements(g)
        if all(sum(map(mul, row, x)) % m == xi for (row, m), xi in zip(rows, x))
    )


def loop_twisted_class_count(em: EndoMatrix) -> int:
    """Count twisted conjugacy classes as |P| / |im(Id - phi)|, with the
    image collected by applying x -> x - phi(x) to every element."""
    g = em.group
    order = _check_order(g)
    # row i of Id - M: x - phi(x) is one matrix-vector product
    rows = [
        (tuple(int(i == j) - a for j, a in enumerate(em.m.row(i))), m)
        for i, m in enumerate(g.moduli)
    ]
    image = {tuple(sum(map(mul, row, x)) % m for row, m in rows) for x in elements(g)}
    if order % len(image):
        raise InvariantViolation("image size must divide the group order")
    return order // len(image)


def three_pass_decompose(g: PGroupType) -> BlockDecomposition:
    """The a/b/c blocks in three passes: every maximal constant run of
    length >= 2, then the adjacent (v, v + 1) pairs among the leftovers
    from the left, then the rest as singletons; d(e) from the blocks."""
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


def monic_polys(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Every monic of the given degree over Z/p, lowest degree first,
    ascending in (c_{degree-1}, ..., c_0), the last varying fastest."""
    for high_first in product(range(p), repeat=degree):
        yield high_first[::-1] + (1,)


def plain_find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """The first monic of degree n, in ``monic_polys`` order, that Ben-Or's
    ``spectra.is_irreducible`` accepts: the binomials x^n + c included."""
    return next(f for f in monic_polys(p, n) if is_irreducible(f, p))
