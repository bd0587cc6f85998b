import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, groupby, permutations, product
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidemeister import (
    BudgetExceeded,
    EndoMatrix,
    InvariantViolation,
    PGroupType,
    apply,
    brute_fixed_points,
    elements,
    endomorphism_count,
    fixed_point_count,
    is_automorphism,
    is_valid_endo,
    iter_partitions,
    iter_types,
    oracle_spectrum,
    parse_matrix,
    reidemeister_number,
    spec_p,
    spec_r_2group,
    spec_r_abelian,
    spec_r_odd_p,
    twisted_class_count,
)
from reidemeister.core import IntMatrix
from reidemeister.decomposition import abc_decompose
from reidemeister.oracle import (
    DEFAULT_BUDGET,
    MAX_GROUP_ORDER,
    _hillar_rhea_aut_count,
    canonical_parameters,
)
from reidemeister.spectra import AbelianGroupType, Spectrum, product_number
from reidemeister import _sweep, endo

from reference import (
    enumerate_automorphisms,
    enumerate_endomorphisms,
    gcd_fix_exponents,
    leibniz_det,
    loop_fixed_points,
    loop_twisted_class_count,
    scale,
    weights,
    weights_decode,
)


# -- enumeration ---------------------------------------------------------------


def test_endomorphism_counts():
    assert endomorphism_count(PGroupType(2, (1,))) == 2
    assert endomorphism_count(PGroupType(2, (1, 1))) == 16
    assert endomorphism_count(PGroupType(2, (2, 3))) == 512
    assert endomorphism_count(PGroupType(3, ())) == 1


def test_enumerate_endomorphisms_exact_and_unique():
    for g in [PGroupType(2, (1,)), PGroupType(2, (1, 1)), PGroupType(2, (1, 2))]:
        seen = set()
        for em in enumerate_endomorphisms(g):
            assert is_valid_endo(g, em.m)
            seen.add(em)
        assert len(seen) == endomorphism_count(g)


def test_enumeration_is_lexicographic():
    g = PGroupType(2, (1, 1))
    first = [em.m.entries for em in enumerate_endomorphisms(g)]
    assert first[:4] == [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1)]
    assert first == sorted(first)


@pytest.mark.parametrize(
    "g",
    [PGroupType(2, ()), PGroupType(3, (1, 2)), PGroupType(2, (1, 1, 3)), PGroupType(5, (2,))],
    ids=str,
)
def test_decode_matches_enumeration_order(g):
    # the numpy decoder and the per-object reference define one order
    total = endomorphism_count(g)
    mats = _sweep._decode(np.arange(total, dtype=np.int64), *canonical_parameters(g), g.n)
    decoded = [tuple(int(v) for v in mats[:, :, b].ravel()) for b in range(total)]
    assert decoded == [em.m.entries for em in enumerate_endomorphisms(g)]


SWEEP_N3_CELLS = [g for p in (2, 3, 5) for g in iter_types(p, max_endos=2**20) if g.n <= 3]


def test_decode_matches_the_place_value_reference():
    # every cell with n <= 3 that verify sweeps at the default primes and
    # budget, the trivial ones with no digits included: its canonical
    # parameter space, and the pattern (radix 1 or p) and free spaces of
    # _automorphisms, with the radices as a list and as an array.  The
    # first 512 indices, an even spread of 512 and the last one
    assert len(SWEEP_N3_CELLS) == 140 and PGroupType(2, ()) in SWEEP_N3_CELLS
    for g in SWEEP_N3_CELLS:
        strides, counts = canonical_parameters(g)
        radix = [g.p if ei == ej else 1 for ei in g.e for ej in g.e]
        spaces = [
            (strides, counts),
            ([1] * g.n**2, radix),
            ([s * r for s, r in zip(strides, radix)], [c // r for c, r in zip(counts, radix)]),
        ]
        for strides, counts in spaces:
            total = prod(counts)
            first, spread = np.arange(min(total, 512)), _sweep._sample_indices(total, 512)
            indices = np.unique(np.concatenate([first, spread, [total - 1]]).astype(np.int64))
            expected = weights_decode(indices, strides, counts, g.n)
            for radices in (list(counts), np.array(counts, dtype=np.int64)):
                decoded = _sweep._decode(indices, strides, radices, g.n)
                assert decoded.dtype == np.int64 and decoded.shape == (g.n, g.n, len(indices))
                assert np.array_equal(decoded, expected), g


def test_enumerate_automorphism_counts():
    assert sum(1 for _ in enumerate_automorphisms(PGroupType(2, (1, 1)))) == 6
    assert sum(1 for _ in enumerate_automorphisms(PGroupType(3, (1,)))) == 2
    assert sum(1 for _ in enumerate_automorphisms(PGroupType(2, (1, 2)))) == 8


def test_trivial_group_enumeration():
    ems = list(enumerate_endomorphisms(PGroupType(2, ())))
    assert len(ems) == 1 and ems[0].group.is_trivial


def test_budget_blocks_enumeration():
    with pytest.raises(BudgetExceeded):
        list(enumerate_endomorphisms(PGroupType(2, (2, 3)), 10))
    with pytest.raises(BudgetExceeded):
        brute_fixed_points(EndoMatrix.identity(PGroupType(2, (15,))))
    with pytest.raises(BudgetExceeded):
        twisted_class_count(EndoMatrix.identity(PGroupType(2, (15,))))


def test_group_order_cap_at_its_edge(monkeypatch):
    # the element loops take order MAX_GROUP_ORDER = 2^14 and refuse 2^15;
    # triple_check refuses before its walk, which the stub stands in for
    class Walked(Exception):
        pass

    def walk(*args):
        raise Walked

    monkeypatch.setattr(_sweep, "_walk", walk)
    edge, over = PGroupType(2, (14,)), PGroupType(2, (15,))
    assert edge.order == MAX_GROUP_ORDER
    identity = EndoMatrix.identity(edge)
    assert brute_fixed_points(identity) == twisted_class_count(identity) == 2**14
    with pytest.raises(Walked):
        _sweep.triple_check.__wrapped__(edge, DEFAULT_BUDGET)
    for count in (brute_fixed_points, twisted_class_count):
        with pytest.raises(BudgetExceeded, match="group order 32768 exceeds the cap 16384"):
            count(EndoMatrix.identity(over))
    with pytest.raises(BudgetExceeded, match="group order 32768 exceeds the cap 16384"):
        _sweep.triple_check.__wrapped__(over, DEFAULT_BUDGET)


def test_endo_cap_at_its_edge():
    # the sweeps take a cell of exactly budget endomorphisms and refuse one more
    g = PGroupType(2, (1, 1, 4))
    count = endomorphism_count(g)
    assert count == 4096
    assert _sweep.sweep_cell.__wrapped__(g, count).endo_count == count
    with pytest.raises(BudgetExceeded, match="4096 endomorphisms of p=2 e=1,1,4 exceed the cap 4095"):
        _sweep.sweep_cell.__wrapped__(g, count - 1)


def test_non_positive_budget_refuses_every_cell():
    # every type, the trivial one too, has at least one endomorphism
    for g in (PGroupType(2, ()), PGroupType(3, (1,))):
        for budget in (0, -1):
            with pytest.raises(BudgetExceeded):
                _sweep.sweep_cell.__wrapped__(g, budget)


# -- element-level counts ---------------------------------------------------------


def test_brute_fixed_points_examples():
    g = PGroupType(2, (3,))
    assert brute_fixed_points(EndoMatrix.identity(g)) == 8
    assert brute_fixed_points(EndoMatrix(g, parse_matrix("3"))) == 2
    em = EndoMatrix(PGroupType(2, (2, 3)), parse_matrix("1,1;2,1"))
    assert brute_fixed_points(em) == 2


def test_twisted_class_count_examples():
    g = PGroupType(2, (3,))
    assert twisted_class_count(EndoMatrix.identity(g)) == 8
    assert twisted_class_count(EndoMatrix(g, parse_matrix("3"))) == 2
    assert twisted_class_count(EndoMatrix(g, parse_matrix("5"))) == 4


def _meshgrid_counts(em):
    # fixed points and distinct x - phi(x), from one numpy product over a
    # meshgrid of every element
    g = em.group
    moduli = np.array(g.moduli, dtype=np.int64)
    grid = np.meshgrid(*[np.arange(m) for m in g.moduli], indexing="ij")
    x = np.array([axis.reshape(-1) for axis in grid], dtype=np.int64).reshape(g.n, g.order)
    y = (np.array(em.m.to_rows(), dtype=np.int64).reshape(g.n, g.n) @ x) % moduli[:, None]
    fixed = int((y == x).all(axis=0).sum())
    image = np.unique((x - y) % moduli[:, None], axis=1).shape[1]
    return fixed, image


@pytest.mark.parametrize(
    "g",
    [PGroupType(2, (1, 2)), PGroupType(3, (1, 1)), PGroupType(2, (1, 1, 2)), PGroupType(2, ())],
    ids=str,
)
def test_element_loops_match_meshgrid(g):
    # the oracle's element grid, the pure-Python loops it replaced and the
    # meshgrid counts that anchor the kernel, on every endomorphism
    for em in enumerate_endomorphisms(g):
        fixed, image = _meshgrid_counts(em)
        assert brute_fixed_points(em) == loop_fixed_points(em) == fixed
        assert twisted_class_count(em) == loop_twisted_class_count(em) == g.order // image
        assert fixed * image == g.order


@pytest.mark.parametrize(
    "g",
    [PGroupType(2, (14,)), PGroupType(2, (1,) * 14), PGroupType(3, (1,) * 8), PGroupType(127, (1, 1))],
    ids=str,
)
def test_element_counts_match_the_loops_near_the_order_cap(g):
    # three seeded random canonical endomorphisms of groups of order near
    # MAX_GROUP_ORDER, n up to 14: the grid's int64 sums stay exact there
    rng = np.random.default_rng(24)
    strides, counts = canonical_parameters(g)
    for _ in range(3):
        entries = tuple(s * int(rng.integers(c)) for s, c in zip(strides, counts))
        em = EndoMatrix(g, IntMatrix(g.n, g.n, entries))
        assert brute_fixed_points(em) == loop_fixed_points(em)
        assert twisted_class_count(em) == loop_twisted_class_count(em)


def _assert_element_counts(g, ranges):
    # the kernel on each contiguous index range [lo, hi) of the cell,
    # against _meshgrid_counts per matrix
    params, expected = canonical_parameters(g), {}
    for lo, hi in ranges:
        mats = _sweep._decode(np.arange(lo, hi, dtype=np.int64), *params, g.n)
        fixed, image = _sweep._element_counts(mats, g)
        assert fixed.dtype == image.dtype == np.int32
        for b, index in enumerate(range(lo, hi)):
            if index not in expected:
                expected[index] = _meshgrid_counts(_sweep._to_endo(g, mats[:, :, b]))
        assert list(zip(fixed.tolist(), image.tolist())) == [expected[t] for t in range(lo, hi)]


def _kernel_ranges(lo, hi, order):
    # the runs of [lo, hi) that the kernel takes: its whole blocks of |A|,
    # its pieces between block boundaries, and the uneven thirds of each
    # piece, which start and end mid-block
    first, last = -(-lo // order) * order, hi // order * order
    cuts = sorted({lo, hi, *range(first, last + 1, order)})
    pieces = list(zip(cuts, cuts[1:]))
    thirds = [
        (part[0], part[-1] + 1)
        for a, b in pieces
        for part in np.array_split(np.arange(a, b), 3)
        if part.size
    ]
    whole = [(first, last)] if first < last else []
    return whole + pieces + thirds


@pytest.mark.parametrize(
    "g",
    [PGroupType(p, ()) for p in (2, 3, 5)]
    + [PGroupType(2, (3,)), PGroupType(3, (2,)), PGroupType(5, (2,))]
    + [PGroupType(2, (1, 2)), PGroupType(3, (1, 1)), PGroupType(5, (1, 1))]
    + [PGroupType(2, (1, 1, 2)), PGroupType(3, (1, 1, 1)), PGroupType(5, (1, 1, 1))],
    ids=str,
)
def test_element_counts_match_meshgrid(g):
    # the whole cell, or 512 consecutive matrices of the 5^4, 3^9 and 5^9
    # of the larger cells at odd p, from the middle of their second block
    # of |A|; then the walk's chunks of fewer than |A| rows, which visit
    # the blocks offset by offset and reuse each offset's last-row slice
    total, order = endomorphism_count(g), g.order
    size = min(total, 1024 if g.p == 2 else 512)
    lo = 0 if size == total else order + order // 2
    assert lo + size <= total
    _assert_element_counts(g, _kernel_ranges(lo, lo + size, order))
    if size == total:
        for mats, _ in _sweep._walk(g, total, 1, max(1, order // 3)):
            fixed, image = _sweep._element_counts(mats, g)
            endos = [_sweep._to_endo(g, mats[:, :, b]) for b in range(mats.shape[2])]
            expected = [_meshgrid_counts(em) for em in endos]
            assert list(zip(fixed.tolist(), image.tolist())) == expected


@pytest.mark.parametrize("e", [14, 16], ids=["int32", "int64"])
def test_element_counts_at_the_largest_exponents(e):
    # p^{2E} = 2^28 at the largest cell under the order cap, n = 1, where
    # only the reduction of every x_j a_ij keeps the int32 sums in range.
    # At n = 1 matrix t is [t]; the runs from the start, the middle and the
    # end of the cell's one block hold 0, 1, 2, 3, 5, 2^13, 2^13 + 1 and
    # 2^14 - 1.  Past the cap, from 2^15 on and at 2^16 where the products
    # would need int64, the kernel refuses before building a table
    g = PGroupType(2, (e,))
    top = 2**e
    mats = np.arange(6, dtype=np.int64).reshape(1, 1, 6)
    if e == 14:
        _assert_element_counts(g, [(0, 6), (top // 2 - 1, top // 2 + 2), (top - 2, top)])
        with pytest.raises(BudgetExceeded, match="group order 32768 exceeds the cap 16384"):
            _sweep._element_counts(mats, PGroupType(2, (15,)))
    else:
        with pytest.raises(BudgetExceeded, match=f"group order {top} exceeds the cap 16384"):
            _sweep._element_counts(mats, g)


def test_element_counts_refuse_a_stack_that_is_not_a_run():
    # the stack must be whole blocks of |A| = 8 from a block boundary or a
    # run inside one block, rows 0 .. n - 2 must stay constant within a
    # block and the last rows must follow the index order; the sampled
    # stacks of older tests, runs across a block boundary, or a changed
    # first row, would get another matrix's counts without the checks
    g = PGroupType(2, (1, 2))
    params = canonical_parameters(g)
    run = _sweep._decode(np.arange(9, 15, dtype=np.int64), *params, g.n)
    assert _sweep._element_counts(run, g)[0].tolist() == [
        _meshgrid_counts(_sweep._to_endo(g, run[:, :, b]))[0] for b in range(6)
    ]
    varied = run.copy()
    varied[0, 0, 1] += 1
    spread = _sweep._decode(np.array([0, 1, 9]), *params, g.n)
    for mats in (varied, spread):
        with pytest.raises(InvariantViolation, match="consecutive canonical matrices"):
            _sweep._element_counts(mats, g)
    # across one block boundary, from mid-block over three blocks, and
    # whole blocks and a half
    for lo, hi in [(6, 12), (1, 25), (8, 20)]:
        mats = _sweep._decode(np.arange(lo, hi, dtype=np.int64), *params, g.n)
        with pytest.raises(InvariantViolation, match="or a run inside one"):
            _sweep._element_counts(mats, g)


def test_triple_check_holds_one_last_row_slice():
    # p=2 e=1,11: |A| = 4096 and chunks of 2^19 // (4096 * 2) = 64 rows, so
    # a table of every last row would take 4096^2 int32 = 64 MiB.  The
    # walk visits the 64 offsets one by one, each in the 4 blocks of the
    # cell's 2^14 matrices, and builds each 64-row slice once
    g = PGroupType(2, (1, 11))
    full_table = 4 * g.order**2
    _sweep._last_row_slice.cache_clear()
    tracemalloc.start()
    try:
        rep = _sweep.triple_check.__wrapped__(g, DEFAULT_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.mismatches == 0 and rep.samples_ok
    assert peak <= full_table // 4
    info = _sweep._last_row_slice.cache_info()
    assert (info.misses, info.hits) == (64, 3 * 64)


def test_triple_agreement_exhaustive_small():
    for g in [PGroupType(2, (1, 2)), PGroupType(3, (1, 1)), PGroupType(2, (2,))]:
        for em in enumerate_endomorphisms(g):
            fixed = brute_fixed_points(em)
            assert twisted_class_count(em) == fixed
            assert fixed_point_count(em).to_int() == fixed


# -- oracle spectra ----------------------------------------------------------------


def test_oracle_spectrum_examples():
    assert oracle_spectrum(PGroupType(2, (2, 3))).ints() == [2, 4, 8, 16, 32]
    assert oracle_spectrum(PGroupType(3, (1, 1)), use_pi=True).ints() == [1, 3, 9]
    assert oracle_spectrum(PGroupType(2, (1,))).ints() == [2]


def test_oracle_spectrum_budget():
    with pytest.raises(BudgetExceeded):
        oracle_spectrum(PGroupType(2, (2, 3)), budget=8)


@pytest.mark.parametrize(
    "g",
    [
        PGroupType(2, (2, 2)),
        PGroupType(2, (1, 3)),
        PGroupType(3, (1, 2)),
        PGroupType(5, (1, 1)),
    ],
    ids=str,
)
def test_batched_spectrum_matches_direct_loop(g):
    for use_pi in (False, True):
        batched = oracle_spectrum(g, use_pi)
        direct = Spectrum(
            product_number(em) if use_pi else reidemeister_number(em)
            for em in enumerate_automorphisms(g)
        )
        assert batched == direct


def test_oracle_matches_closed_forms_small():
    for g in [PGroupType(2, (1, 2)), PGroupType(2, (1, 1, 1)), PGroupType(2, (4,))]:
        assert oracle_spectrum(g) == spec_r_2group(g)
        assert oracle_spectrum(g, use_pi=True) == spec_p(g)
    for g in [PGroupType(3, (1, 1)), PGroupType(3, (2,)), PGroupType(5, (1,))]:
        assert oracle_spectrum(g) == spec_r_odd_p(g)
        assert oracle_spectrum(g, use_pi=True) == spec_p(g)


def test_quotient_monotonicity():
    for g in [PGroupType(2, (1, 2)), PGroupType(2, (1, 3)), PGroupType(3, (1, 2))]:
        ones = PGroupType(g.p, (1,) * g.n)
        for em in enumerate_automorphisms(g):
            # the induced map on P/pP: entrywise reduction mod p
            induced = EndoMatrix(ones, em.m.map_entries(lambda v: v % g.p))
            assert (
                reidemeister_number(induced).to_int()
                <= reidemeister_number(em).to_int()
            )


def test_coprime_product_law_elementwise():
    # automorphisms of Z/4 + Z/3 act componentwise; count fixed points by
    # iterating all 12 elements and compare with per-Sylow oracle spectra
    g2, g3 = PGroupType(2, (2,)), PGroupType(3, (1,))
    observed = set()
    for a2 in enumerate_automorphisms(g2):
        for a3 in enumerate_automorphisms(g3):
            fixed = 0
            for x2 in elements(g2):
                for x3 in elements(g3):
                    if apply(a2, x2) == x2 and apply(a3, x3) == x3:
                        fixed += 1
            observed.add(fixed)
    product_set = {
        a.to_int() * b.to_int()
        for a in oracle_spectrum(g2)
        for b in oracle_spectrum(g3)
    }
    assert observed == product_set
    assert observed == set(spec_r_abelian(AbelianGroupType((4, 3))).ints())


# -- sweep internals ----------------------------------------------------------------


def test_sweep_cell_matches_direct_statistics():
    g = PGroupType(2, (1, 2))
    rep = _sweep.sweep_cell(g, DEFAULT_BUDGET)
    autos = list(enumerate_automorphisms(g))
    assert rep.endo_count == endomorphism_count(g)
    assert rep.auto_count == len(autos)
    r_direct = {reidemeister_number(em).nu(2) for em in autos}
    pi_direct = {product_number(em).nu(2) for em in autos}
    assert rep.r_exponents == frozenset(r_direct)
    assert rep.pi_exponents == frozenset(pi_direct)
    assert rep.pi_min == min(pi_direct) and rep.pi_max == max(pi_direct)
    assert rep.structure_violations == 0
    assert rep.samples_ok


def test_auto_count_matches_hillar_rhea():
    cells = [g for p in (2, 3, 5) for g in iter_types(p, max_endos=2**16)]
    assert len(cells) == 91
    for g in cells:
        assert _sweep.sweep_cell(g, DEFAULT_BUDGET).auto_count == _hillar_rhea_aut_count(g), g


def _gl_counts(p, m):
    # (|GL_m(F_p)|, g_m(0)): every m x m matrix mod p, counted when it is
    # invertible, and when both M and M - I are
    mats = np.array(list(product(range(p), repeat=m * m)), dtype=np.int64).reshape(-1, m, m)
    unit = leibniz_det(mats.transpose(1, 2, 0)) % p != 0
    free = leibniz_det((mats - np.eye(m, dtype=np.int64)).transpose(1, 2, 0)) % p != 0
    return int(unit.sum()), int((unit & free).sum())


@pytest.mark.parametrize(
    "g",
    [
        PGroupType(2, (1, 1)),
        PGroupType(2, (1, 1, 2, 2)),
        PGroupType(2, (1, 1, 1, 1)),
        PGroupType(2, (2, 2, 3)),
        PGroupType(3, (1, 2)),
        PGroupType(3, (1, 1, 2)),
        PGroupType(3, (2, 2)),
        PGroupType(3, (1, 1, 1)),
        PGroupType(5, (1, 1)),
        PGroupType(5, (1, 2)),
    ],
    ids=str,
)
def test_fixed_point_free_bin_matches_its_closed_form(g):
    # R = 1 exactly when M - I is an automorphism, that is when each
    # diagonal block of M - I over a run of equal exponents is invertible
    # mod p, so #{R = 1} = |Aut A| * prod g_m(0) / |GL_m(F_p)| over runs
    rep = _sweep.sweep_cell(g, DEFAULT_BUDGET)
    expected = Fraction(_hillar_rhea_aut_count(g))
    for _, run in groupby(g.e):
        gl, free = _gl_counts(g.p, len(list(run)))
        expected *= Fraction(free, gl)
    assert rep.r_histogram[0] == expected
    if g.p == 2:
        # Pi = R at p = 2, where the only unit multiple is 1
        assert rep.pi_histogram == rep.r_histogram


def _gaussian(n, k, q):
    return prod(q ** (n - i) - 1 for i in range(k)) // prod(q ** (i + 1) - 1 for i in range(k))


def _gl_order(n, q):
    return prod(q**n - q**i for i in range(n))


@pytest.mark.parametrize(
    "g",
    [PGroupType(2, (1,) * n) for n in (1, 2, 3, 4)]
    + [PGroupType(3, (1,) * n) for n in (1, 2, 3)]
    + [PGroupType(5, (1,) * n) for n in (1, 2)],
    ids=str,
)
def test_elementary_abelian_r_histogram_matches_its_closed_form(g):
    # for e = (1^n) the exponent of R is dim ker(M - I).  G(j) counts the
    # pairs (W, M) with W of dimension j fixed pointwise by M; Moebius
    # inversion over the subspace lattice gives the number g(k) of M with
    # a fixed space of dimension k (Fulman, Bull. AMS 2002)
    n, q = g.n, g.p
    G = [_gaussian(n, j, q) * q ** (j * (n - j)) * _gl_order(n - j, q) for j in range(n + 1)]
    expected = tuple(
        sum(
            (-1) ** (j - k) * q ** comb(j - k, 2) * _gaussian(j, k, q) * G[j]
            for j in range(k, n + 1)
        )
        for k in range(n + 1)
    )
    assert _sweep.sweep_cell(g, DEFAULT_BUDGET).r_histogram == expected


@pytest.mark.parametrize(
    "g, orbits",
    [
        (PGroupType(2, (1, 2)), 4),
        (PGroupType(2, (1, 1, 2)), 4),
        (PGroupType(2, (2, 2)), 3),
        (PGroupType(2, (1, 1, 1)), 2),
        (PGroupType(3, (1, 1)), 2),
        (PGroupType(3, (1, 2)), 4),
        (PGroupType(5, (1, 2)), 4),
        (PGroupType(2, (1, 2, 3)), 8),
    ],
    ids=lambda v: str(v) if isinstance(v, PGroupType) else f"{v}-orbits",
)
def test_r_histogram_obeys_burnside(g, orbits):
    # Burnside's lemma: the sum of |Fix(phi)| = R(phi) over Aut A is
    # |Aut A| times the number of Aut A-orbits on A.  The orbits are
    # counted by applying every automorphism to one element of each
    autos = list(enumerate_automorphisms(g))
    seen, found = set(), 0
    for x in elements(g):
        if x not in seen:
            seen.update(apply(em, x) for em in autos)
            found += 1
    assert found == orbits
    rep = _sweep.sweep_cell(g, DEFAULT_BUDGET)
    total_r = sum(count * g.p**v for v, count in enumerate(rep.r_histogram))
    assert total_r == len(autos) * orbits


def test_triple_check_small_cells():
    for g in [PGroupType(2, (1, 1)), PGroupType(3, (1, 1)), PGroupType(2, (2, 2))]:
        rep = _sweep.triple_check(g, DEFAULT_BUDGET)
        assert rep.mismatches == 0
        assert rep.samples_ok
        assert rep.endo_count == endomorphism_count(g)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_trivial_cell_reports(p):
    # the trivial group is the n = 0 case of the walk: one empty matrix
    g = PGroupType(p, ())
    rep = _sweep.sweep_cell(g, DEFAULT_BUDGET)
    assert rep == _sweep.CellReport(
        group=g,
        endo_count=1,
        r_histogram=(1,),
        pi_histogram=(1,),
        structure_violations=0,
        samples_checked=1,
        samples_ok=True,
    )
    assert rep.auto_count == 1
    assert rep.r_exponents == rep.pi_exponents == frozenset({0})
    assert rep.pi_min == rep.pi_max == 0
    assert _sweep.triple_check(g, DEFAULT_BUDGET) == _sweep.TripleReport(g, 1, 0, 1, True)


@pytest.mark.parametrize(
    "g",
    [
        PGroupType(2, ()),
        PGroupType(2, (17,)),
        PGroupType(3, (1, 2)),
        PGroupType(3, (1, 1, 2)),
        PGroupType(5, (1, 1)),
        PGroupType(2, (1, 1, 1, 2)),
    ],
    ids=str,
)
@pytest.mark.parametrize("cap", [10, 8192])
def test_walk_is_carry_free(g, cap):
    # each chunk is the first one plus its decoded start, and must be the
    # plain decode of its index range; the ranges cover every index once.
    # A chunk is a * p^K <= cap rows (a < p), or the rest of its p^(K+1)
    # cycle.  Chunks shorter than |A| come offset by offset (start mod
    # |A|), so only the multiset of their lengths is fixed
    total = endomorphism_count(g)
    strides, counts = (np.array(v, dtype=np.int64) for v in canonical_parameters(g))
    samples = _sweep._sample_indices(total, _sweep.SWEEP_SAMPLES)
    step = max(g.p**k for k in range(64) if g.p**k <= min(cap, total))
    width = min(cap, total) // step * step
    cycle = min(step * g.p, total)
    lengths, start = [], 0
    while start < total:
        lengths.append(min(width, cycle - start % cycle))
        start += lengths[-1]
    visits = np.zeros(total, dtype=np.int64)
    walked = []
    for mats, positions in _sweep._walk(g, total, _sweep.SWEEP_SAMPLES, cap):
        start = int(weights(counts) @ (mats[:, :, 0].reshape(-1) // strides))
        stop = start + mats.shape[2]
        expected = _sweep._decode(np.arange(start, stop, dtype=np.int64), strides, counts, g.n)
        assert np.array_equal(mats, expected)
        assert positions.tolist() == [v - start for v in samples if start <= v < stop]
        visits[start:stop] += 1
        walked.append(mats.shape[2])
    assert (visits == 1).all()
    assert sorted(walked) == sorted(lengths)


@pytest.mark.parametrize(
    "g, cap",
    [
        (PGroupType(8209, (1,)), 63),
        (PGroupType(3, (1, 1, 2)), 2157),
        (PGroupType(2, (1, 11)), 64),
        (PGroupType(2, (1, 1, 1, 2)), 10),
        (PGroupType(5, (1, 1)), 7),
        (PGroupType(7, (1, 2)), 8192),
        (PGroupType(2, ()), 1),
    ],
    ids=str,
)
def test_walk_chunks_are_whole_blocks_or_inside_one(g, cap):
    # the element kernel's precondition: a chunk of a * p^K rows inside a
    # p^(K+1) cycle, of a total that |A| divides, is whole blocks of |A|
    # from a block boundary or a run inside one block
    total, order = endomorphism_count(g), g.order
    strides, counts = (np.array(v, dtype=np.int64) for v in canonical_parameters(g))
    kinds = set()
    for mats, _ in _sweep._walk(g, total, 1, cap):
        start = int(weights(counts) @ (mats[:, :, 0].reshape(-1) // strides))
        length = mats.shape[2]
        whole = start % order == 0 and length % order == 0
        inside = start // order == (start + length - 1) // order
        assert whole or inside
        kinds.add("whole" if whole else "inside")
    assert kinds == ({"whole"} if cap >= order else {"inside"})


def test_samples_survive_chunk_boundaries(monkeypatch):
    # triple_check's cap is min(8192, 2^19 // (order * n)); its chunks
    # are a * p^K rows up to the cap, or the rest of a p^(K+1) cycle.
    # sweep_cell's cap is 8192 for n <= 4; when the free digits fit it,
    # each of its chunks is cap // (free values) kept residue patterns
    # times every free value.  p=2 e=1,1,1,2: 2^17 endomorphisms of a
    # group of order 32, so 32 triple chunks of 2^19 // 128 = 4096; 168
    # patterns (GL_3(F_2) x GL_1(F_2)) times 2^7 free values, 64 to a
    # sweep chunk.  p=3 e=1,1,2: 3^10 endomorphisms of a group of order
    # 81, so under the cap 2^19 // 243 = 2157, chunks of 2 * 3^6 = 1458
    # and the 729 left of each 3^7 cycle, 27 cycles; 96 patterns
    # (GL_2(F_3) x GL_1(F_3)) times 3^5 free values, 33 to a sweep chunk.
    # p=2 e=1,9: 2^12 endomorphisms of a group of order 1024, 16 triple
    # chunks of 2^19 // 2048 = 256 rows, which the walk visits offset by
    # offset (start mod 1024), not in index order; one pattern times
    # 2^10 free values in one sweep chunk
    cases = [
        (PGroupType(2, (1, 1, 1, 2)), [64 * 128] * 2 + [40 * 128], [4096] * 32),
        (PGroupType(3, (1, 1, 2)), [33 * 243] * 2 + [30 * 243], [1458, 729] * 27),
        (PGroupType(2, (1, 9)), [1024], [256] * 16),
    ]
    chunks = []

    def counting(walk):
        def counted(*args):
            for item in walk(*args):
                chunks.append(item[0].shape[2])
                yield item

        return counted

    monkeypatch.setattr(_sweep, "_walk", counting(_sweep._walk))
    monkeypatch.setattr(_sweep, "_automorphisms", counting(_sweep._automorphisms))
    for g, sweep_chunks, triple_chunks in cases:
        total = endomorphism_count(g)
        chunks.clear()
        # __wrapped__ skips the lru_cache, so the walk really runs
        rep = _sweep.sweep_cell.__wrapped__(g, DEFAULT_BUDGET)
        assert chunks == sweep_chunks
        assert rep.samples_checked == len(_sweep._sample_indices(total, _sweep.SWEEP_SAMPLES))
        assert rep.samples_ok
        chunks.clear()
        rep = _sweep.triple_check.__wrapped__(g, DEFAULT_BUDGET)
        assert sorted(chunks) == sorted(triple_chunks)
        assert rep.samples_checked == len(_sweep._sample_indices(total, _sweep.TRIPLE_SAMPLES))
        assert rep.samples_ok and rep.mismatches == 0


def test_sample_reanchoring_runs_the_whole_reference_route(monkeypatch):
    # every sample of a p = 5 cell reaches is_automorphism once, and every
    # sampled automorphism _r_pi_exponents and _reference_structure_ok once;
    # _r_pi_exponents takes p - 1 lattice indices, one per unit multiple,
    # the k = 1 one serving both R and Pi
    g = PGroupType(5, (1, 2))
    total = endomorphism_count(g)
    indices = _sweep._sample_indices(total, _sweep.SWEEP_SAMPLES)
    mats = _sweep._decode(indices, *canonical_parameters(g), g.n)
    autos = sum(is_automorphism(_sweep._to_endo(g, mats[:, :, b])) for b in range(len(indices)))
    assert len(indices) == _sweep.SWEEP_SAMPLES and 0 < autos < len(indices)

    calls = Counter()
    per_helper = []

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            before = calls["lattice_index"]
            out = fn(*args)
            if name == "_r_pi_exponents":
                per_helper.append(calls["lattice_index"] - before)
            return out

        monkeypatch.setattr(module, name, counted)

    for module, name in [
        (_sweep, "_r_pi_exponents"),
        (_sweep, "_reference_structure_ok"),
        (_sweep, "is_automorphism"),
        (endo, "lattice_index"),
    ]:
        counting(module, name)
    assert _sweep._recheck_samples(g, total) == (len(indices), True)
    assert calls["_r_pi_exponents"] == calls["_reference_structure_ok"] == autos
    # one in the loop per sample, one on each restricted automorphism
    assert calls["is_automorphism"] == len(indices) + autos
    assert per_helper == [g.p - 1] * autos
    assert calls["lattice_index"] == autos * (g.p - 1)


@pytest.mark.parametrize(
    "g, fault",
    [
        *[(PGroupType(5, (1, 2)), fault) for fault in ("k=1", "k>1", "R")],
        *[(PGroupType(3, (1, 1)), fault) for fault in ("k=1", "k>1", "R")],
        *[(PGroupType(2, (1, 2)), fault) for fault in ("k=1", "R")],  # p = 2 has no k > 1
    ],
    ids=str,
)
def test_sample_reanchoring_catches_a_fault_in_one_number(monkeypatch, g, fault):
    # one more on the batched exponent of the k = 1 rows alone changes R
    # and Pi, on the k > 1 rows alone only Pi, and on R's histogram input
    # alone only R; the per-object route must see each, so it may neither
    # derive R from Pi nor compare either number with itself
    fix, exponents = _sweep._fix_exponents, _sweep._exponents

    def faulty_fix(mats, g, multiplier):
        return fix(mats, g, multiplier) + ((np.asarray(multiplier) == 1) == (fault == "k=1"))

    def faulty_exponents(autos, live, g):
        r_exp, pi_exp = exponents(autos, live, g)
        return r_exp + 1, pi_exp

    total = endomorphism_count(g)
    assert _sweep._recheck_samples(g, total)[1]
    if fault == "R":
        monkeypatch.setattr(_sweep, "_exponents", faulty_exponents)
    else:
        monkeypatch.setattr(_sweep, "_fix_exponents", faulty_fix)
    assert _sweep._recheck_samples(g, total) == (min(total, _sweep.SWEEP_SAMPLES), False)


def _multiset(mats):
    return Counter(tuple(mats[:, :, b].reshape(-1).tolist()) for b in range(mats.shape[2]))


@pytest.mark.parametrize(
    "g, cap",
    [
        (PGroupType(2, ()), 4),
        # the free digits fit the cap: kept patterns are batched
        (PGroupType(2, (1, 1)), 4),
        (PGroupType(2, (1, 1, 1, 1)), 1000),
        (PGroupType(3, (1, 2)), 60),
        # they do not: each pattern is walked over chunks of free values
        (PGroupType(2, (1, 1, 2)), 12),
        (PGroupType(2, (1, 2, 2)), 12),
        # chunks of a * p^K with 1 < a < p: 6 = 2 * 3 and 3 < 5
        (PGroupType(3, (1, 1)), 7),
        (PGroupType(5, (1,)), 3),
    ],
    ids=str,
)
def test_automorphism_walk_is_the_filtered_endomorphisms(g, cap):
    total = endomorphism_count(g)
    expected = Counter()
    for mats, _ in _sweep._walk(g, total, 1, 8192):
        expected += _multiset(mats[:, :, _sweep._invertible_mod_p(mats, g)])
    chunks = [rows for rows, _ in _sweep._automorphisms(g, cap)]
    assert all(r.flags.c_contiguous and r.shape[:2] == (g.n, g.n) for r in chunks)
    assert len(chunks) > 1 or g.n == 0
    assert all(0 < mats.shape[2] <= cap and mats.dtype == np.int32 for mats in chunks)
    walked = np.concatenate(chunks, axis=2)
    assert _multiset(walked) == expected
    assert walked.shape[2] == _hillar_rhea_aut_count(g)
    assert all(is_automorphism(_sweep._to_endo(g, walked[:, :, b])) for b in range(walked.shape[2]))


def test_automorphism_walk_batches_primes_past_the_cap():
    # p = 8209 > 8192, sweep_cell's cap for n = 1: the residues split into
    # chunks of 8192 and 17 patterns, so no chunk is a single row.  At
    # triple_check's cap for this cell, 2^19 // 8209 = 63, _walk cuts the
    # one 8209-index cycle into 130 chunks of 63 rows and the 19 left
    g = PGroupType(8209, (1,))
    lengths = [rows.shape[2] for rows, _ in _sweep._automorphisms(g, 8192)]
    assert lengths == [8191, 17]
    lengths = [mats.shape[2] for mats, _ in _sweep._walk(g, g.p, 1, 63)]
    assert lengths == [63] * 130 + [19]


def test_sweep_cell_checks_its_walk_against_hillar_rhea(monkeypatch):
    walk = _sweep._automorphisms

    def dropping_walk(*args):
        chunks = walk(*args)
        next(chunks)
        yield from chunks

    monkeypatch.setattr(_sweep, "_automorphisms", dropping_walk)
    with pytest.raises(InvariantViolation, match="walked"):
        _sweep.sweep_cell.__wrapped__(PGroupType(2, (1, 1)), DEFAULT_BUDGET)


def _live_pairs(rows, live):
    # the (row, k) pairs of a walk chunk's live set
    live_rows, ks = live
    if live_rows is None:
        live_rows = np.arange(rows.shape[2])
    return set(zip(live_rows.tolist(), ks.tolist()))


@pytest.mark.parametrize(
    "g, cap",
    [
        (PGroupType(2, (1, 1, 1, 1)), 8192),
        (PGroupType(2, (1, 1, 2)), 8192),
        (PGroupType(3, (1, 1, 2)), 8192),
        (PGroupType(2, (1, 1, 1, 2)), 8192),
        (PGroupType(5, (2, 2)), 8192),
        (PGroupType(7, (1, 1)), 8192),
        # 1x1 blocks at p = 7, with patterns spread over chunks of free values
        (PGroupType(7, (1, 2)), 20),
    ],
    ids=str,
)
def test_live_multipliers_are_the_nonzero_exponents(g, cap, monkeypatch):
    # every automorphism and every unit multiple: the walk's live pairs
    # are exactly the (row, k) with a nonzero _fix_exponents, and the
    # R and Pi exponents built from them are those of every multiple.
    # With a block larger than 1x1 the every-k test covers the 1x1
    # blocks too, so no inverse is computed on such a type
    if len(set(g.e)) < g.n:
        monkeypatch.setattr(_sweep, "_inverse_mod_p", None)
    walked = 0
    for rows, live in _sweep._automorphisms(g, cap):
        exps = {k: _sweep._fix_exponents(rows, g, k) for k in range(1, g.p)}
        nonzero = {(i, k) for k, e in exps.items() for i in np.flatnonzero(e).tolist()}
        assert _live_pairs(rows, live) == nonzero
        assert len(live[1]) <= g.n * rows.shape[2]
        r_exp, pi_exp = _sweep._exponents(rows, live, g)
        assert np.array_equal(r_exp, exps[1])
        assert np.array_equal(pi_exp, sum(exps.values()))
        walked += rows.shape[2]
    assert walked == _hillar_rhea_aut_count(g)


def test_live_multipliers_need_at_most_n_eliminations_per_automorphism(monkeypatch):
    # p = 1009: one live multiplier, r^-1 mod p, per automorphism instead
    # of p - 1 = 1008 eliminations
    g = PGroupType(1009, (2,))
    passed = []
    fix = _sweep._fix_exponents

    def counted(mats, *args):
        passed.append(mats.shape[2])
        return fix(mats, *args)

    monkeypatch.setattr(_sweep, "_fix_exponents", counted)
    walked = 0
    r_hist = np.zeros(g.total_exponent + 1, dtype=np.int64)
    for rows, live in _sweep._automorphisms(g, 8192):
        r_exp, _ = _sweep._exponents(rows, live, g)
        r_hist += np.bincount(r_exp, minlength=r_hist.size)
        walked += rows.shape[2]
    assert walked == _hillar_rhea_aut_count(g)
    assert sum(passed) <= g.n * walked
    # |Fix(phi)| for phi = x -> r x on Z/p^2 is gcd(r - 1, p^2)
    assert r_hist.tolist() == [(g.p - 2) * g.p, g.p - 1, 1]


def _full_det_invertible(mats, g):
    # reference: the n x n determinant mod p of an (n, n, B) stack,
    # ignoring the block structure
    return leibniz_det(mats % g.p) % g.p != 0


@pytest.mark.parametrize(
    "g",
    [
        PGroupType(2, (1, 1, 2, 2)),
        PGroupType(2, (1, 1, 1, 2)),
        PGroupType(2, (1, 2, 3)),
        PGroupType(3, (1, 1, 2)),
        PGroupType(3, (2, 2)),
    ],
    ids=str,
)
def test_run_block_invertibility_matches_full_determinant(g, monkeypatch):
    # every canonical endomorphism against the full determinant, and an
    # even spread of 2^14 (all of them in the smaller cells) against the
    # per-object is_automorphism.  _structure_ok sees every matrix, not
    # just the automorphisms, so that its invertibility test can fail
    total = endomorphism_count(g)
    blocks, full, structure, structure_full = [], [], [], []
    for mats, positions in _sweep._walk(g, total, 2**14, 8192):
        amask = _sweep._invertible_mod_p(mats, g)
        blocks.append(amask)
        full.append(_full_det_invertible(mats, g))
        for pos in positions:
            assert bool(amask[pos]) == is_automorphism(_sweep._to_endo(g, mats[:, :, pos]))
        structure.append(_sweep._structure_ok(mats, g))
        with monkeypatch.context() as m:
            m.setattr(_sweep, "_invertible_mod_p", _full_det_invertible)
            structure_full.append(_sweep._structure_ok(mats, g))
    assert np.array_equal(np.concatenate(blocks), np.concatenate(full))
    structure = np.concatenate(structure)
    assert np.array_equal(structure, np.concatenate(structure_full))
    assert structure.any() and not structure.all()


def test_triple_check_past_float64_bound_is_over_budget(monkeypatch):
    # n * p^{2E} >= 2^53, so at least 2^50 endomorphism x element pairs:
    # the order cap refuses them before _walk, whose _chunks would list
    # 2^27 chunk starts
    huge = 2**70
    monkeypatch.setattr(_sweep, "_walk", None)
    for g in [PGroupType(2, (27,)), PGroupType(2, (1, 26))]:
        assert _sweep.batchable(g)
        with pytest.raises(BudgetExceeded, match="group order 134217728 exceeds the cap 16384"):
            _sweep.triple_check(g, huge)


def test_batchable_guard():
    assert _sweep.batchable(PGroupType(2, (5, 5)))
    assert _sweep.batchable(PGroupType(2, ()))
    # bounds: elimination products p^{2E} < 2^62, fewer than 2^62 indices
    assert _sweep.batchable(PGroupType(2, (1,) * 6))
    assert _sweep.batchable(PGroupType(2, (1, 1, 19)))
    assert _sweep.batchable(PGroupType(2, (1, 30)))
    assert not _sweep.batchable(PGroupType(2, (1, 31)))
    assert not _sweep.batchable(PGroupType(2, (1,) * 8))
    assert not _sweep.batchable(PGroupType(2, (9,) * 5))
    # n = 1 has no elimination; the unit scaling k*M stays below p^{E+1}
    assert _sweep.batchable(PGroupType(2, (60,)))
    assert not _sweep.batchable(PGroupType(2, (61,)))
    assert not _sweep.batchable(PGroupType(7, (22,)))


def test_product_bound_covers_the_packed_pivot_keys():
    # key * n^2 + position with key <= p^E; at E = 1 and n = 5 that
    # exceeds the elimination's p^{2E}
    assert _sweep._product_bound(PGroupType(2, (1,) * 5)) == 3 * 25


def test_unbatchable_cell_is_over_budget():
    huge = 2**70
    for g in [PGroupType(2, (1, 31)), PGroupType(2, (9,) * 5)]:
        with pytest.raises(BudgetExceeded):
            _sweep.sweep_cell(g, huge)
        with pytest.raises(BudgetExceeded):
            _sweep.triple_check(g, huge)


@pytest.mark.parametrize(
    "g",
    [
        # cells the Leibniz-minor engine refused: large entries, or n = 6
        PGroupType(2, (1, 1, 19)),
        PGroupType(2, (1,) * 6),
        PGroupType(3, (1, 1, 12)),
        # the largest E at each dtype: p^{2E} < 2^62 in int64, and with
        # n = 1 p^{E+1} < 2^31 in int32
        PGroupType(2, (1, 30)),
        PGroupType(2, (29,)),
        # the largest int32 E at n = 2, where the packed pivot keys
        # key * n^2 + position are largest
        PGroupType(2, (1, 15)),
        PGroupType(3, (1, 9)),
        # odd p, k = 1 .. 4 through the valuation key
        PGroupType(5, (1, 1, 2)),
        # n = 5: 25 packed positions
        PGroupType(2, (1, 1, 1, 1, 1)),
    ],
    ids=str,
)
def test_fix_exponents_matches_fixed_point_count(g):
    assert _sweep.batchable(g)
    total = endomorphism_count(g)
    idx = np.unique(np.linspace(0, total - 1, 97).astype(np.int64))
    idx = np.concatenate([idx, np.random.default_rng(7).integers(0, total, 60)])
    mats = _sweep._decode(idx, *canonical_parameters(g), g.n).astype(_sweep._stack_dtype(g))
    for k in range(1, g.p):
        batched = _sweep._fix_exponents(mats, g, k)
        for b, exp in enumerate(batched):
            em = scale(_sweep._to_endo(g, mats[:, :, b]), k)
            assert fixed_point_count(em).nu(g.p) == exp


def _dtype_id(value):
    return value.__name__ if isinstance(value, type) else str(value)


def _random_canonical(g, rng, batch, dtype):
    # (n, n, B): entry (i, j) is stride * t, 0 <= t < count (canonical_parameters)
    strides, counts = (np.array(v, dtype=np.int64) for v in canonical_parameters(g))
    t = rng.integers(0, counts, (batch, g.n * g.n))
    return (t * strides).reshape(batch, g.n, g.n).transpose(1, 2, 0).astype(dtype)


def _edge_matrices(g, dtype):
    # (n, n, B) stacks that stress the elimination at k = 1: the identity
    # (kM - I = 0, every pivot p^E); I + E_00 (the active submatrix is 0
    # after one pivot); the largest canonical entries; with equal
    # exponents (p^E - 1)(J - I), whose kM - I has every entry p^E - 1
    n, top = g.n, g.p ** max(g.e)
    strides, counts = canonical_parameters(g)
    eye = np.eye(n, dtype=np.int64)
    bump = eye.copy()
    bump[0, 0] = 2
    largest = (np.array(strides) * (np.array(counts) - 1)).reshape(n, n)
    mats = [eye, bump, largest]
    if len(set(g.e)) == 1:
        mats.append((top - 1) * (1 - eye))
    return np.stack(mats, axis=2).astype(dtype)


@pytest.mark.parametrize(
    "g, dtype",
    [
        # the largest E at each p and dtype: p^{2E} < 2^31, and < 2^62
        (PGroupType(2, (1, 15)), np.int32),
        (PGroupType(2, (1, 30)), np.int64),
        (PGroupType(3, (1, 9)), np.int32),
        (PGroupType(3, (1, 1, 19)), np.int64),
        (PGroupType(5, (1, 6)), np.int32),
        (PGroupType(5, (2, 13)), np.int64),
        (PGroupType(7, (1, 5)), np.int32),
        (PGroupType(7, (1, 11)), np.int64),
        (PGroupType(2053, (1, 1, 1)), np.int32),
        (PGroupType(2053, (1, 2)), np.int64),
        # n = 1, where p^{E+1} sets the dtype
        (PGroupType(3, (18,)), np.int32),
        (PGroupType(2, (60,)), np.int64),
        # equal exponents, and n = 4, 5
        (PGroupType(3, (2, 2, 2)), np.int32),
        (PGroupType(7, (3, 3)), np.int32),
        (PGroupType(3, (1, 1, 2, 2)), np.int32),
        (PGroupType(2, (1, 1, 1, 1, 1)), np.int32),
        (PGroupType(5, (1, 1, 2, 3, 7)), np.int64),
    ],
    ids=_dtype_id,
)
def test_fix_exponents_matches_the_gcd_keyed_elimination(g, dtype):
    # the valuation keys and exact divisions against the gcd keys, the
    # divisions by the pivot and the pass over v <= E they replaced, on
    # random canonical stacks with one multiplier per matrix
    assert _sweep._stack_dtype(g) == dtype
    rng = np.random.default_rng(g.p + len(g.e))
    edges = _edge_matrices(g, dtype)
    stack = np.concatenate([edges, _random_canonical(g, rng, 509, dtype)], axis=2)
    given = stack.copy()
    ks = rng.integers(1, g.p, stack.shape[2]).astype(dtype)
    ks[: edges.shape[2]] = 1
    for multiplier in [ks, g.p - 1]:
        exps = _sweep._fix_exponents(stack, g, multiplier)
        assert np.array_equal(exps, gcd_fix_exponents(stack, g, multiplier))
        for b in range(8):  # the edge matrices and a few random ones, per object
            k = int(np.broadcast_to(multiplier, ks.shape)[b])
            em = scale(_sweep._to_endo(g, stack[:, :, b]), k)
            assert fixed_point_count(em).nu(g.p) == exps[b]
    assert np.array_equal(stack, given)
    assert _sweep._fix_exponents(stack[:, :, :1], g, 1).tolist() == [g.total_exponent]


def _valuation(a, p, cap):
    v = 0
    while v < cap and a % p**(v + 1) == 0:
        v += 1
    return v


@pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=_dtype_id)
@pytest.mark.parametrize("p", [3, 5, 7, 2053])
def test_valuations_match_the_exact_valuation(p, dtype):
    # every power of p in the dtype, its neighbours and random multiples,
    # 0 and the largest entry, under a small cap and under the largest
    rng = np.random.default_rng(p)
    largest = np.iinfo(dtype).max
    powers = [p**j for j in range(64) if p**j <= largest]
    values = {0, 1, largest, largest - 1}
    for q in powers:
        values |= {q, q - 1, q + 1, largest // q * q}
        values |= {int(m) * q for m in rng.integers(1, largest // q + 1, 8)}
    a = np.array(sorted(v for v in values if 0 <= v <= largest), dtype=dtype)
    for cap in [1, 3, len(powers) - 1, len(powers)]:
        got = _sweep._valuations(a, p, cap)
        assert got.tolist() == [_valuation(int(v), p, cap) for v in a]


def _closing_blocks(p, top_exp):
    # 2x2 blocks (a, b, c, d) with entries of valuation >= 1 in [0, p^E),
    # for E >= 2 (E >= 3 at p = 2): all zero; ad = bc != 0; bc > ad, so
    # ad - bc < 0; v(ad - bc) = 2E - 1, by a = d = p^E - x, b = c = x with
    # v(p^E - 2x) = E - 1; and least valuation E - 1
    top = p**top_exp
    x = 2 ** (top_exp - 2) if p == 2 else p ** (top_exp - 1) * (p - 1) // 2
    blocks = {
        "zero": (0, 0, 0, 0),
        "singular": (p, p, p, p),
        "negative": (p, p, 2 * p, p),
        "deep": (top - x, x, x, top - x),
        "shallow": (top // p, 0, 0, top // p),
    }
    for name, (a, b, c, d) in blocks.items():
        det = a * d - b * c
        assert all(0 <= v < top and (v % p == 0) for v in (a, b, c, d))
        assert {
            "zero": (a, b, c, d) == (0, 0, 0, 0),
            "singular": det == 0 and a != 0,
            "negative": det < 0,
            "deep": _valuation(det, p, 2 * top_exp) == 2 * top_exp - 1,
            "shallow": min(_valuation(v, p, top_exp) for v in (a, b, c, d)) == top_exp - 1,
        }[name]
    return list(blocks.values())


@pytest.mark.parametrize(
    "g",
    [
        PGroupType(2, (3, 3, 3)),
        PGroupType(2, (3, 3, 3, 3)),
        PGroupType(3, (2, 2, 2)),
        PGroupType(3, (2, 2, 2, 2)),
        PGroupType(5, (2, 2, 2)),
        PGroupType(5, (2, 2, 2, 2)),
        # p^{2E} >= 2^31: an int64 stack
        PGroupType(2, (16, 16, 16)),
    ],
    ids=str,
)
def test_fix_exponents_closes_on_every_active_block(g):
    # homocyclic, so at k = 1 the eliminated matrix is N = M - I mod p^E:
    # unit pivots on a partial permutation of the other n - 2 rows and
    # columns leave each block on each of the C(n, 2)^2 placements of the
    # last 2x2 block, whose Smith valuations then sum to min(t, t1 + E)
    n, top_exp, p = g.n, g.e[0], g.p
    top = p**top_exp
    mats, expected = [], []
    for rows in combinations(range(n), 2):
        for cols in combinations(range(n), 2):
            used_rows = [i for i in range(n) if i not in rows]
            used_cols = [j for j in range(n) if j not in cols]
            for order in permutations(used_cols):
                for a, b, c, d in _closing_blocks(p, top_exp):
                    diff = np.zeros((n, n), dtype=object)
                    for k, (i, j) in enumerate(zip(used_rows, order)):
                        diff[i, j] = 1 if k % 2 else top - 1
                    (r0, r1), (c0, c1) = rows, cols
                    diff[r0, c0], diff[r0, c1], diff[r1, c0], diff[r1, c1] = a, b, c, d
                    mats.append((diff + np.eye(n, dtype=object)) % top)
                    t1 = min(_valuation(v, p, top_exp) for v in (a, b, c, d))
                    expected.append(min(_valuation(a * d - b * c, p, 2 * top_exp), t1 + top_exp))
    dtype = _sweep._stack_dtype(g)
    assert dtype == (np.int64 if p ** (2 * top_exp) >= 2**31 else np.int32)
    stack = np.stack(mats, axis=2).astype(dtype)
    exps = _sweep._fix_exponents(stack, g, 1)
    assert exps.tolist() == expected
    assert np.array_equal(exps, gcd_fix_exponents(stack, g, 1))
    for b in range(stack.shape[2]):
        assert fixed_point_count(_sweep._to_endo(g, stack[:, :, b])).nu(p) == exps[b]


@pytest.mark.parametrize(
    "g, dtype",
    [
        # int32 exactly when p^{2E} < 2^31: 2^30 and 3^18 fit, 2^32 and 3^20 do not
        (PGroupType(2, (1, 15)), np.int32),
        (PGroupType(2, (1, 16)), np.int64),
        (PGroupType(3, (1, 9)), np.int32),
        (PGroupType(3, (1, 10)), np.int64),
        # every block kind under the structure check: b and c blocks with
        # d = (0, 0, 1), a and c blocks with d = (0, 0, 1), c and b blocks
        # with d = (0, 1, 1)
        (PGroupType(2, (1, 2, 3)), np.int32),
        (PGroupType(3, (1, 1, 2)), np.int32),
        (PGroupType(2, (1, 3, 4)), np.int32),
    ],
    ids=_dtype_id,
)
def test_stages_are_exact_on_both_sides_of_the_int32_rule(g, dtype):
    # every stage on an even spread of the walk's own rows, at its dtype,
    # against the per-object routes
    total = endomorphism_count(g)
    rows = []
    for mats, positions in _sweep._walk(g, total, 160, 8192):
        assert mats.dtype == dtype
        rows.append(mats[:, :, positions])
    stack = np.concatenate(rows, axis=2)
    assert stack.shape[2] == 160
    ems = [_sweep._to_endo(g, stack[:, :, b]) for b in range(160)]
    amask = _sweep._invertible_mod_p(stack, g)
    assert amask.tolist() == [is_automorphism(em) for em in ems]
    assert amask.any() and not amask.all()
    for k in range(1, g.p):
        exps = _sweep._fix_exponents(stack, g, k)
        assert exps.tolist() == [fixed_point_count(scale(em, k)).nu(g.p) for em in ems]
    dec = abc_decompose(g)
    structure = _sweep._structure_ok(stack, g)
    assert structure.tolist() == [_sweep._reference_structure_ok(em, dec) for em in ems]
    assert structure.any() and not structure.all()


def test_block_determinants_accumulate_in_int64():
    # p = 2053: p^2 < 2^31 gives int32 stacks, but a product of three
    # residues reaches (p - 1)^3 > 2^32
    g = PGroupType(2053, (1, 1, 1))
    mats = np.random.default_rng(11).integers(0, g.p, (64, 3, 3)).astype(np.int32)
    mats[0] = g.p - 1
    mats[1] = np.eye(3, dtype=np.int32) * (g.p - 1)
    assert _sweep._batch_det(mats[:2].transpose(1, 2, 0)).tolist() == [0, (g.p - 1) ** 3]
    amask = _sweep._invertible_mod_p(mats.transpose(1, 2, 0), g)
    assert amask.tolist() == [is_automorphism(_sweep._to_endo(g, m)) for m in mats]


def test_batch_det_refuses_a_batch_first_stack():
    # read as batch-last, a (B, n, n) stack with B < n gives determinants
    # of the wrong entries, a wrong answer, and one with B > n an IndexError;
    # the guard names the layout in both cases
    with pytest.raises(InvariantViolation, match="n, n, B"):
        _sweep._batch_det(np.zeros((5, 3, 3), dtype=np.int64))
    with pytest.raises(InvariantViolation):
        _sweep._batch_det(np.zeros((3, 3), dtype=np.int64))


@pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=["int32", "int64"])
@pytest.mark.parametrize(
    "p, n", [(p, n) for p in (2, 3, 5) for n in range(1, 8)] + [(2053, n) for n in range(1, 5)]
)
def test_batch_det_equals_the_leibniz_sum(p, n, dtype):
    # residue stacks led by the all-(p - 1) matrix and (p - 1) I, whose
    # determinant (p - 1)^n passes 2^31 from n = 3 at p = 2053
    mats = np.random.default_rng(n * p).integers(0, p, (n, n, 64)).astype(dtype)
    mats[:, :, 0] = p - 1
    mats[:, :, 1] = np.eye(n, dtype=dtype) * (p - 1)
    det = _sweep._batch_det(mats)
    assert det.dtype == np.int64
    assert det.tolist() == leibniz_det(mats).tolist()
    assert det[1] == (p - 1) ** n


def test_stages_refuse_a_batch_first_stack():
    # read as batch-last, one 3 x 3 matrix in the (B, n, n) layout would be
    # three 1 x 3 matrices: a wrong answer, not an error, without the guard
    g = PGroupType(2, (1, 2, 3))
    stages = [
        lambda mats: _sweep._fix_exponents(mats, g, 1),
        lambda mats: _sweep._structure_ok(mats, g),
        lambda mats: _sweep._live(mats, g),
        lambda mats: _sweep._invertible_mod_p(mats, g),
        lambda mats: _sweep._element_counts(mats, g),
    ]
    identity = np.eye(3, dtype=np.int32)[None]
    for stage in stages:
        with pytest.raises(InvariantViolation, match="n, n, B"):
            stage(identity)
        stage(identity.transpose(1, 2, 0))
    assert _sweep._fix_exponents(identity.transpose(1, 2, 0), g, 1).tolist() == [6]


RAISED_BUDGET = 2**25
P7_CELLS = [PGroupType(7, e) for e in [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (1, 3), (1, 4), (2, 2)]]


@pytest.mark.slow
@pytest.mark.parametrize(
    "g, dtype",
    [(g, np.int32) for g in P7_CELLS]
    # the smallest p = 7 cell past the int32 rule, e = (1, 6), has 7^9
    # endomorphisms; p = 3 e = 1,10 covers the int64 side
    + [(PGroupType(3, (1, 10)), np.int64), (PGroupType(2, (1,) * 5), np.int32)],
    ids=_dtype_id,
)
def test_sweep_cell_beyond_the_default_cells(g, dtype):
    assert next(_sweep._walk(g, 1, 1, 1))[0].dtype == dtype
    rep = _sweep.sweep_cell(g, RAISED_BUDGET)
    closed = spec_r_2group(g) if g.p == 2 else spec_r_odd_p(g)
    assert oracle_spectrum(g, budget=RAISED_BUDGET) == closed
    assert oracle_spectrum(g, use_pi=True, budget=RAISED_BUDGET) == spec_p(g)
    assert rep.auto_count == _hillar_rhea_aut_count(g)
    dec = abc_decompose(g)
    assert (rep.pi_min, rep.pi_max) == (dec.floor_exponent, g.total_exponent)
    assert rep.structure_violations == 0 and rep.samples_ok


@pytest.mark.slow
@pytest.mark.parametrize(
    "g",
    # at most 2^30 endomorphism x element pairs each
    [g for g in P7_CELLS if endomorphism_count(g) * g.order <= 2**30] + [PGroupType(2, (1,) * 5)],
    ids=str,
)
def test_triple_check_beyond_the_default_cells(g):
    rep = _sweep.triple_check(g, RAISED_BUDGET)
    assert rep.endo_count == endomorphism_count(g)
    assert rep.mismatches == 0 and rep.samples_ok


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_reduce_matches_np_mod(data):
    # operands as the stages make them: |a| <= p^{2E}, modulus p^k with k <= E
    dtype, limit = data.draw(st.sampled_from([(np.int32, 2**31), (np.int64, 2**62)]))
    p = data.draw(st.sampled_from([2, 3, 5, 7, 46337]))
    top_exp = data.draw(st.integers(1, max(v for v in range(1, 64) if p ** (2 * v) < limit)))
    big = p ** (2 * top_exp)
    m = p ** data.draw(st.integers(1, top_exp))
    rows = data.draw(st.integers(1, 8))
    values = data.draw(st.lists(st.integers(-big, big - 1), min_size=rows * 3, max_size=rows * 3))
    arr = np.array(values, dtype=dtype).reshape(rows, 3)
    before = arr.copy()
    column = _sweep._reduce(arr[:, 1], m)
    assert column.dtype == dtype
    assert np.array_equal(column, np.mod(before[:, 1], m))
    assert np.array_equal(arr, before)  # the view's base is untouched
    owned = arr.copy()
    assert _sweep._reduce(owned, m, out=owned) is owned
    assert np.array_equal(owned, np.mod(before, m))


# -- partitions and type iteration ----------------------------------------------------


def test_iter_partitions():
    assert list(iter_partitions(0)) == [()]
    assert sorted(iter_partitions(4)) == [
        (1, 1, 1, 1),
        (1, 1, 2),
        (1, 3),
        (2, 2),
        (4,),
    ]


def test_iter_types_by_order():
    types = list(iter_types(2, max_order=8))
    assert PGroupType(2, ()) in types
    assert PGroupType(2, (1, 1, 1)) in types
    assert PGroupType(2, (3,)) in types
    assert all(g.order <= 8 for g in types)
    assert len(types) == 1 + 1 + 2 + 3  # orders 1, 2, 4, 8
    with pytest.raises(ValueError, match="at least one of"):
        list(iter_types(2))


def test_iter_types_by_endo_budget():
    types = list(iter_types(2, max_endos=2**6))
    assert all(endomorphism_count(g) <= 2**6 for g in types)
    assert PGroupType(2, (1, 1)) in types
    assert PGroupType(2, (6,)) in types
    assert PGroupType(2, (7,)) not in types
