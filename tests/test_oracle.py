import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidemeister import (
    BudgetExceeded,
    EndoMatrix,
    EnumBudget,
    PGroupType,
    apply,
    brute_fixed_points,
    elements,
    endomorphism_count,
    enumerate_automorphisms,
    enumerate_endomorphisms,
    fixed_point_count,
    is_automorphism,
    is_valid_endo,
    iter_partitions,
    iter_types,
    oracle_spectrum,
    parse_matrix,
    reidemeister_number,
    scale,
    spec_p,
    spec_r_2group,
    spec_r_abelian,
    spec_r_odd_p,
    twisted_class_count,
)
from reidemeister.decomposition import abc_decompose
from reidemeister.oracle import DEFAULT_BUDGET, canonical_parameters
from reidemeister.spectra import AbelianGroupType, Spectrum, product_number
from reidemeister import _sweep


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
    strides, counts = (np.array(v, dtype=np.int64) for v in canonical_parameters(g))
    total = endomorphism_count(g)
    mats = _sweep._decode(np.arange(total, dtype=np.int64), strides, counts, g.n)
    decoded = [tuple(int(v) for v in mat.ravel()) for mat in mats]
    assert decoded == [em.m.entries for em in enumerate_endomorphisms(g)]


def test_enumerate_automorphism_counts():
    assert sum(1 for _ in enumerate_automorphisms(PGroupType(2, (1, 1)))) == 6
    assert sum(1 for _ in enumerate_automorphisms(PGroupType(3, (1,)))) == 2
    assert sum(1 for _ in enumerate_automorphisms(PGroupType(2, (1, 2)))) == 8


def test_trivial_group_enumeration():
    ems = list(enumerate_endomorphisms(PGroupType(2, ())))
    assert len(ems) == 1 and ems[0].group.is_trivial


def test_budget_blocks_enumeration():
    tiny = EnumBudget(max_endos=10, max_group_order=4)
    with pytest.raises(BudgetExceeded):
        list(enumerate_endomorphisms(PGroupType(2, (2, 3)), tiny))
    with pytest.raises(BudgetExceeded):
        brute_fixed_points(EndoMatrix.identity(PGroupType(2, (3,))), tiny)
    with pytest.raises(BudgetExceeded):
        twisted_class_count(EndoMatrix.identity(PGroupType(2, (3,))), tiny)


def test_enum_budget_validation():
    with pytest.raises(ValueError):
        EnumBudget(max_endos=0)


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
    x = np.stack([axis.reshape(-1) for axis in grid])
    y = (np.array(em.m.to_rows(), dtype=np.int64) @ x) % moduli[:, None]
    fixed = int((y == x).all(axis=0).sum())
    image = np.unique((x - y) % moduli[:, None], axis=1).shape[1]
    return fixed, image


@pytest.mark.parametrize(
    "g", [PGroupType(2, (1, 2)), PGroupType(3, (1, 1)), PGroupType(2, (1, 1, 2))], ids=str
)
def test_element_loops_match_meshgrid(g):
    for em in enumerate_endomorphisms(g):
        fixed, image = _meshgrid_counts(em)
        assert brute_fixed_points(em) == fixed
        assert twisted_class_count(em) == g.order // image
        assert fixed * image == g.order


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
        oracle_spectrum(PGroupType(2, (2, 3)), budget=EnumBudget(max_endos=8))


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


def _hillar_rhea_aut_count(g: PGroupType) -> int:
    # Hillar & Rhea, Amer. Math. Monthly 2007, Thm 4.1 (1-based indices)
    p, e, n = g.p, g.e, g.n
    count = 1
    for k, ek in enumerate(e, start=1):
        hi = n - e[::-1].index(ek)  # max{l : e_l = e_k}
        lo = e.index(ek) + 1  # min{l : e_l = e_k}
        count *= (p**hi - p ** (k - 1)) * p ** (ek * (n - hi)) * p ** ((ek - 1) * (n - lo + 1))
    return count


def test_auto_count_matches_hillar_rhea():
    cells = [g for p in (2, 3, 5) for g in iter_types(p, max_endos=2**16)]
    assert len(cells) == 91
    for g in cells:
        assert _sweep.sweep_cell(g, DEFAULT_BUDGET).auto_count == _hillar_rhea_aut_count(g), g


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
    assert _sweep.sweep_cell(g, DEFAULT_BUDGET) == _sweep.CellReport(
        group=g,
        endo_count=1,
        auto_count=1,
        r_exponents=frozenset({0}),
        pi_exponents=frozenset({0}),
        pi_min=0,
        pi_max=0,
        structure_violations=0,
        samples_checked=1,
        samples_ok=True,
    )
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
    # each chunk is the first one plus its decoded start; concatenated,
    # the chunks must be the plain decode of every index
    strides, counts = (np.array(v, dtype=np.int64) for v in canonical_parameters(g))
    total = endomorphism_count(g)
    samples = _sweep._sample_indices(total, _sweep.SWEEP_SAMPLES)
    size = max(g.p**k for k in range(64) if g.p**k <= min(cap, total))
    chunks, start = [], 0
    for mats, positions in _sweep._walk(g, total, _sweep.SWEEP_SAMPLES, cap):
        stop = start + len(mats)
        assert len(mats) == size
        assert positions.tolist() == [v - start for v in samples if start <= v < stop]
        chunks.append(mats)
        start = stop
    assert start == total
    expected = _sweep._decode(np.arange(total, dtype=np.int64), strides, counts, g.n)
    assert np.array_equal(np.concatenate(chunks), expected)


def test_samples_survive_chunk_boundaries(monkeypatch):
    # a chunk is the largest power of p up to the sweep's cap and the
    # endomorphism count.  sweep_cell caps it at 8192 for n <= 4, and
    # triple_check at min(8192, 2^19 // (order * n)).  p=2 e=1,1,1,2:
    # 2^17 endomorphisms of a group of order 32, so 16 chunks of 8192 and
    # 32 of 2^19 // 128 = 4096.  p=3 e=1,1,2: 3^10 endomorphisms of a
    # group of order 81, so 9 chunks of 3^8 = 6561 and, under the cap
    # 2^19 // 243 = 2157, 81 chunks of 3^6 = 729
    cases = [
        (PGroupType(2, (1, 1, 1, 2)), [8192] * 16, [4096] * 32),
        (PGroupType(3, (1, 1, 2)), [6561] * 9, [729] * 81),
    ]
    chunks = []
    walk = _sweep._walk

    def counting_walk(*args):
        for item in walk(*args):
            chunks.append(len(item[0]))
            yield item

    monkeypatch.setattr(_sweep, "_walk", counting_walk)
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
        assert chunks == triple_chunks
        assert rep.samples_checked == len(_sweep._sample_indices(total, _sweep.TRIPLE_SAMPLES))
        assert rep.samples_ok and rep.mismatches == 0


def _full_det_invertible(mats, exps, p):
    # reference: the n x n determinant mod p, ignoring the block structure
    return _sweep._batch_det(mats % p) % p != 0


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
        amask = _sweep._invertible_mod_p(mats, g.e, g.p)
        blocks.append(amask)
        full.append(_full_det_invertible(mats, g.e, g.p))
        for pos in positions:
            assert bool(amask[pos]) == is_automorphism(_sweep._to_endo(g, mats[pos]))
        structure.append(_sweep._structure_ok(mats, g))
        with monkeypatch.context() as m:
            m.setattr(_sweep, "_invertible_mod_p", _full_det_invertible)
            structure_full.append(_sweep._structure_ok(mats, g))
    assert np.array_equal(np.concatenate(blocks), np.concatenate(full))
    structure = np.concatenate(structure)
    assert np.array_equal(structure, np.concatenate(structure_full))
    assert structure.any() and not structure.all()


def test_triple_check_past_float64_bound_is_over_budget():
    # n * p^{2E} >= 2^53: over budget before the 2^27-element table is built
    huge = EnumBudget(max_endos=2**70, max_group_order=2**70)
    for g in [PGroupType(2, (27,)), PGroupType(2, (1, 26))]:
        assert _sweep.batchable(g)
        with pytest.raises(BudgetExceeded, match="float64"):
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


def test_unbatchable_cell_is_over_budget():
    huge = EnumBudget(max_endos=2**70, max_group_order=2**70)
    for g in [PGroupType(2, (1, 31)), PGroupType(2, (9,) * 5)]:
        with pytest.raises(BudgetExceeded):
            _sweep.sweep_cell(g, huge)
        with pytest.raises(BudgetExceeded):
            _sweep.triple_check(g, huge)


@pytest.mark.parametrize(
    "g",
    [PGroupType(2, (1, 1, 19)), PGroupType(2, (1,) * 6), PGroupType(3, (1, 1, 12))],
    ids=str,
)
def test_fix_exponents_matches_fixed_point_count(g):
    # cells the Leibniz-minor engine refused: large entries, or n = 6
    assert _sweep.batchable(g)
    strides, counts = (np.array(v, dtype=np.int64) for v in canonical_parameters(g))
    total = endomorphism_count(g)
    idx = np.unique(np.linspace(0, total - 1, 97).astype(np.int64))
    idx = np.concatenate([idx, np.random.default_rng(7).integers(0, total, 60)])
    mats = _sweep._decode(idx, strides, counts, g.n)
    for k in range(1, g.p):
        batched = _sweep._fix_exponents(mats, g, k)
        for mat, exp in zip(mats, batched):
            em = scale(_sweep._to_endo(g, mat), k)
            assert fixed_point_count(em).nu(g.p) == exp


def _dtype_id(value):
    return value.__name__ if isinstance(value, type) else str(value)


@pytest.mark.parametrize(
    "g, dtype",
    [
        # int32 exactly when p^{2E} < 2^31: 2^30 and 3^18 fit, 2^32 and 3^20 do not
        (PGroupType(2, (1, 15)), np.int32),
        (PGroupType(2, (1, 16)), np.int64),
        (PGroupType(3, (1, 9)), np.int32),
        (PGroupType(3, (1, 10)), np.int64),
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
        rows.append(mats[positions])
    mats = np.concatenate(rows)
    assert len(mats) == 160
    ems = [_sweep._to_endo(g, mat) for mat in mats]
    amask = _sweep._invertible_mod_p(mats, g.e, g.p)
    assert amask.tolist() == [is_automorphism(em) for em in ems]
    assert amask.any() and not amask.all()
    for k in range(1, g.p):
        exps = _sweep._fix_exponents(mats, g, k)
        assert exps.tolist() == [fixed_point_count(scale(em, k)).nu(g.p) for em in ems]
    dec = abc_decompose(g)
    structure = _sweep._structure_ok(mats, g)
    assert structure.tolist() == [_sweep._reference_structure_ok(em, dec) for em in ems]
    assert structure.any() and not structure.all()


def test_block_determinants_accumulate_in_int64():
    # p = 2053: p^2 < 2^31 gives int32 stacks, but a Leibniz product of
    # three residues reaches (p - 1)^3 > 2^32
    g = PGroupType(2053, (1, 1, 1))
    mats = np.random.default_rng(11).integers(0, g.p, (64, 3, 3)).astype(np.int32)
    mats[0] = g.p - 1
    mats[1] = np.eye(3, dtype=np.int32) * (g.p - 1)
    assert _sweep._batch_det(mats[:2]).tolist() == [0, (g.p - 1) ** 3]
    amask = _sweep._invertible_mod_p(mats, g.e, g.p)
    assert amask.tolist() == [is_automorphism(_sweep._to_endo(g, m)) for m in mats]


RAISED_BUDGET = EnumBudget(max_endos=2**25, max_group_order=2**14)
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


def test_iter_types_by_endo_budget():
    types = list(iter_types(2, max_endos=2**6))
    assert all(endomorphism_count(g) <= 2**6 for g in types)
    assert PGroupType(2, (1, 1)) in types
    assert PGroupType(2, (6,)) in types
    assert PGroupType(2, (7,)) not in types
