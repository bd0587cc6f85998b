from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidemeister import (
    DimensionMismatch,
    EndoMatrix,
    FullDepth,
    NotAutomorphism,
    NotCharacteristic,
    OutOfRange,
    PGroupType,
    abc_decompose,
    block_notation,
    column_structure_check,
    is_automorphism,
    is_characteristic,
    is_valid_endo,
    parse_matrix,
    restrict,
)

from reference import enumerate_automorphisms, three_pass_decompose

nondecreasing = st.lists(st.integers(1, 9), min_size=0, max_size=10).map(
    lambda xs: tuple(sorted(xs))
)


def test_worked_example_blocks():
    g = PGroupType(2, (1, 1, 2, 3, 4, 4, 6, 7, 8, 10, 12, 13))
    dec = abc_decompose(g)
    assert block_notation(dec) == "((1,1),(2,3),(4,4),(6,7),(8),(10),(12,13))"
    assert [blk.kind for blk in dec.blocks] == ["a", "b", "a", "b", "c", "c", "b"]
    assert (dec.a, dec.b, dec.c) == (2, 3, 2)
    assert dec.d == (0, 0, 1, 1, 1, 1, 2, 2, 3, 4, 5, 5)


def test_single_exponent_is_c_block():
    dec = abc_decompose(PGroupType(2, (5,)))
    assert block_notation(dec) == "((5))"
    assert (dec.a, dec.b, dec.c) == (0, 0, 1)
    assert dec.d == (0,)


def test_staircase():
    dec = abc_decompose(PGroupType(2, (1, 2, 3)))
    assert block_notation(dec) == "((1,2),(3))"
    assert (dec.a, dec.b, dec.c) == (0, 1, 1)
    assert dec.d == (0, 0, 1)


def test_trivial_type():
    dec = abc_decompose(PGroupType(2, ()))
    assert dec.blocks == ()
    assert (dec.a, dec.b, dec.c) == (0, 0, 0)
    assert dec.d == ()
    assert dec.floor_exponent == 0


def test_b_blocks_form_left_to_right():
    # 1,2,3,4 pairs as (1,2),(3,4), not (2,3) in the middle
    dec = abc_decompose(PGroupType(2, (1, 2, 3, 4)))
    assert block_notation(dec) == "((1,2),(3,4))"
    assert (dec.a, dec.b, dec.c) == (0, 2, 0)


@settings(max_examples=150, deadline=None)
@given(nondecreasing)
def test_blocks_partition_and_reassemble(e):
    dec = abc_decompose(PGroupType(2, e))
    covered = []
    for blk in dec.blocks:
        assert blk.kind in ("a", "b", "c")
        assert blk.start == len(covered)
        covered.extend(blk.values)
        if blk.kind == "a":
            assert blk.length >= 2 and len(set(blk.values)) == 1
        elif blk.kind == "b":
            assert blk.length == 2 and blk.values[1] == blk.values[0] + 1
        else:
            assert blk.length == 1
    assert tuple(covered) == e
    assert dec.a + dec.b + dec.c == len(dec.blocks)


@settings(max_examples=150, deadline=None)
@given(nondecreasing)
def test_depth_vector_properties(e):
    dec = abc_decompose(PGroupType(2, e))
    d = dec.d
    n = len(e)
    starts = {
        blk.start for blk in dec.blocks if blk.kind in ("b", "c")
    }
    for i in range(n):
        assert d[i] < e[i]
        for j in range(i + 1, n):
            assert d[i] <= d[j]
            if j in starts:
                assert d[i] < d[j]
            assert d[j] - d[i] <= e[j] - e[i]
            if i in starts:
                assert d[j] - d[i] < e[j] - e[i]
    if n:
        assert d[0] == 0


@settings(max_examples=100, deadline=None)
@given(nondecreasing)
def test_depth_vector_is_characteristic(e):
    g = PGroupType(2, e)
    dec = abc_decompose(g)
    assert is_characteristic(g, dec.d)


@settings(max_examples=100, deadline=None)
@given(nondecreasing)
def test_c_block_directly_before_b_block_has_gap_two(e):
    dec = abc_decompose(PGroupType(2, e))
    for prev, nxt in zip(dec.blocks, dec.blocks[1:]):
        if prev.kind == "c" and nxt.kind == "b":
            assert nxt.values[0] >= prev.values[0] + 2



def test_one_scan_matches_the_three_passes():
    # every nondecreasing e with n <= 8 and entries in 1 .. 8: 12,870 types
    count = 0
    for n in range(9):
        for e in combinations_with_replacement(range(1, 9), n):
            g = PGroupType(2, e)
            assert abc_decompose.__wrapped__(g) == three_pass_decompose(g)
            count += 1
    assert count == 12870

# -- is_characteristic ---------------------------------------------------------


def test_is_characteristic_examples():
    assert is_characteristic(PGroupType(2, (1, 2)), (0, 1))
    assert not is_characteristic(PGroupType(2, (1, 2)), (1, 0))
    assert not is_characteristic(PGroupType(2, (2, 2)), (0, 1))


def test_is_characteristic_validation():
    with pytest.raises(OutOfRange):
        is_characteristic(PGroupType(2, (1, 2)), (0, 3))
    with pytest.raises(OutOfRange):
        is_characteristic(PGroupType(2, (1, 2)), (-1, 0))
    with pytest.raises(DimensionMismatch):
        is_characteristic(PGroupType(2, (1, 2)), (0,))


# -- restrict ------------------------------------------------------------------


def test_restrict_zero_depths_is_identity_operation():
    em = EndoMatrix(PGroupType(2, (2, 3)), parse_matrix("1,1;2,1"))
    assert restrict(em, (0, 0)) is em
    trivial = EndoMatrix(PGroupType(3, ()), parse_matrix(""))
    assert restrict(trivial, ()) is trivial


def test_restrict_conjugates():
    em = EndoMatrix(PGroupType(2, (1, 3)), parse_matrix("1,0;4,1"))
    out = restrict(em, (0, 1))
    assert out.group == PGroupType(2, (1, 2))
    assert out.m.to_rows() == [[1, 0], [2, 1]]


def test_restrict_with_canonical_depths_is_identity_for_b_block():
    g = PGroupType(2, (2, 3))
    assert abc_decompose(g).d == (0, 0)
    em = EndoMatrix(g, parse_matrix("1,1;2,1"))
    assert restrict(em, abc_decompose(g).d) == em


def test_restrict_errors():
    em = EndoMatrix(PGroupType(2, (1, 2)), parse_matrix("1,0;0,1"))
    with pytest.raises(NotCharacteristic):
        restrict(em, (1, 0))
    with pytest.raises(FullDepth):
        restrict(em, (1, 2))
    with pytest.raises(OutOfRange):
        restrict(em, (0, 3))
    with pytest.raises(OutOfRange):
        restrict(em, (-1, 0))
    with pytest.raises(DimensionMismatch):  # all zero, but one depth short
        restrict(em, (0,))


def test_restrict_full_depth_flagged_before_use():
    em = EndoMatrix(PGroupType(2, (1, 1)), parse_matrix("1,0;0,1"))
    with pytest.raises(FullDepth):
        restrict(em, (1, 1))


@pytest.mark.parametrize(
    "g",
    [PGroupType(2, (1, 2)), PGroupType(2, (1, 3)), PGroupType(3, (1, 2)), PGroupType(2, (1, 1, 2))],
    ids=str,
)
def test_restrict_of_every_automorphism_is_automorphism(g):
    depths = abc_decompose(g).d
    sub = PGroupType(g.p, tuple(e - d for e, d in zip(g.e, depths)))
    for em in enumerate_automorphisms(g):
        out = restrict(em, depths)
        assert out.group == sub
        assert is_valid_endo(sub, out.m)
        assert is_automorphism(out)


# -- column structure ------------------------------------------------------------


def test_column_structure_cyclic():
    em = EndoMatrix(PGroupType(2, (3,)), parse_matrix("5"))
    reports = column_structure_check(em)
    assert len(reports) == 1
    assert reports[0].index == 0 and reports[0].block_kind == "c"
    assert reports[0].ok


def test_column_structure_pair_matrix():
    em = EndoMatrix(PGroupType(2, (2, 3)), parse_matrix("1,1;2,1"))
    (report,) = column_structure_check(em)
    assert report.index == 0 and report.block_kind == "b"
    assert report.off_diagonal_zero and report.diagonal_nonzero


def test_column_structure_conjugated_example():
    em = EndoMatrix(PGroupType(3, (1, 3)), parse_matrix("1,0;9,1"))
    reports = column_structure_check(em)
    assert [r.index for r in reports] == [0, 1]
    assert all(r.ok for r in reports)


def test_column_structure_requires_automorphism():
    em = EndoMatrix(PGroupType(3, (1, 1)), parse_matrix("1,1;1,1"))
    with pytest.raises(NotAutomorphism):
        column_structure_check(em)


@pytest.mark.parametrize(
    "g",
    [PGroupType(2, (1, 3)), PGroupType(2, (1, 2)), PGroupType(3, (1, 2)), PGroupType(2, (2,))],
    ids=str,
)
def test_column_structure_passes_for_every_automorphism(g):
    for em in enumerate_automorphisms(g):
        assert all(r.ok for r in column_structure_check(em))
