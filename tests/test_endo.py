import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidemeister import (
    DimensionMismatch,
    EndoMatrix,
    Factored,
    IntMatrix,
    InvalidEndoMatrix,
    NonPositiveExponent,
    NotPrime,
    PGroupType,
    apply,
    elements,
    fixed_point_count,
    is_automorphism,
    is_valid_endo,
    parse_matrix,
    reidemeister_number,
    validate_type,
)
from reidemeister.endo import format_type_spec, parse_type_spec

from reference import enumerate_endomorphisms, matmul, scale


def brute_fix(em):
    return sum(1 for x in elements(em.group) if apply(em, x) == x)


def gcd_fix(k, p, n):
    # fixed points of 1 -> k on Z/p^n: the x with (k - 1) x = 0, gcd(k - 1, p^n) many
    return math.gcd(k - 1, p**n)


# -- types -------------------------------------------------------------------


def test_validate_type_sorts():
    assert validate_type(2, (3, 2)).e == (2, 3)


def test_validate_type_trivial():
    g = validate_type(3, ())
    assert g.is_trivial and g.order == 1 and g.total_exponent == 0


def test_validate_type_errors():
    with pytest.raises(NotPrime):
        validate_type(4, (1,))
    with pytest.raises(NonPositiveExponent):
        validate_type(2, (0, 1))


def test_pgrouptype_requires_nondecreasing():
    with pytest.raises(ValueError):
        PGroupType(2, (3, 2))


def test_type_spec_roundtrip():
    g = PGroupType(2, (2, 3))
    assert format_type_spec(g) == "p=2 e=2,3"
    assert parse_type_spec("p=2 e=2,3") == g
    assert parse_type_spec("p=5 e=") == PGroupType(5, ())


def test_elements_count():
    g = PGroupType(2, (1, 2))
    assert sum(1 for _ in elements(g)) == 8
    assert list(elements(PGroupType(3, ()))) == [()]
    # last coordinate varies fastest: sorted and distinct
    g = PGroupType(3, (1, 2))
    coords = list(elements(g))
    assert len(coords) == len(set(coords)) == g.order
    assert coords == sorted(coords)


# -- membership and normal form ----------------------------------------------


def test_is_valid_endo_examples():
    assert not is_valid_endo(PGroupType(2, (1, 2)), parse_matrix("1,1;1,1"))
    assert is_valid_endo(PGroupType(2, (2, 3)), parse_matrix("1,1;2,1"))
    assert is_valid_endo(PGroupType(2, (2, 3)), IntMatrix.identity(2))
    with pytest.raises(DimensionMismatch):
        is_valid_endo(PGroupType(2, (2, 3)), parse_matrix("1"))


@pytest.mark.parametrize("g", [PGroupType(2, (1, 2, 3)), PGroupType(3, (1, 1, 3))], ids=str)
def test_is_valid_endo_matches_a_double_loop(g):
    # only the entries below the diagonal are constrained: all 8^3 of
    # them in [0, 8), each beside two fills of the other six entries
    def loop_valid(entries):
        return all(
            entries[i * 3 + j] % g.p ** (g.e[i] - g.e[j]) == 0
            for i in range(3)
            for j in range(i)
            if g.e[i] > g.e[j]
        )

    for low in itertools.product(range(8), repeat=3):
        for fill in (0, 7):
            entries = [fill] * 9
            entries[3], entries[6], entries[7] = low
            assert is_valid_endo(g, IntMatrix(3, 3, tuple(entries))) == loop_valid(entries)


def test_endo_matrix_rejects_invalid():
    with pytest.raises(InvalidEndoMatrix):
        EndoMatrix(PGroupType(2, (1, 2)), parse_matrix("1,1;1,1"))
    with pytest.raises(DimensionMismatch):
        EndoMatrix(PGroupType(2, (1, 2)), parse_matrix("1"))


def test_endo_matrix_normalizes_rows():
    g = PGroupType(2, (3,))
    assert EndoMatrix(g, parse_matrix("11")) == EndoMatrix(g, parse_matrix("3"))
    assert EndoMatrix(g, parse_matrix("-5")).m.entries == (3,)
    g2 = PGroupType(2, (1, 2))
    em = EndoMatrix(g2, parse_matrix("5,3;6,7"))
    assert em.m.to_rows() == [[1, 1], [2, 3]]
    # an already reduced matrix is kept as given
    m = parse_matrix("1,1;2,3")
    assert EndoMatrix(g2, m).m is m and EndoMatrix(g2, m) == em


def test_is_automorphism_examples():
    assert is_automorphism(EndoMatrix(PGroupType(2, (2, 3)), parse_matrix("1,1;2,1")))
    assert is_automorphism(EndoMatrix.identity(PGroupType(5, (1, 1))))
    assert not is_automorphism(EndoMatrix(PGroupType(3, (1, 1)), parse_matrix("1,1;1,1")))
    assert is_automorphism(EndoMatrix.identity(PGroupType(2, ())))


# -- apply, scale, compose -----------------------------------------------------


def test_apply_identity():
    g = PGroupType(2, (2, 3))
    assert apply(EndoMatrix.identity(g), (1, 5)) == (1, 5)


def test_apply_known_fixed_point():
    g = PGroupType(2, (2, 3))
    em = EndoMatrix(g, parse_matrix("1,1;2,1"))
    assert apply(em, (0, 4)) == (0, 4)


def test_apply_cyclic():
    g = PGroupType(2, (3,))
    em = EndoMatrix(g, parse_matrix("3"))
    assert apply(em, (5,)) == (7,)


def test_apply_reduces_coordinates():
    g = PGroupType(2, (2, 3))
    assert apply(EndoMatrix.identity(g), (-1, 9)) == (3, 1)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(EndoMatrix.identity(PGroupType(2, (2, 3))), (1,))


def test_scale():
    g = PGroupType(5, (2,))
    em = EndoMatrix(g, parse_matrix("7"))
    assert scale(em, 1) == em
    assert scale(em, 2).m.entries == (14,)
    assert scale(EndoMatrix(PGroupType(3, (1,)), parse_matrix("1")), 2).m.entries == (2,)
    with pytest.raises(ValueError, match="not coprime"):
        scale(em, 10)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_respects_apply(data):
    g = PGroupType(2, (1, 2))
    ems = []
    for _ in range(2):
        entries = (
            data.draw(st.integers(0, 1)),
            data.draw(st.integers(0, 1)),
            2 * data.draw(st.integers(0, 1)),
            data.draw(st.integers(0, 3)),
        )
        ems.append(EndoMatrix(g, IntMatrix(2, 2, entries)))
    a, b = ems
    ab = EndoMatrix(g, matmul(a.m, b.m))
    for x in elements(g):
        assert apply(ab, x) == apply(a, apply(b, x))


# -- fixed points and twisted class counts ------------------------------------


def test_fixed_point_count_identity():
    g = PGroupType(2, (2, 3))
    assert fixed_point_count(EndoMatrix.identity(g)) == Factored({2: 5})


def test_fixed_point_count_pair_matrix():
    em = EndoMatrix(PGroupType(2, (2, 3)), parse_matrix("1,1;2,1"))
    assert fixed_point_count(em) == Factored({2: 1})
    assert brute_fix(em) == 2


def test_fixed_point_count_cyclic_brute():
    g = PGroupType(2, (3,))
    em = EndoMatrix(g, parse_matrix("3"))
    assert brute_fix(em) == 2
    assert fixed_point_count(em).to_int() == 2


def test_reidemeister_number_examples():
    g = PGroupType(2, (3,))
    assert reidemeister_number(EndoMatrix(g, parse_matrix("5"))).to_int() == 4
    big = PGroupType(3, (1, 2))
    assert reidemeister_number(EndoMatrix.identity(big)).to_int() == big.order
    comp = EndoMatrix(PGroupType(3, (1, 1)), parse_matrix("0,2;1,0"))
    assert brute_fix(comp) == 1
    assert reidemeister_number(comp) == Factored.one()


def test_fixed_point_count_trivial_group():
    g = PGroupType(7, ())
    em = EndoMatrix(g, IntMatrix(0, 0, ()))
    assert fixed_point_count(em) == Factored.one()
    assert is_automorphism(em)


def test_reidemeister_cyclic_examples():
    # the cyclic maps 1 -> p^m + 1 of the witnesses fix p^m elements
    for p in (2, 3, 5):
        for n in range(1, 5):
            g = PGroupType(p, (n,))
            for m in range(0, n + 1):
                em = EndoMatrix(g, IntMatrix(1, 1, (p**m + 1,)))
                assert reidemeister_number(em).to_int() == gcd_fix(p**m + 1, p, n) == p**m


# -- exhaustive invariants on small groups -------------------------------------


SMALL_TYPES = [
    PGroupType(2, (1,)),
    PGroupType(2, (2,)),
    PGroupType(2, (1, 1)),
    PGroupType(2, (1, 2)),
    PGroupType(3, (1,)),
    PGroupType(3, (1, 1)),
    PGroupType(5, (1,)),
]


@pytest.mark.parametrize("g", SMALL_TYPES, ids=str)
def test_fixed_point_count_matches_brute_force(g):
    for em in enumerate_endomorphisms(g):
        counted = fixed_point_count(em)
        assert counted.to_int() == brute_fix(em)
        # always a power of p dividing the group order
        assert set(counted.factorization) <= {g.p}
        assert g.order % counted.to_int() == 0


@pytest.mark.parametrize("g", SMALL_TYPES, ids=str)
def test_automorphism_iff_bijective(g):
    for em in enumerate_endomorphisms(g):
        image = {apply(em, x) for x in elements(g)}
        assert is_automorphism(em) == (len(image) == g.order)


def test_cyclic_fixed_points_match_gcd_formula():
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        g = PGroupType(p, (n,))
        for k in range(p**n):
            em = EndoMatrix(g, IntMatrix(1, 1, (k,)))
            assert fixed_point_count(em).to_int() == gcd_fix(k, p, n)
