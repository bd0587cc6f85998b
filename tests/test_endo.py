import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidemeister import (
    DimensionMismatch,
    EndoMatrix,
    Factored,
    GroupElement,
    GroupMismatch,
    IntMatrix,
    InvalidEndoMatrix,
    NonPositiveExponent,
    NotCoprime,
    NotPrime,
    PGroupType,
    apply,
    compose,
    elements,
    fixed_point_count,
    induced_mod_p,
    is_automorphism,
    is_valid_endo,
    parse_matrix,
    reidemeister_cyclic,
    reidemeister_number,
    scale,
    validate_type,
)
from reidemeister.endo import format_type_spec, parse_type_spec


def brute_fix(em):
    return sum(1 for x in elements(em.group) if apply(em, x) == x)


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


def test_group_element_normalizes():
    g = PGroupType(2, (2, 3))
    x = GroupElement(g, (-1, 9))
    assert x.coords == (3, 1)
    with pytest.raises(DimensionMismatch):
        GroupElement(g, (1,))


def test_elements_count():
    g = PGroupType(2, (1, 2))
    assert sum(1 for _ in elements(g)) == 8
    assert [x.coords for x in elements(PGroupType(3, ()))] == [()]
    # last coordinate varies fastest: sorted and distinct
    g = PGroupType(3, (1, 2))
    coords = [x.coords for x in elements(g)]
    assert len(coords) == len(set(coords)) == g.order
    assert coords == sorted(coords)


# -- membership and normal form ----------------------------------------------


def test_is_valid_endo_examples():
    assert not is_valid_endo(PGroupType(2, (1, 2)), parse_matrix("1,1;1,1"))
    assert is_valid_endo(PGroupType(2, (2, 3)), parse_matrix("1,1;2,1"))
    assert is_valid_endo(PGroupType(2, (2, 3)), IntMatrix.identity(2))
    with pytest.raises(DimensionMismatch):
        is_valid_endo(PGroupType(2, (2, 3)), parse_matrix("1"))


def test_endo_matrix_rejects_invalid():
    with pytest.raises(InvalidEndoMatrix):
        EndoMatrix(PGroupType(2, (1, 2)), parse_matrix("1,1;1,1"))


def test_endo_matrix_normalizes_rows():
    g = PGroupType(2, (3,))
    assert EndoMatrix(g, parse_matrix("11")) == EndoMatrix(g, parse_matrix("3"))
    assert EndoMatrix(g, parse_matrix("-5")).m.entries == (3,)
    g2 = PGroupType(2, (1, 2))
    em = EndoMatrix(g2, parse_matrix("5,3;6,7"))
    assert em.m.to_rows() == [[1, 1], [2, 3]]


def test_is_automorphism_examples():
    assert is_automorphism(EndoMatrix(PGroupType(2, (2, 3)), parse_matrix("1,1;2,1")))
    assert is_automorphism(EndoMatrix.identity(PGroupType(5, (1, 1))))
    assert not is_automorphism(EndoMatrix(PGroupType(3, (1, 1)), parse_matrix("1,1;1,1")))
    assert is_automorphism(EndoMatrix.identity(PGroupType(2, ())))


# -- apply, scale, compose -----------------------------------------------------


def test_apply_identity():
    g = PGroupType(2, (2, 3))
    x = GroupElement(g, (1, 5))
    assert apply(EndoMatrix.identity(g), x) == x


def test_apply_known_fixed_point():
    g = PGroupType(2, (2, 3))
    em = EndoMatrix(g, parse_matrix("1,1;2,1"))
    x = GroupElement(g, (0, 4))
    assert apply(em, x) == x


def test_apply_cyclic():
    g = PGroupType(2, (3,))
    em = EndoMatrix(g, parse_matrix("3"))
    assert apply(em, GroupElement(g, (5,))).coords == (7,)


def test_apply_group_mismatch():
    with pytest.raises(GroupMismatch):
        apply(
            EndoMatrix.identity(PGroupType(2, (1,))),
            GroupElement(PGroupType(3, (1,)), (0,)),
        )


def test_scale():
    g = PGroupType(5, (2,))
    em = EndoMatrix(g, parse_matrix("7"))
    assert scale(em, 1) == em
    assert scale(em, 2).m.entries == (14,)
    assert scale(EndoMatrix(PGroupType(3, (1,)), parse_matrix("1")), 2).m.entries == (2,)
    with pytest.raises(NotCoprime):
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
    ab = compose(a, b)
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
    assert reidemeister_cyclic(3, 2, 3).to_int() == 2
    assert reidemeister_cyclic(1, 5, 2).to_int() == 25
    for p in (2, 3, 5):
        for n in range(1, 5):
            for m in range(0, n + 1):
                assert reidemeister_cyclic(p**m + 1, p, n).to_int() == p**m


def test_reidemeister_cyclic_validation():
    with pytest.raises(NotPrime):
        reidemeister_cyclic(3, 6, 2)


def test_induced_mod_p():
    em = EndoMatrix(PGroupType(2, (2, 3)), parse_matrix("1,1;2,1"))
    assert induced_mod_p(em).to_rows() == [[1, 1], [0, 1]]
    g = PGroupType(3, (1, 2))
    assert induced_mod_p(EndoMatrix.identity(g)).to_rows() == [[1, 0], [0, 1]]
    em = EndoMatrix(g, parse_matrix("2,1;3,4"))
    assert induced_mod_p(em).to_rows() == [[2, 1], [0, 1]]


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
    from reidemeister import enumerate_endomorphisms

    for em in enumerate_endomorphisms(g):
        counted = fixed_point_count(em)
        assert counted.to_int() == brute_fix(em)
        # always a power of p dividing the group order
        assert set(counted.factorization) <= {g.p}
        assert g.order % counted.to_int() == 0


@pytest.mark.parametrize("g", SMALL_TYPES, ids=str)
def test_automorphism_iff_bijective(g):
    from reidemeister import enumerate_endomorphisms

    for em in enumerate_endomorphisms(g):
        image = {apply(em, x).coords for x in elements(g)}
        assert is_automorphism(em) == (len(image) == g.order)


def test_cyclic_fixed_points_match_gcd_formula():
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        g = PGroupType(p, (n,))
        for k in range(p**n):
            em = EndoMatrix(g, IntMatrix(1, 1, (k,)))
            assert fixed_point_count(em) == reidemeister_cyclic(k, p, n)
