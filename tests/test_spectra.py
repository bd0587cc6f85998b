import itertools
import time

import pytest

from reidemeister import (
    AbelianGroupType,
    EndoMatrix,
    Factored,
    IntMatrix,
    InvariantViolation,
    NotAutomorphism,
    OutOfSpectrum,
    PGroupType,
    Spectrum,
    WrongPrime,
    abc_decompose,
    apply,
    companion_matrix,
    elements,
    find_irreducible,
    is_automorphism,
    parse_matrix,
    product_number,
    reidemeister_number,
    spec_p,
    spec_r_2group,
    spec_r_abelian,
    spec_r_odd_p,
    witness,
    witness_abelian,
)
from reidemeister.spectra import _fill, is_irreducible

from reference import enumerate_automorphisms, scale


def brute_pi(em):
    total = 1
    for i in range(1, em.group.p):
        scaled = scale(em, i)
        total *= sum(1 for x in elements(em.group) if apply(scaled, x) == x)
    return total


# -- Spectrum type -------------------------------------------------------------


def test_spectrum_product_set():
    a = Spectrum([Factored.from_int(2), Factored.from_int(4)])
    b = Spectrum([Factored.one(), Factored.from_int(3)])
    assert (a * b).ints() == [2, 4, 6, 12]


def test_spectrum_equality_and_contains():
    s = Spectrum.prime_range(2, 1, 3)
    assert Factored.from_int(4) in s
    assert s == Spectrum([Factored({2: k}) for k in (1, 2, 3)])
    assert len(s) == 3


# -- product number -------------------------------------------------------------


def test_product_number_equals_reidemeister_for_p2():
    for em in enumerate_automorphisms(PGroupType(2, (1, 2))):
        assert product_number(em) == reidemeister_number(em)


def test_product_number_identity_z3():
    em = EndoMatrix(PGroupType(3, (1,)), parse_matrix("1"))
    assert product_number(em).to_int() == 3
    assert brute_pi(em) == 3


def test_product_number_companion():
    em = EndoMatrix(PGroupType(3, (1, 1)), parse_matrix("0,2;1,0"))
    assert brute_pi(em) == 1
    assert product_number(em) == Factored.one()


def test_product_number_requires_automorphism():
    with pytest.raises(NotAutomorphism):
        product_number(EndoMatrix(PGroupType(3, (1, 1)), parse_matrix("1,1;1,1")))


def test_product_number_trivial_group():
    em = EndoMatrix(PGroupType(5, ()), IntMatrix(0, 0, ()))
    assert product_number(em) == Factored.one()


def test_product_number_multiplicative_on_blocks():
    g = PGroupType(3, (1, 1, 2))
    left = parse_matrix("0,2;1,0")
    right = parse_matrix("4")
    combined = EndoMatrix(g, IntMatrix.block_diagonal([left, right]))
    a = product_number(EndoMatrix(PGroupType(3, (1, 1)), left))
    b = product_number(EndoMatrix(PGroupType(3, (2,)), right))
    assert product_number(combined) == a * b


# -- closed-form spectra ----------------------------------------------------------


def test_spec_r_odd_p_examples():
    assert spec_r_odd_p(PGroupType(3, (2,))).ints() == [1, 3, 9]
    assert spec_r_odd_p(PGroupType(5, ())).ints() == [1]
    assert spec_r_odd_p(PGroupType(3, (1, 2))).ints() == [1, 3, 9, 27]
    with pytest.raises(WrongPrime):
        spec_r_odd_p(PGroupType(2, (1,)))


def test_spec_p_examples():
    assert spec_p(PGroupType(2, (2, 3))).ints() == [2, 4, 8, 16, 32]
    assert spec_p(PGroupType(3, (1, 1))).ints() == [1, 3, 9]
    for n in range(1, 6):
        assert spec_p(PGroupType(2, (n,))).ints() == [2**i for i in range(1, n + 1)]


def test_spec_r_2group_examples():
    assert spec_r_2group(PGroupType(2, (1,))).ints() == [2]
    assert spec_r_2group(PGroupType(2, (1, 1))).ints() == [1, 2, 4]
    assert spec_r_2group(PGroupType(2, (1, 3))).ints() == [4, 8, 16]
    with pytest.raises(WrongPrime):
        spec_r_2group(PGroupType(3, (1,)))


def test_spec_p_subset_of_odd_spectrum():
    for e in [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 3)]:
        g = PGroupType(3, e)
        dec = abc_decompose(g)
        pi_vals = set(spec_p(g).ints())
        r_vals = set(spec_r_odd_p(g).ints())
        assert pi_vals <= r_vals
        assert (pi_vals == r_vals) == (dec.b + dec.c == 0)


def test_spec_r_abelian_examples():
    assert spec_r_abelian(AbelianGroupType((4, 3))).ints() == [2, 4, 6, 12]
    divisors_36 = [d for d in range(1, 37) if 36 % d == 0]
    assert spec_r_abelian(AbelianGroupType((2, 2, 9))).ints() == divisors_36
    # odd order: all divisors
    assert spec_r_abelian(AbelianGroupType((9, 5))).ints() == [
        d for d in range(1, 46) if 45 % d == 0
    ]


def test_spec_r_abelian_divisor_characterization():
    for orders in [(4,), (8, 3), (2, 2, 5), (16, 9), (12, 2)]:
        group = AbelianGroupType(orders)
        sylow2 = group.sylow().get(2)
        floor = abc_decompose(sylow2).floor_exponent if sylow2 else 0
        order = group.order
        expected = {
            d
            for d in range(1, order + 1)
            if order % d == 0 and Factored.from_int(d).nu(2) >= floor
        }
        assert set(spec_r_abelian(group).ints()) == expected


def test_abelian_group_type_sylow():
    group = AbelianGroupType((12, 10))
    sylow = group.sylow()
    assert sylow[2] == PGroupType(2, (1, 2))
    assert sylow[3] == PGroupType(3, (1,))
    assert sylow[5] == PGroupType(5, (1,))
    assert group.primary_orders() == (2, 3, 4, 5)
    assert group.order == 120


# -- irreducible polynomials and companions ----------------------------------------


def test_find_irreducible_examples():
    assert find_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert find_irreducible(3, 1) == (0, 1)  # x
    assert find_irreducible(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1


def test_find_irreducible_no_roots_and_no_low_degree_factor():
    for p in (2, 3, 5):
        for n in range(2, 6):
            f = find_irreducible(p, n)
            assert len(f) == n + 1 and f[-1] == 1
            for x in range(p):
                value = sum(c * x**i for i, c in enumerate(f)) % p
                assert value != 0
            assert is_irreducible(f, p)


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _first_irreducible_by_sieve(p, n):
    # monics(d) lists every monic of degree d by explicit digits; a reducible
    # monic of degree n is a product of two monics of lower positive degree
    def monics(d):
        return [tuple((k // p**i) % p for i in range(d)) + (1,) for k in range(p**d)]

    reducible = {
        _poly_mul(f, g, p) for d in range(1, n // 2 + 1) for f in monics(d) for g in monics(n - d)
    }
    candidates = sorted(monics(n), key=lambda f: f[::-1])
    return next(f for f in candidates if f not in reducible)


def test_find_irreducible_is_lexicographically_first():
    # over Z/2, degree 3: candidates below x^3+x+1 all have a root
    f = find_irreducible(2, 3)
    assert f == (1, 1, 0, 1)
    # x^3+x^2+1 is also irreducible but lexicographically later
    assert is_irreducible((1, 0, 1, 1), 2)
    # the first monic, by reversed coefficients, that no product of two
    # lower-degree monics reaches
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            assert find_irreducible(p, n) == _first_irreducible_by_sieve(p, n), (p, n)


def _irreducible_by_trial_division(f, p):
    # no monic of degree 1..deg(f)/2 divides f
    degree = len(f) - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for high_first in itertools.product(range(p), repeat=d):
            g = high_first[::-1] + (1,)
            rem = list(f)
            for i in range(degree, d - 1, -1):
                c = rem[i] % p
                for j in range(d + 1):
                    rem[i - d + j] -= c * g[j]
            if not any(v % p for v in rem[:d]):
                return False
    return True


def test_is_irreducible_matches_trial_division():
    # every polynomial of degree <= 6 over Z/2 and Z/3 with a unit leading
    # coefficient, the monic ones included
    for p in (2, 3):
        for degree in range(7):
            for low in itertools.product(range(p), repeat=degree):
                for lead in range(1, p):
                    f = low + (lead,)
                    assert is_irreducible(f, p) == _irreducible_by_trial_division(f, p), (f, p)


def test_find_irreducible_large_degree_is_fast():
    # trial division would try up to 7^8 monic divisors per candidate
    start = time.perf_counter()
    f = find_irreducible(7, 16)
    assert time.perf_counter() - start < 5
    assert len(f) == 17 and f[-1] == 1 and is_irreducible(f, 7)


def test_companion_matrix_forms():
    assert companion_matrix((1, 1, 1)).to_rows() == [[0, -1], [1, -1]]
    assert companion_matrix((-1, 1)).to_rows() == [[1]]
    assert companion_matrix((1, 0, 1)).to_rows() == [[0, -1], [1, 0]]
    with pytest.raises(ValueError):
        companion_matrix((2, 3))  # not monic
    with pytest.raises(ValueError):
        companion_matrix((1,))  # degree 0


# -- witnesses ----------------------------------------------------------------------


def test_witness_cyclic():
    em = witness(PGroupType(2, (3,)), 2)
    assert em.m.entries == (5,)
    assert reidemeister_number(em).to_int() == 4


def test_witness_pair_block():
    em = witness(PGroupType(2, (2, 3)), 1)
    assert em.m.to_rows() == [[1, 1], [2, 1]]
    assert product_number(em).to_int() == 2


def test_witness_companion():
    em = witness(PGroupType(3, (1, 1)), 0)
    assert em.m.to_rows() == [[0, 2], [1, 0]]  # companion of x^2+1, reduced mod 3
    assert product_number(em) == Factored.one()


def test_witness_out_of_spectrum():
    with pytest.raises(OutOfSpectrum):
        witness(PGroupType(2, (3,)), 0)  # floor is 1 for a single c-block
    with pytest.raises(OutOfSpectrum):
        witness(PGroupType(2, (3,)), 4)


def test_witness_trivial_group():
    em = witness(PGroupType(3, ()), 0)
    assert em.group.is_trivial
    assert product_number(em) == Factored.one()


@pytest.mark.parametrize("p", [2, 3])
def test_witness_totality_small(p):
    from reidemeister.oracle import iter_partitions

    for total in range(0, 6):
        for e in iter_partitions(total):
            g = PGroupType(p, e)
            dec = abc_decompose(g)
            for m in range(dec.floor_exponent, g.total_exponent + 1):
                em = witness(g, m)
                assert is_automorphism(em)
                assert product_number(em) == Factored.prime_power(p, m)


def test_witness_is_block_diagonal():
    g = PGroupType(2, (1, 1, 2, 3, 5))
    dec = abc_decompose(g)
    em = witness(g, 4)
    boundaries = [0]
    for blk in dec.blocks:
        boundaries.append(blk.end)
    for i in range(g.n):
        for j in range(g.n):
            same = any(
                lo <= i < hi and lo <= j < hi
                for lo, hi in zip(boundaries, boundaries[1:])
            )
            if not same:
                assert em.m[i, j] == 0


def test_witness_abelian_z12():
    group = AbelianGroupType((4, 3))
    parts = witness_abelian(group, Factored.from_int(6))
    assert set(parts) == {2, 3}
    assert reidemeister_number(parts[2]).to_int() == 2
    assert reidemeister_number(parts[3]).to_int() == 3
    assert parts[2].m.entries == (3,)


def test_witness_abelian_full_order_is_identity():
    group = AbelianGroupType((8, 9, 5))
    parts = witness_abelian(group, Factored.from_int(group.order))
    for p, em in parts.items():
        assert em == EndoMatrix.identity(em.group)


def test_witness_abelian_fixed_point_free():
    group = AbelianGroupType((2, 2))
    parts = witness_abelian(group, Factored.one())
    em = parts[2]
    assert em.m.to_rows() == [[0, 1], [1, 1]]  # companion of x^2+x+1 mod 2
    fixed = [x for x in elements(em.group) if apply(em, x) == x]
    assert fixed == [(0, 0)]


def test_witness_abelian_combined_count():
    group = AbelianGroupType((8, 9))
    for target in spec_r_abelian(group).sorted_values():
        parts = witness_abelian(group, target)
        combined = Factored.one()
        for em in parts.values():
            combined = combined * reidemeister_number(em)
        assert combined == target


def test_witness_abelian_out_of_spectrum():
    group = AbelianGroupType((4, 3))
    with pytest.raises(OutOfSpectrum):
        witness_abelian(group, Factored.from_int(3))  # nu_2 = 0 < floor 1
    with pytest.raises(OutOfSpectrum):
        witness_abelian(group, Factored.from_int(8))  # does not divide 12
    with pytest.raises(OutOfSpectrum):
        witness_abelian(group, Factored.from_int(5))  # foreign prime
    with pytest.raises(OutOfSpectrum):
        witness_abelian(group, Factored.from_int(18))  # nu_3 = 2 > S = 1


def test_fill_left_to_right():
    assert _fill(5, [0, 1, 0], [2, 2, 9]) == [2, 2, 1]
    assert _fill(0, [], []) == []
    with pytest.raises(InvariantViolation):
        _fill(7, [0, 1], [2, 4])  # the caps take at most 6
    with pytest.raises(InvariantViolation):
        _fill(0, [0, 1], [2, 4])  # the floors already sum to 1
