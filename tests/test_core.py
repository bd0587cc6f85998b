import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidemeister import (
    DimensionMismatch,
    Factored,
    IntMatrix,
    MatrixFormatError,
    NotPrime,
    NumberTooLarge,
    RankDeficient,
    det_mod_p,
    format_matrix,
    lattice_index,
    parse_matrix,
)
from reidemeister.core import PRIMALITY_LIMIT, factorize, is_prime

from reference import matmul, smith_invariants


# -- independent oracles -----------------------------------------------------


def trial_division(n):
    """Factorization by trial division up to sqrt(n)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def hermite_index(rows):
    """|det| of a triangular column basis obtained by gcd column reduction.

    Independent of the Smith-form route: no divisibility chain, column
    operations only.  Returns 0 for rank-deficient input.
    """
    a = [list(r) for r in rows]
    n = len(a)
    m = len(a[0]) if a else 0
    piv = 0
    det = 1
    for r in range(n):
        while True:
            best = None
            for j in range(piv, m):
                if a[r][j] and (best is None or abs(a[r][j]) < abs(a[r][best])):
                    best = j
            if best is None:
                return 0
            if best != piv:
                for i in range(n):
                    a[i][piv], a[i][best] = a[i][best], a[i][piv]
            clean = True
            for j in range(m):
                if j == piv:
                    continue
                q = a[r][j] // a[r][piv]
                if q:
                    for i in range(n):
                        a[i][j] -= q * a[i][piv]
                if j >= piv and a[r][j]:
                    clean = False
            if clean:
                break
        det *= abs(a[r][piv])
        piv += 1
    return det


def span_contains(columns, target, bound=8):
    """Does an integer combination with coefficients in [-bound, bound]
    hit the target vector?  Exhaustive search."""
    from itertools import product

    n = len(target)
    for coeffs in product(range(-bound, bound + 1), repeat=len(columns)):
        vec = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(n)]
        if vec == list(target):
            return True
    return False


# -- lattice_index -----------------------------------------------------------


def test_lattice_index_diagonal():
    assert lattice_index(parse_matrix("2,0;0,3")) == 6


def test_lattice_index_identity():
    assert lattice_index(IntMatrix.identity(4)) == 1


def test_lattice_index_three_columns_brute_force():
    # columns (2,0), (1,1), (0,4); expected value from counting residues
    # of Z^2 modulo the lattice over the box [0,8)^2
    columns = [(2, 0), (1, 1), (0, 4)]
    assert span_contains(columns, (8, 0))
    assert span_contains(columns, (0, 8))
    # the lattice contains 8Z^2, so cosets are counted inside (Z/8)^2
    generated = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x = frontier.pop()
        for col in columns:
            y = ((x[0] + col[0]) % 8, (x[1] + col[1]) % 8)
            if y not in generated:
                generated.add(y)
                frontier.append(y)
    expected = 64 // len(generated)
    assert expected == 2
    assert lattice_index(parse_matrix("2,1,0;0,1,4")) == expected


def test_lattice_index_rank_deficient():
    with pytest.raises(RankDeficient):
        lattice_index(parse_matrix("1,2;2,4"))
    with pytest.raises(RankDeficient):
        lattice_index(parse_matrix("1;2"))  # 2x1: too few columns


def test_lattice_index_empty():
    assert lattice_index(IntMatrix(0, 0, ())) == 1


@st.composite
def full_rank_matrix(draw):
    n = draw(st.integers(1, 4))
    diag = [draw(st.integers(1, 6)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
        for j in range(i):
            rows[i][j] = draw(st.integers(-5, 5))
    return rows


@settings(max_examples=60, deadline=None)
@given(full_rank_matrix(), st.data())
def test_lattice_index_matches_hermite_oracle(rows, data):
    n = len(rows)
    extra = data.draw(st.integers(0, 2))
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    for _ in range(extra):
        coeffs = [data.draw(st.integers(-2, 2)) for _ in range(n)]
        cols.append([sum(c * cols[j][i] for j, c in enumerate(coeffs)) for i in range(n)])
    mat = IntMatrix.from_rows([[col[i] for col in cols] for i in range(n)])
    assert lattice_index(mat) == hermite_index(mat.to_rows())


@settings(max_examples=40, deadline=None)
@given(full_rank_matrix(), st.data())
def test_lattice_index_ignores_contained_columns(rows, data):
    n = len(rows)
    base = IntMatrix.from_rows(rows)
    idx = lattice_index(base)
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    coeffs = [data.draw(st.integers(-3, 3)) for _ in range(n)]
    new_col = [sum(c * cols[j][i] for j, c in enumerate(coeffs)) for i in range(n)]
    widened = IntMatrix.from_rows([rows[i] + [new_col[i]] for i in range(n)])
    assert lattice_index(widened) == idx


# -- smith_invariants --------------------------------------------------------


def test_smith_diag_4_6():
    # by hand: gcd of entries 2, determinant 24, so invariants (2, 12)
    assert smith_invariants(parse_matrix("4,0;0,6")) == [2, 12]


def test_smith_identity():
    assert smith_invariants(IntMatrix.identity(3)) == [1, 1, 1]


def test_smith_zero():
    assert smith_invariants(IntMatrix(2, 2, (0, 0, 0, 0))) == [0, 0]


def test_smith_rectangular():
    assert smith_invariants(parse_matrix("2,1,0;0,1,4")) == [1, 2]
    assert smith_invariants(parse_matrix("0,0,0")) == [0]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_smith_chain_divisibility(rows, cols, data):
    entries = [data.draw(st.integers(-9, 9)) for _ in range(rows * cols)]
    inv = smith_invariants(IntMatrix(rows, cols, tuple(entries)))
    assert len(inv) == min(rows, cols)
    assert all(v >= 0 for v in inv)
    nonzero = [v for v in inv if v]
    assert inv[: len(nonzero)] == nonzero, "zeros must come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_smith_invariants_match_determinantal_divisors(rows, cols, data):
    # defining property: s_1 * ... * s_k = gcd of all k x k minors
    from itertools import combinations
    from math import gcd

    def exact_det(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        return sum(
            (-1) ** j
            * mat[0][j]
            * exact_det([[mat[i][c] for c in range(k) if c != j] for i in range(1, k)])
            for j in range(k)
        )

    grid = [[data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    inv = smith_invariants(IntMatrix.from_rows(grid))
    running = 1
    for k in range(1, min(rows, cols) + 1):
        divisor = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                divisor = gcd(divisor, exact_det([[grid[i][j] for j in cs] for i in rs]))
        running *= inv[k - 1]
        assert running == divisor


# -- det_mod_p ---------------------------------------------------------------


def test_det_mod_p_examples():
    assert det_mod_p(parse_matrix("1,1;2,1"), 2) == 1
    assert det_mod_p(IntMatrix.identity(3), 7) == 1
    assert det_mod_p(parse_matrix("1,1;1,1"), 3) == 0


def test_det_mod_p_against_exact():
    def exact_det(m):
        n = m.rows
        if n == 0:
            return 1
        if n == 1:
            return m[0, 0]
        total = 0
        for j in range(n):
            minor = IntMatrix.from_rows(
                [[m[i, k] for k in range(n) if k != j] for i in range(1, n)]
            )
            total += (-1) ** j * m[0, j] * exact_det(minor)
        return total

    import random

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = IntMatrix(n, n, tuple(rng.randint(-20, 20) for _ in range(n * n)))
        for p in (2, 3, 5, 7):
            assert det_mod_p(m, p) == exact_det(m) % p


def test_det_mod_p_requires_square():
    with pytest.raises(DimensionMismatch):
        det_mod_p(parse_matrix("1,2,3;4,5,6"), 5)


# -- matrix text format ------------------------------------------------------


def test_parse_format_roundtrip():
    m = parse_matrix(" 1 , 1 ; 2 , 1 ")
    assert m.to_rows() == [[1, 1], [2, 1]]
    assert format_matrix(m) == "1,1;2,1"
    assert parse_matrix(format_matrix(m)) == m


def test_parse_single_and_empty():
    assert parse_matrix("5").to_rows() == [[5]]
    assert parse_matrix("-3,0,4").to_rows() == [[-3, 0, 4]]
    empty = parse_matrix("")
    assert (empty.rows, empty.cols) == (0, 0)


def test_parse_errors():
    with pytest.raises(MatrixFormatError):
        parse_matrix("1,x")
    with pytest.raises(MatrixFormatError):
        parse_matrix("1,2;3")


def test_intmatrix_validation():
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])


def test_intmatrix_matmul():
    a = parse_matrix("1,2;3,4")
    b = parse_matrix("0,1;1,0")
    assert matmul(a, b).to_rows() == [[2, 1], [4, 3]]
    with pytest.raises(DimensionMismatch):
        matmul(a, parse_matrix("1,2,3"))


def smith_product(mat):
    """prod(smith_invariants(mat)[:n]), or None when one of them is 0."""
    product = 1
    for s in smith_invariants(mat)[: mat.rows]:
        if s == 0:
            return None
        product *= s
    return product


@st.composite
def wide_matrix(draw):
    # n <= 5 rows, n to 2n + 1 columns; sparse entries of both signs, so
    # that rank-deficient draws are common too
    n = draw(st.integers(0, 5))
    m = draw(st.integers(n, 2 * n + 1))
    entries = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, -6, 9]), min_size=n * m, max_size=n * m))
    return IntMatrix(n, m, tuple(entries))


@settings(max_examples=300, deadline=None)
@given(wide_matrix())
def test_lattice_index_matches_smith_product(mat):
    # the column triangularization against the Smith route it replaced,
    # RankDeficient exactly when an invariant factor is 0
    expected = smith_product(mat)
    if expected is None:
        with pytest.raises(RankDeficient):
            lattice_index(mat)
    else:
        assert lattice_index(mat) == expected


def test_block_diagonal():
    m = IntMatrix.block_diagonal([parse_matrix("2"), parse_matrix("0,1;1,0")])
    assert m.to_rows() == [[2, 0, 0], [0, 0, 1], [0, 1, 0]]


# -- Factored ----------------------------------------------------------------


def test_factored_basics():
    assert Factored.one().to_int() == 1
    assert Factored.from_int(12).factorization == {2: 2, 3: 1}
    assert Factored.from_int(1) == Factored.one()
    v = Factored({2: 3}) * Factored({2: 1, 3: 2})
    assert v == Factored({2: 4, 3: 2})
    assert v.to_int() == 144
    assert v.nu(2) == 4 and v.nu(3) == 2 and v.nu(5) == 0


def test_factored_rendering():
    assert str(Factored.one()) == "1"
    assert str(Factored({2: 2})) == "2^2"
    assert str(Factored({2: 2, 3: 1})) == "2^2*3"


def test_factored_validation():
    with pytest.raises(NotPrime):
        Factored({4: 1})
    with pytest.raises(ValueError):
        Factored({2: -1})
    assert Factored({2: 0}) == Factored.one()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_factored_product_stays_canonical(a, b):
    product = Factored.from_int(a) * Factored.from_int(b)
    expected = Factored.from_int(a * b)
    assert product == expected
    assert hash(product) == hash(expected)
    assert str(product) == str(expected)
    assert product.factorization == expected.factorization


def test_factored_hashable_set_member():
    values = {Factored.from_int(4), Factored({2: 2}), Factored.from_int(6)}
    assert len(values) == 2


# -- primality and factorization -----------------------------------------------


def test_factorize_matches_trial_division():
    for n in range(1, 10**5 + 1):
        got = factorize(n)
        assert got == trial_division(n), n
        assert list(got) == sorted(got)
        assert is_prime(n) == (got == {n: 1})


def test_miller_rabin_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the prime bases up to 7, up to 37, and the
    # Carmichael number 561
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert not is_prime(561)
    psi_12 = 318665857834031151167461
    assert not is_prime(psi_12)
    assert factorize(psi_12) == {399165290221: 1, 798330580441: 1}
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3)
    assert factorize((10**9 + 7) * (10**9 + 9) * 4) == {2: 2, 10**9 + 7: 1, 10**9 + 9: 1}


def test_primality_bound_is_explicit():
    # the least strong pseudoprime to the first 13 prime bases
    assert PRIMALITY_LIMIT == 3317044064679887385961981
    with pytest.raises(NumberTooLarge):
        is_prime(PRIMALITY_LIMIT)
    with pytest.raises(NumberTooLarge):
        factorize(2**89 - 1)
    # a small factor still decides, and is divided out first
    assert not is_prime(PRIMALITY_LIMIT * 2)
    assert factorize(2**200 * 3) == {2: 200, 3: 1}
