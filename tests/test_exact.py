"""Tests for the exact scalar kinds and the dense linear algebra on them."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curcat.exact import (
    AffineSolutionSpace,
    CycloNumber,
    DeltaPoly,
    ExactMatrix,
    RATIONAL_RING,
    UnsupportedRingError,
    cyclo_ring,
    cyclotomic_coeffs,
    kernel_basis,
    matrix_from_columns,
    parse_rational,
    rank,
    rref,
    solve_affine,
    solve_each,
    specialize_delta,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)


def small_delta_polys():
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=4), rationals),
        max_size=4,
    ).map(DeltaPoly._from_terms)


def cyclo_numbers(m: int):
    return st.lists(rationals, max_size=len(cyclotomic_coeffs(m)) - 1).map(
        lambda cs: CycloNumber(m, cs)
    )


# ---------------------------------------------------------------------------
# rationals and delta polynomials


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)


def test_delta_poly_basic():
    d = DeltaPoly.delta()
    p = d * d - 3 * d + 1
    assert p.evaluate(2) == Fraction(-1)
    assert p.degree == 2
    assert specialize_delta(p, Fraction(1, 2)) == Fraction(-1, 4)
    assert DeltaPoly.zero().degree == -1
    assert not DeltaPoly.zero()
    assert DeltaPoly.constant(Fraction(5, 3)).constant_value() == Fraction(5, 3)


def test_delta_poly_str_roundtrip_examples():
    cases = [
        DeltaPoly.zero(),
        DeltaPoly.one(),
        DeltaPoly.delta(),
        DeltaPoly._from_terms([(0, Fraction(1)), (1, Fraction(-1, 2))]),
        DeltaPoly._from_terms([(3, Fraction(7, 5))]),
        DeltaPoly._from_terms(
            [(0, Fraction(-2)), (2, Fraction(1)), (5, Fraction(-3, 4))]
        ),
    ]
    for p in cases:
        assert DeltaPoly.parse(str(p)) == p


@given(small_delta_polys())
def test_delta_poly_str_roundtrip(p):
    assert DeltaPoly.parse(str(p)) == p


@given(small_delta_polys(), small_delta_polys(), small_delta_polys())
def test_delta_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + DeltaPoly.zero() == a
    assert a * DeltaPoly.one() == a
    assert a - a == DeltaPoly.zero()


@given(small_delta_polys(), small_delta_polys(), rationals)
def test_delta_poly_evaluation_is_a_homomorphism(a, b, x):
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


# ---------------------------------------------------------------------------
# cyclotomic numbers


def test_cyclotomic_polynomials():
    one = Fraction(1)
    assert cyclotomic_coeffs(1) == (Fraction(-1), one)
    assert cyclotomic_coeffs(2) == (one, one)
    assert cyclotomic_coeffs(3) == (one, one, one)
    assert cyclotomic_coeffs(4) == (one, Fraction(0), one)
    assert cyclotomic_coeffs(6) == (one, Fraction(-1), one)
    assert cyclotomic_coeffs(12) == (one, Fraction(0), Fraction(-1), Fraction(0), one)
    for m in range(1, 31):
        totient = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
        assert len(cyclotomic_coeffs(m)) - 1 == totient


def test_cyclo_refuses_conductor_zero():
    with pytest.raises(ValueError, match="conductor must be positive"):
        CycloNumber(0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 12])
def test_zeta_has_exact_order(m):
    z = CycloNumber.zeta(m)
    assert z**m == CycloNumber.one(m)
    for k in range(1, m):
        assert z**k != CycloNumber.one(m)


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12])
@settings(max_examples=40)
@given(data=st.data())
def test_cyclo_field_axioms(m, data):
    a = data.draw(cyclo_numbers(m))
    b = data.draw(cyclo_numbers(m))
    c = data.draw(cyclo_numbers(m))
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == CycloNumber.one(m)
        assert (a * b) / a == b


def test_cyclo_conductor_two_is_rational():
    x = CycloNumber(2, [Fraction(3, 7)])
    assert x.is_rational()
    assert x.as_rational() == Fraction(3, 7)
    z = CycloNumber.zeta(2)
    assert z.as_rational() == Fraction(-1)


def test_cyclo_mixed_conductors_refuse():
    with pytest.raises(ValueError):
        CycloNumber.zeta(3) + CycloNumber.zeta(4)


def test_cyclo_golden_identity():
    # z + z^4 for a primitive fifth root satisfies t^2 + t - 1 = 0.
    z = CycloNumber.zeta(5)
    t = z + z**4
    assert t * t + t - CycloNumber.one(5) == CycloNumber.zero(5)


# ---------------------------------------------------------------------------
# matrices


def test_matrix_basic_ops():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert (a @ b).entries == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))
    assert (a + b).entries[0] == (Fraction(1), Fraction(3))
    assert a.transpose().entries == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))
    assert a.scale(Fraction(1, 2)).entries[1] == (Fraction(3, 2), Fraction(2))


def test_matrix_identity_neutral():
    a = ExactMatrix([[1, 2], [3, 4], [5, 6]])
    assert ExactMatrix.identity(3) @ a == a
    assert a @ ExactMatrix.identity(2) == a


def test_matrix_kron_ordering():
    # Leftmost factor most significant: (A kron B)[i1*rB+i2, j1*cB+j2] = A[i1,j1]B[i2,j2].
    a = ExactMatrix([[0, 1], [2, 0]])
    b = ExactMatrix([[1, 0], [0, 3]])
    k = a.kron(b)
    assert k.rows == k.cols == 4
    assert k.entries[0][2] == Fraction(1)
    assert k.entries[1][3] == Fraction(3)
    assert k.entries[2][0] == Fraction(2)
    assert k.entries[3][1] == Fraction(6)


def test_rref_pivots_leftmost_and_rank():
    m = ExactMatrix(
        [
            [0, 2, 4, 6],
            [1, 1, 1, 1],
            [1, 3, 5, 7],
        ]
    )
    reduced, rk, pivots = rref(m)
    assert rk == 2
    assert pivots == (0, 1)
    assert reduced.entries[0] == (Fraction(1), Fraction(0), Fraction(-1), Fraction(-2))
    assert reduced.entries[1] == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    assert reduced.entries[2] == (Fraction(0),) * 4


def _reference_rref(rows: list[list], one) -> tuple[list[list], list[int]]:
    """Textbook Gauss-Jordan over a field with leftmost pivoting."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        found = [i for i in range(r, len(rows)) if rows[i][c]]
        if not found:
            continue
        rows[r], rows[found[0]] = rows[found[0]], rows[r]
        pivot = rows[r][c]
        rows[r] = [x * (one / pivot) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _random_rational_matrix(rng: random.Random) -> list[list[Fraction]]:
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    depth = rng.randint(0, min(nrows, ncols))

    def entry():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))

    # A product of random nrows x depth and depth x ncols factors has rank at
    # most depth, so wide, tall and rank-deficient shapes all occur.
    left = [[entry() for _ in range(depth)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(depth)]
    columns = list(zip(*right)) or [()] * ncols
    rows = [
        [sum((a * b for a, b in zip(lrow, col)), Fraction(0)) for col in columns]
        for lrow in left
    ]
    if rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    if rng.random() < 0.3:
        zero_col = rng.randrange(ncols)
        for row in rows:
            row[zero_col] = Fraction(0)
    return rows


def test_rational_rref_matches_reference_gauss_jordan():
    rng = random.Random(20240)
    for _ in range(300):
        rows = _random_rational_matrix(rng)
        reduced, rk, pivots = rref(ExactMatrix(rows, RATIONAL_RING))
        want, want_pivots = _reference_rref(rows, Fraction(1))
        assert reduced.entries == tuple(tuple(r) for r in want)
        assert pivots == tuple(want_pivots)
        assert rk == len(want_pivots)


def test_cyclotomic_rref_matches_reference_gauss_jordan():
    rng = random.Random(20241)
    ring = cyclo_ring(5)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [
            [
                CycloNumber(5, [Fraction(rng.randint(-3, 3)) for _ in range(4)])
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        if nrows > 1:
            rows[-1] = [x * CycloNumber.zeta(5, 2) for x in rows[0]]
        reduced, rk, pivots = rref(ExactMatrix(rows, ring))
        want, want_pivots = _reference_rref(rows, ring.one)
        assert reduced.entries == tuple(tuple(r) for r in want)
        assert pivots == tuple(want_pivots)
        assert rk == len(want_pivots)


def test_kernel_basis_exact():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m.entries:
        assert sum(a * b for a, b in zip(row, v)) == 0
    # Echelon convention: free coordinate normalized to one.
    assert v[2] == Fraction(1)
    assert v == (Fraction(1), Fraction(-2), Fraction(1))


@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_rank_nullity(rows):
    m = ExactMatrix([[Fraction(x) for x in r] for r in rows])
    assert rank(m) + len(kernel_basis(m)) == m.cols


def test_solve_affine_unique():
    a = ExactMatrix([[2, 1], [1, -1]])
    sol = solve_affine(a, [Fraction(5), Fraction(1)])
    assert sol.is_consistent
    assert sol.affine_dimension == 0
    assert sol.particular == (Fraction(2), Fraction(1))


def test_solve_affine_underdetermined():
    a = ExactMatrix([[1, 1, 1]])
    sol = solve_affine(a, [Fraction(6)])
    assert sol.is_consistent
    assert sol.affine_dimension == 2
    x = sol.particular
    assert sum(x) == Fraction(6)
    for v in sol.basis:
        assert sum(v) == 0


def test_solve_affine_inconsistent():
    a = ExactMatrix([[1, 1], [1, 1]])
    sol = solve_affine(a, [Fraction(0), Fraction(1)])
    assert not sol.is_consistent
    assert sol.basis == ()
    with pytest.raises(ValueError):
        sol.affine_dimension


def test_solve_affine_no_constraints():
    a = ExactMatrix.zeros(0, 3)
    sol = solve_affine(a, [])
    assert sol.is_consistent
    assert sol.affine_dimension == 3


@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    ),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
)
def test_solve_affine_solutions_actually_solve(rows, xs):
    a = ExactMatrix([[Fraction(v) for v in r] for r in rows])
    x_true = [Fraction(v) for v in xs]
    b = [sum(c * x for c, x in zip(row, x_true)) for row in a.entries]
    sol = solve_affine(a, b)
    assert sol.is_consistent
    residual = [
        sum(c * x for c, x in zip(row, sol.particular)) - rhs
        for row, rhs in zip(a.entries, b)
    ]
    assert all(r == 0 for r in residual)
    for v in sol.basis:
        homo = [sum(c * x for c, x in zip(row, v)) for row in a.entries]
        assert all(h == 0 for h in homo)


def _reference_solution(a_rows: list[list], b: list, ncols: int, one) -> AffineSolutionSpace:
    """The solutions of A x = b read off the textbook reduction of [A | b] alone."""
    zero = one - one
    reduced, pivots = _reference_rref([list(row) + [x] for row, x in zip(a_rows, b)], one)
    if ncols in pivots:
        return AffineSolutionSpace(particular=None, basis=())
    particular = [zero] * ncols
    basis = []
    for row, pc in zip(reduced, pivots):
        particular[pc] = row[ncols]
    for fc in range(ncols):
        if fc not in pivots:
            vec = [zero] * ncols
            vec[fc] = one
            for row, pc in zip(reduced, pivots):
                vec[pc] = -row[fc]
            basis.append(tuple(vec))
    return AffineSolutionSpace(particular=tuple(particular), basis=tuple(basis))


def _right_hand_sides(rng: random.Random, a_rows: list[list], ncols: int, entry, zero) -> list[list]:
    """One to six right-hand sides: images A x, some shifted by combinations
    of two shared random directions (off the column space unless A has full
    row rank). The first is shifted more often than not, so inconsistent
    sides often come before consistent ones and share their pivot rows."""
    offsets = [[entry() for _ in a_rows] for _ in range(2)]

    def side(shifted: bool) -> list:
        x = [entry() for _ in range(ncols)]
        b = [sum((c * v for c, v in zip(row, x)), zero) for row in a_rows]
        if shifted:
            c1, c2 = entry(), entry()
            b = [y + c1 * u + c2 * w for y, u, w in zip(b, *offsets)]
        return b

    return [side(rng.random() < 0.7)] + [
        side(rng.random() < 0.4) for _ in range(rng.randint(0, 5))
    ]


def _check_solve_each(a_rows: list[list], ncols: int, ring, rhs: list[list]) -> list[bool]:
    """Assert solve_each against the reference and solve_affine, one side at
    a time; returns the consistency of each side."""
    a = ExactMatrix(a_rows, ring, cols=ncols)
    got = solve_each(a, rhs)
    assert len(got) == len(rhs)
    for sol, b in zip(got, rhs):
        assert sol == _reference_solution(a_rows, b, ncols, ring.one)
        assert sol == solve_affine(a, b)
    return [sol.is_consistent for sol in got]


def _inconsistent_before_consistent(flags: list[bool]) -> bool:
    return False in flags and True in flags[flags.index(False) + 1 :]


def test_solve_each_matches_reference_per_side_over_rationals():
    rng = random.Random(20242)

    def entry():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))

    shapes = {"zero rows": 0, "zero cols": 0, "rank deficient": 0, "mixed": 0}
    for i in range(200):
        if i % 10 == 0:
            a_rows, ncols = [], rng.randint(1, 5)
            shapes["zero rows"] += 1
        elif i % 10 == 1:
            a_rows, ncols = [[] for _ in range(rng.randint(1, 5))], 0
            shapes["zero cols"] += 1
        else:
            a_rows = _random_rational_matrix(rng)
            ncols = len(a_rows[0])
            if rank(ExactMatrix(a_rows, RATIONAL_RING)) < min(len(a_rows), ncols):
                shapes["rank deficient"] += 1
        flags = _check_solve_each(
            a_rows, ncols, RATIONAL_RING, _right_hand_sides(rng, a_rows, ncols, entry, Fraction(0))
        )
        shapes["mixed"] += _inconsistent_before_consistent(flags)
    assert shapes["zero rows"] and shapes["zero cols"]
    assert shapes["rank deficient"] > 100 and shapes["mixed"] > 60


def test_solve_each_matches_reference_per_side_over_cyclotomics():
    rng = random.Random(20243)
    ring = cyclo_ring(5)

    def entry():
        return CycloNumber(5, [Fraction(rng.randint(-3, 3)) for _ in range(4)])

    mixed = 0
    for i in range(30):
        nrows, ncols = (0, 3) if i == 0 else (3, 0) if i == 1 else (rng.randint(1, 4), rng.randint(1, 4))
        a_rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1:
            a_rows[-1] = [x * CycloNumber.zeta(5, 2) for x in a_rows[0]]
        flags = _check_solve_each(
            a_rows, ncols, ring, _right_hand_sides(rng, a_rows, ncols, entry, ring.zero)
        )
        mixed += _inconsistent_before_consistent(flags)
    assert mixed > 5


def test_delta_matrix_refuses_row_reduction():
    d = DeltaPoly.delta()
    m = ExactMatrix([[d, DeltaPoly.one()], [DeltaPoly.one(), d]])
    with pytest.raises(UnsupportedRingError):
        rref(m)
    with pytest.raises(UnsupportedRingError):
        solve_affine(m, [DeltaPoly.zero(), DeltaPoly.zero()])


def test_delta_matrix_specializes_then_reduces():
    d = DeltaPoly.delta()
    m = ExactMatrix([[d, DeltaPoly.one()], [DeltaPoly.one(), d]])
    at2 = m.map_entries(lambda p: specialize_delta(p, 2), RATIONAL_RING)
    assert rank(at2) == 2
    at1 = m.map_entries(lambda p: specialize_delta(p, 1), RATIONAL_RING)
    assert rank(at1) == 1


def test_cyclo_matrix_row_reduction():
    i = CycloNumber.zeta(4)
    one = CycloNumber.one(4)
    m = ExactMatrix([[one, i], [i, -one]], cyclo_ring(4))
    # Second row is i times the first.
    assert rank(m) == 1
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * one + v[1] * i == CycloNumber.zero(4)


def test_matrix_from_columns():
    m = matrix_from_columns([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert m.entries == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))


def test_affine_solution_space_dataclass():
    s = AffineSolutionSpace(particular=(Fraction(0),), basis=())
    assert s.is_consistent and s.affine_dimension == 0
