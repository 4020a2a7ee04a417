"""Tests for the finite-group-equivariant matrix backend."""
from __future__ import annotations

import importlib.util
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from curcat.equivariant import (
    Character,
    EquivariantDataError,
    FiniteAbelianGroup,
    algebra_action,
    all_characters,
    characters_trivial_on,
    equivariant_evaluation_module,
    equivariant_map_algebra,
    fd_algebra,
    fd_lie_algebra,
    fixed_subalgebra_basis,
    group_action,
    ideal_stabilizer,
    isotypic_basis,
    isotypic_dimensions,
    isotypic_projector,
    lie_action,
    max_ideal,
    polynomial_quotient_algebra,
    scalar_from_json,
    scalar_to_json,
    setup_from_json_dict,
    sl2,
    sl2_z2_truncated_setup,
    truncated_polynomial_algebra,
    twisted_evaluation_zero_check,
)
from curcat.equivariant import (
    _combination,
    _promote_action,
    _promote_matrix,
    _promote_scalar,
    _vectors_matrix,
)
from curcat.exact import (
    CycloNumber,
    ExactMatrix,
    matrix_from_columns,
    rank,
    solve_affine,
    solve_each,
)
from curcat.lie import AxiomError, report_entry

ORACLES = Path(__file__).parent / "oracles"

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))


def frozen(name: str) -> dict:
    return json.loads((ORACLES / name).read_text())


@pytest.fixture(scope="module")
def oracle() -> dict:
    return frozen("frozen_equivariant.json")


@pytest.fixture(scope="module")
def bundle() -> dict:
    return sl2_z2_truncated_setup()


@pytest.fixture(scope="module")
def qt4_negation():
    """One truncated variable with the sign flip t -> -t."""
    algebra = truncated_polynomial_algebra(4)
    negate = ExactMatrix.from_rows(
        [[(-1) ** j if i == j else 0 for j in range(4)] for i in range(4)]
    )
    return algebra, algebra_action(Z2, algebra, [negate])


@pytest.fixture(scope="module")
def z4_rotation():
    """One truncated variable over the fourth cyclotomic field, t -> i*t."""
    algebra = truncated_polynomial_algebra(4, conductor=4)
    gen = ExactMatrix.from_rows(
        [
            [CycloNumber.zeta(4, i) if i == j else CycloNumber.zero(4) for j in range(4)]
            for i in range(4)
        ]
    )
    return algebra, algebra_action(Z4, algebra, [gen])


# ---------------------------------------------------------------------------
# groups and characters


def test_group_order_exponent_and_elements():
    g = FiniteAbelianGroup((2, 4))
    assert g.order == 8
    assert g.exponent == 4
    assert g.identity == (0, 0)
    elems = g.elements()
    assert len(elems) == 8
    assert elems[:5] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]


def test_group_arithmetic_and_element_orders():
    g = FiniteAbelianGroup((2, 4))
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 3)
    assert g.element_order((0, 0)) == 1
    assert g.element_order((1, 2)) == 2
    assert g.element_order((0, 1)) == 4


def test_trivial_group_facts():
    g = FiniteAbelianGroup(())
    assert g.order == 1
    assert g.exponent == 1
    assert g.elements() == [()]
    assert g.element_order(()) == 1


def test_cyclic_factor_below_two_rejected():
    with pytest.raises(EquivariantDataError, match="modulus >= 2"):
        FiniteAbelianGroup((1,))


def test_character_normalizes_exponents():
    assert Character(Z4, (5,)) == Character(Z4, (1,))
    assert Character(Z4, (-1,)).exponents == (3,)
    with pytest.raises(EquivariantDataError, match="one exponent per cyclic factor"):
        Character(Z4, (1, 2))


def test_character_values_are_rational_for_small_exponent():
    sign = Character(Z2, (1,))
    assert sign.value((0,)) == Fraction(1)
    assert sign.value((1,)) == Fraction(-1)
    assert isinstance(sign.value((1,)), Fraction)
    assert sign.is_trivial_on([(0,)])
    assert not sign.is_trivial_on(Z2.elements())


def test_character_values_on_z4_are_cyclotomic():
    chi = Character(Z4, (1,))
    assert chi.value((1,)) == CycloNumber.zeta(4, 1)
    assert chi.value((2,)) == CycloNumber.zeta(4, 2)
    assert chi.inverse_value((1,)) == CycloNumber.zeta(4, 3)


def test_character_product_and_inverse():
    chi = Character(Z4, (1,))
    assert (chi * Character(Z4, (3,))).is_trivial
    assert chi.inverse() == Character(Z4, (3,))
    with pytest.raises(EquivariantDataError, match="different groups"):
        chi * Character(Z2, (1,))


def test_all_characters_lists_trivial_first():
    chars = all_characters(Z4)
    assert [chi.exponents for chi in chars] == [(0,), (1,), (2,), (3,)]
    assert chars[0].is_trivial


def test_characters_trivial_on_subgroup():
    sub = [(0,), (2,)]
    kept = characters_trivial_on(Z4, sub)
    assert [chi.exponents for chi in kept] == [(0,), (2,)]


def test_character_orthogonality_z2():
    chars = all_characters(Z2)
    for a in chars:
        for b in chars:
            total = sum(a.value(g) * b.inverse_value(g) for g in Z2.elements())
            assert total == (Fraction(2) if a == b else Fraction(0))


def test_character_orthogonality_z4_cyclotomic():
    chars = all_characters(Z4)
    four = CycloNumber.from_rational(Fraction(4), 4)
    zero = CycloNumber.zero(4)
    for a in chars:
        for b in chars:
            total = zero
            for g in Z4.elements():
                total = total + a.value(g) * b.inverse_value(g)
            assert total == (four if a == b else zero)


# ---------------------------------------------------------------------------
# algebra and Lie algebra constructors


def test_truncated_polynomial_product_table():
    algebra = truncated_polynomial_algebra(4)
    t, t2, t3 = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    assert algebra.multiply(t, t2) == (0, 0, 0, 1)
    assert algebra.multiply(t2, t3) == (0, 0, 0, 0)
    assert algebra.unit == (1, 0, 0, 0)
    assert algebra.multiply(algebra.unit, t3) == t3


def test_polynomial_quotient_square_root_of_one():
    algebra = polynomial_quotient_algebra([-1, 0])
    t = (0, 1)
    assert algebra.multiply(t, t) == (1, 0)
    assert algebra.unit == (1, 0)
    with pytest.raises(EquivariantDataError, match="positive degree"):
        polynomial_quotient_algebra([])


def test_fd_algebra_rejects_ragged_structure():
    with pytest.raises(EquivariantDataError, match="dim x dim x dim"):
        fd_algebra([[(Fraction(1), Fraction(0))]])


def test_fd_algebra_rejects_noncommutative_table():
    z, o = Fraction(0), Fraction(1)
    structure = [[(z, z), (o, z)], [(z, o), (z, z)]]
    with pytest.raises(AxiomError, match=r"not commutative at \(1,0\)"):
        fd_algebra(structure, commutative=True)


def test_fd_algebra_rejects_nonassociative_product():
    z, o = Fraction(0), Fraction(1)
    structure = [[(z, o), (o, z)], [(z, z), (z, z)]]
    with pytest.raises(AxiomError, match=r"not associative at \(0,0,0\)"):
        fd_algebra(structure, commutative=False)


def test_fd_algebra_rejects_wrong_unit():
    structure = truncated_polynomial_algebra(2).structure
    with pytest.raises(AxiomError, match="claimed unit fails on basis vector 0"):
        fd_algebra(structure, unit=(Fraction(0), Fraction(1)))


def test_fd_algebra_rejects_a_unit_of_the_wrong_length():
    structure = truncated_polynomial_algebra(2).structure
    with pytest.raises(EquivariantDataError, match="the unit needs 2 coordinates, got 1"):
        fd_algebra(structure, unit=["1"])


def test_fd_lie_algebra_rejects_ragged_structure():
    z = Fraction(0)
    with pytest.raises(EquivariantDataError, match="dim x dim x dim"):
        fd_lie_algebra([[(z, z), (z,)], [(z, z), (z, z)]])


def test_fd_lie_algebra_rejects_nonzero_self_bracket():
    with pytest.raises(AxiomError, match="with itself is nonzero"):
        fd_lie_algebra([[(Fraction(1),)]])


def test_fd_lie_algebra_rejects_asymmetric_bracket():
    z, o = Fraction(0), Fraction(1)
    structure = [[(z, z), (o, z)], [(o, z), (z, z)]]
    with pytest.raises(AxiomError, match=r"not antisymmetric at \(0,1\)"):
        fd_lie_algebra(structure)


def test_fd_lie_algebra_rejects_jacobi_failure():
    z, o = Fraction(0), Fraction(1)
    zero = (z, z, z)
    structure = [
        [zero, (z, z, o), (-o, z, z)],
        [(z, z, -o), zero, (o, z, z)],
        [(o, z, z), (-o, z, z), zero],
    ]
    with pytest.raises(AxiomError, match=r"Jacobi identity fails at \(0,1,2\)"):
        fd_lie_algebra(structure)


def test_sl2_bracket_table():
    lie = sl2()
    e, h, f = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert lie.bracket(e, f) == (0, 1, 0)
    assert lie.bracket(h, e) == (2, 0, 0)
    assert lie.bracket(h, f) == (0, 0, -2)


# ---------------------------------------------------------------------------
# the table checks against the basis-triple loops they replaced


def _reference_product(structure, u, v) -> tuple:
    dim = len(structure)
    out = [Fraction(0)] * dim
    for i, j in itertools.product(range(dim), repeat=2):
        if u[i] and v[j]:
            for k, c in enumerate(structure[i][j]):
                out[k] += u[i] * v[j] * c
    return tuple(out)


def _reference_fd_algebra(structure, commutative, unit) -> None:
    """fd_algebra's checks as dense products on every basis triple."""
    dim = len(structure)
    basis = [tuple(Fraction(int(t == i)) for t in range(dim)) for i in range(dim)]

    def mul(u, v):
        return _reference_product(structure, u, v)

    if commutative:
        for i in range(dim):
            for j in range(i):
                if structure[i][j] != structure[j][i]:
                    raise AxiomError(f"product table is not commutative at ({i},{j})")
    for i, j, k in itertools.product(range(dim), repeat=3):
        if mul(mul(basis[i], basis[j]), basis[k]) != mul(basis[i], mul(basis[j], basis[k])):
            raise AxiomError(f"product is not associative at ({i},{j},{k})")
    if unit is not None:
        for i in range(dim):
            if mul(unit, basis[i]) != basis[i] or mul(basis[i], unit) != basis[i]:
                raise AxiomError(f"claimed unit fails on basis vector {i}")


def _reference_fd_lie_algebra(structure) -> None:
    """fd_lie_algebra's checks as dense brackets on every basis pair and
    triple, with the cyclic Jacobi sum."""
    dim = len(structure)
    basis = [tuple(Fraction(int(t == i)) for t in range(dim)) for i in range(dim)]
    zero = (Fraction(0),) * dim

    def br(u, v):
        return _reference_product(structure, u, v)

    def add(*vectors):
        return tuple(map(sum, zip(*vectors)))

    for i in range(dim):
        if br(basis[i], basis[i]) != zero:
            raise AxiomError(f"bracket of basis vector {i} with itself is nonzero")
        for j in range(dim):
            if add(br(basis[i], basis[j]), br(basis[j], basis[i])) != zero:
                raise AxiomError(f"bracket is not antisymmetric at ({i},{j})")
    for i, j, k in itertools.product(range(dim), repeat=3):
        e_i, e_j, e_k = basis[i], basis[j], basis[k]
        total = add(br(e_i, br(e_j, e_k)), br(e_j, br(e_k, e_i)), br(e_k, br(e_i, e_j)))
        if total != zero:
            raise AxiomError(f"Jacobi identity fails at ({i},{j},{k})")


def _reference_respects(table, generator, product_name: str) -> None:
    """g T = T (g (x) g), where column i*dim + j of T is basis i times basis j."""
    dim = table.dim
    t = matrix_from_columns([vec for row in table.structure for vec in row])
    left = (generator @ t).transpose().entries
    right = (t @ generator.kron(generator)).transpose().entries
    for col, (l_col, r_col) in enumerate(zip(left, right)):
        if l_col != r_col:
            raise EquivariantDataError(
                f"generator 0 does not respect the {product_name} "
                f"at ({col // dim},{col % dim})"
            )


def _outcome(check, *args):
    try:
        check(*args)
    except (AxiomError, EquivariantDataError) as exc:
        return type(exc).__name__, str(exc)
    return None


def _random_table(rng: random.Random, dim: int) -> list:
    return [
        [tuple(Fraction(rng.choice((-1, 0, 0, 0, 1))) for _ in range(dim)) for _ in range(dim)]
        for _ in range(dim)
    ]


def _perturbed(rng: random.Random, structure, antisymmetric: bool = False) -> list:
    """The table with one random coordinate moved by +-1 (and its mirror,
    for an antisymmetric table)."""
    table = [[list(vec) for vec in row] for row in structure]
    dim = len(table)
    i, j, k = (rng.randrange(dim) for _ in range(3))
    step = rng.choice((-1, 1))
    if antisymmetric and i == j:
        return [[tuple(vec) for vec in row] for row in table]
    table[i][j][k] += step
    if antisymmetric:
        table[j][i][k] -= step
    return [[tuple(vec) for vec in row] for row in table]


def _upper_triangular_table() -> list:
    """2x2 upper triangular matrices on the basis E11, E12, E22."""
    z, o = Fraction(0), Fraction(1)
    e11, e12, e22, zero = (o, z, z), (z, o, z), (z, z, o), (z, z, z)
    return [[e11, e12, zero], [zero, zero, e12], [zero, zero, e22]]


def _random_algebra_case(rng: random.Random):
    dim = rng.randint(1, 4)
    kind = rng.randrange(4)
    unit = None
    if kind == 0:
        structure, commutative = _random_table(rng, dim), rng.random() < 0.2
    elif kind == 3:
        structure, commutative = _upper_triangular_table(), False
        unit = (Fraction(1), Fraction(0), Fraction(1))
    else:
        modulus = [0] * dim if kind == 1 else [rng.randint(-2, 2) for _ in range(dim)]
        base = polynomial_quotient_algebra(modulus)
        structure, commutative, unit = base.structure, rng.random() < 0.5, base.unit
    if rng.random() < 0.6:
        structure = _perturbed(rng, structure)
    if unit is not None and rng.random() < 0.3:
        unit = None
    return structure, commutative, unit


def _random_lie_case(rng: random.Random):
    dim = rng.randint(1, 4)
    kind = rng.randrange(4)
    if kind == 0:
        return _random_table(rng, dim)
    if kind == 1:
        table = _random_table(rng, dim)
        for i in range(dim):
            table[i][i] = (Fraction(0),) * dim
            for j in range(i):
                table[i][j] = tuple(-c for c in table[j][i])
        return table
    if kind == 2:
        structure = sl2().structure
    else:
        # the Heisenberg algebra [x, y] = z, padded with a central vector
        z, o = Fraction(0), Fraction(1)
        structure = [[(z,) * 4 for _ in range(4)] for _ in range(4)]
        structure[0][1], structure[1][0] = (z, z, o, z), (z, z, -o, z)
    if rng.random() < 0.6:
        structure = _perturbed(rng, structure, antisymmetric=rng.random() < 0.8)
    return structure


def test_table_checks_agree_with_the_triple_loops():
    rng = random.Random(20)
    outcomes = []
    for _ in range(150):
        structure, commutative, unit = _random_algebra_case(rng)
        got = _outcome(fd_algebra, structure, commutative, unit)
        assert got == _outcome(_reference_fd_algebra, structure, commutative, unit)
        outcomes.append(got)
    for _ in range(150):
        structure = _random_lie_case(rng)
        got = _outcome(fd_lie_algebra, structure)
        assert got == _outcome(_reference_fd_lie_algebra, structure)
        outcomes.append(got)
    messages = {o[1].split(" at ")[0] for o in outcomes if o is not None}
    assert {
        "product is not associative",
        "product table is not commutative",
        "bracket is not antisymmetric",
        "Jacobi identity fails",
    } <= messages
    assert sum(o is None for o in outcomes[:150]) >= 20
    assert sum(o is None for o in outcomes[150:]) >= 20
    assert len({o for o in outcomes if o is not None}) >= 25


def _random_involution(rng: random.Random, dim: int, fixed: int) -> ExactMatrix:
    """A signed permutation of order dividing two that fixes the first
    `fixed` basis vectors: disjoint transpositions, one sign per orbit."""
    points = list(range(fixed, dim))
    rng.shuffle(points)
    image = list(range(dim))
    while len(points) >= 2 and rng.random() < 0.6:
        a, b = points.pop(), points.pop()
        image[a], image[b] = b, a
    signs = {x: 1 for x in range(fixed)}
    for x in range(dim):
        signs[x] = signs.get(image[x], rng.choice((-1, 1)))
    return ExactMatrix.from_rows(
        [[signs[c] if image[c] == r else 0 for c in range(dim)] for r in range(dim)]
    )


def test_action_check_agrees_with_the_kronecker_reference():
    rng = random.Random(21)
    lie = sl2()
    outcomes = []
    for case in range(300):
        if case % 2:
            table, build, name = lie, lie_action, "bracket"
        else:
            table = truncated_polynomial_algebra(rng.randint(1, 5))
            build, name = algebra_action, "product"
        # algebra automorphisms fix the unit, so most draws keep it in place
        g = _random_involution(rng, table.dim, int(name == "product" and rng.random() < 0.8))
        got = _outcome(build, Z2, table, [g])
        assert got == _outcome(_reference_respects, table, g, name)
        outcomes.append(got)
    assert sum(o is None for o in outcomes[0::2]) >= 20
    assert sum(o is None for o in outcomes[1::2]) >= 20
    assert len({o for o in outcomes if o is not None}) >= 6


# ---------------------------------------------------------------------------
# group actions on based spaces


def test_group_action_requires_one_generator_per_factor():
    with pytest.raises(EquivariantDataError, match="one generator matrix per cyclic factor"):
        group_action(Z2, [])


def test_group_action_checks_generator_order():
    stretch = ExactMatrix.from_rows([[2]])
    with pytest.raises(EquivariantDataError, match="does not have order 2"):
        group_action(Z2, [stretch])


def test_group_action_checks_commutation():
    swap = ExactMatrix.from_rows([[0, 1], [1, 0]])
    flip = ExactMatrix.from_rows([[1, 0], [0, -1]])
    with pytest.raises(EquivariantDataError, match="must commute"):
        group_action(FiniteAbelianGroup((2, 2)), [swap, flip])


def test_group_action_matrix_of_and_transform(z4_rotation):
    _, action = z4_rotation
    expected = ExactMatrix.from_rows(
        [
            [CycloNumber.zeta(4, 2 * i) if i == j else CycloNumber.zero(4) for j in range(4)]
            for i in range(4)
        ]
    )
    assert action.matrix_of((2,)) == expected
    ones = tuple(CycloNumber.one(4) for _ in range(4))
    assert action.transform((1,), ones) == tuple(CycloNumber.zeta(4, i) for i in range(4))


def test_algebra_action_rejects_non_multiplicative_generator():
    algebra = truncated_polynomial_algebra(4)
    swap = ExactMatrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    with pytest.raises(EquivariantDataError, match="does not respect the product"):
        algebra_action(Z2, algebra, [swap])


def test_lie_action_rejects_non_bracket_generator():
    negate_h = ExactMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    with pytest.raises(EquivariantDataError, match="does not respect the bracket"):
        lie_action(Z2, sl2(), [negate_h])


# ---------------------------------------------------------------------------
# isotypic decomposition


def test_projectors_idempotent_orthogonal_and_complete(qt4_negation):
    _, action = qt4_negation
    chars = all_characters(Z2)
    projectors = [isotypic_projector(action, chi) for chi in chars]
    total = projectors[0]
    for p in projectors[1:]:
        total = total + p
    assert total == ExactMatrix.identity(4, total.ring)
    for i, p in enumerate(projectors):
        assert p @ p == p
        for q in projectors[i + 1 :]:
            assert p @ q == ExactMatrix.zeros(4, 4, p.ring)


def test_projectors_complete_over_cyclotomic_scalars(z4_rotation):
    _, action = z4_rotation
    projectors = [isotypic_projector(action, chi) for chi in all_characters(Z4)]
    total = projectors[0]
    for p in projectors[1:]:
        total = total + p
        assert p @ p == p
    assert total == ExactMatrix.identity(4, total.ring)


def test_trivial_group_projector_is_identity():
    group = FiniteAbelianGroup(())
    action = group_action(group, [], dim=5)
    p = isotypic_projector(action, Character(group, ()))
    assert p == ExactMatrix.identity(5, p.ring)
    assert isotypic_dimensions(action) == [5]


def test_sign_flip_isotypic_dimensions_match_oracle(qt4_negation, oracle):
    _, action = qt4_negation
    assert isotypic_dimensions(action) == oracle["z2_qt4_isotypic_dims"]
    assert isotypic_basis(action, Character(Z2, (1,))) == [
        (0, 1, 0, 0),
        (0, 0, 0, 1),
    ]


def test_rotation_isotypic_dimensions_match_oracle(z4_rotation, oracle):
    _, action = z4_rotation
    assert isotypic_dimensions(action) == oracle["z4_isotypic_dims"]


def test_involution_fixed_and_sign_dimensions_match_oracle(oracle):
    flip = ExactMatrix.from_rows([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    action = lie_action(Z2, sl2(), [flip])
    assert isotypic_dimensions(action) == oracle["sl2_chevalley_dims"]
    assert isotypic_basis(action, Character(Z2, (0,))) == [(1, 0, 1)]
    assert isotypic_basis(action, Character(Z2, (1,))) == [(1, 0, -1), (0, 1, 0)]


# ---------------------------------------------------------------------------
# the fixed-point algebra of the diagonal action


def test_fixed_point_algebra_dimension_and_closure(bundle, oracle):
    ema = bundle["fixed_algebra"]
    assert ema.dimension == oracle["fixed_point_algebra_dim"]
    assert ema.bracket_closed is oracle["fixed_point_bracket_closed"]
    assert ema.fixed_point_rank == ema.dimension
    assert [len(p.lie_basis) for p in ema.pieces] == [1, 2]
    assert [len(p.algebra_basis) for p in ema.pieces] == [2, 2]
    assert ema.pieces[0].character.is_trivial


def test_fixed_point_bracket_table_reconstructs_brackets(bundle):
    ema = bundle["fixed_algebra"]

    def kron(x, a):
        return tuple(xi * aj for xi in x for aj in a)

    vecs = [kron(x, a) for _, x, a in ema.basis]
    for i, (_, x, a) in enumerate(ema.basis):
        for j, (_, y, b) in enumerate(ema.basis):
            coeffs = ema.bracket_table[i][j]
            combo = [Fraction(0)] * len(vecs[0])
            for c, v in zip(coeffs, vecs):
                for t, entry in enumerate(v):
                    combo[t] += c * entry
            assert tuple(combo) == kron(ema.lie.bracket(x, y), ema.algebra.multiply(a, b))


def test_fixed_point_algebra_over_trivial_group():
    group = FiniteAbelianGroup(())
    lie = sl2()
    algebra = truncated_polynomial_algebra(2)
    ema = equivariant_map_algebra(
        lie, algebra, lie_action(group, lie, []), algebra_action(group, algebra, [])
    )
    assert ema.dimension == 6
    assert ema.fixed_point_rank == 6
    assert ema.bracket_closed


def test_fixed_point_algebra_rejects_mismatched_groups(qt4_negation):
    _, a_act = qt4_negation
    lie = sl2()
    l_act = lie_action(FiniteAbelianGroup(()), lie, [])
    with pytest.raises(EquivariantDataError, match="different groups"):
        equivariant_map_algebra(lie, truncated_polynomial_algebra(4), l_act, a_act)


# ---------------------------------------------------------------------------
# maximal ideals and evaluation


def test_max_ideal_requires_unital_algebra():
    bare = fd_algebra([[(Fraction(0),)]])
    with pytest.raises(EquivariantDataError, match="needs a unital algebra"):
        max_ideal(bare, [])


def test_max_ideal_requires_codimension_one():
    algebra = truncated_polynomial_algebra(4)
    with pytest.raises(EquivariantDataError, match="dimension dim - 1"):
        max_ideal(algebra, [(0, 1, 0, 0), (0, 0, 1, 0)])


def test_max_ideal_rejects_dependent_basis():
    algebra = truncated_polynomial_algebra(4)
    with pytest.raises(EquivariantDataError, match="linearly dependent"):
        max_ideal(algebra, [(0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])


def test_max_ideal_rejects_non_ideal_span():
    algebra = truncated_polynomial_algebra(4)
    with pytest.raises(EquivariantDataError, match="not an ideal"):
        max_ideal(algebra, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])


@pytest.mark.parametrize("basis", [[(0, 1, 0)], [(0,)]], ids=["too-long", "too-short"])
def test_max_ideal_rejects_vectors_of_the_wrong_length(basis):
    algebra = truncated_polynomial_algebra(2)
    with pytest.raises(EquivariantDataError, match="ideal basis vectors need 2 coordinates"):
        max_ideal(algebra, basis)


def test_truncation_ideal_evaluates_constant_term():
    algebra = truncated_polynomial_algebra(4)
    ideal = max_ideal(algebra, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert ideal.ev_value((3, 5, 0, 2)) == Fraction(3)
    assert ideal.ev_value(algebra.unit) == Fraction(1)


def test_shifted_ideal_evaluates_at_one():
    algebra = polynomial_quotient_algebra([-1, 0])
    ideal = max_ideal(algebra, [(-1, 1)])
    assert ideal.ev_value((1, 0)) == Fraction(1)
    assert ideal.ev_value((0, 1)) == Fraction(1)
    assert ideal.ev_value((-1, 1)) == Fraction(0)


# ---------------------------------------------------------------------------
# ideal stabilizers and twisted evaluation


def test_stabilizer_full_when_ideal_is_preserved(qt4_negation, oracle):
    algebra, action = qt4_negation
    ideal = max_ideal(algebra, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    stab = ideal_stabilizer(action, ideal)
    assert stab.is_full is oracle["stab_qt4_ideal_t_preserved"]
    assert stab.order == 2
    assert stab.exponent == 2


def test_stabilizer_trivial_when_ideal_moves(oracle):
    algebra = polynomial_quotient_algebra([-1, 0])
    negate = ExactMatrix.from_rows([[1, 0], [0, -1]])
    action = algebra_action(Z2, algebra, [negate])
    ideal = max_ideal(algebra, [(-1, 1)])
    stab = ideal_stabilizer(action, ideal)
    assert stab.is_full is oracle["stab_qt2minus1_ideal_tminus1_preserved"]
    assert stab.is_trivial
    assert stab.elements == ((0,),)


def test_stabilizer_of_a_two_dimensional_moved_ideal_is_trivial():
    """Q[t]/(t^3 - t) with t -> -t: the flip sends the point t = 1 to t = -1,
    so the ideal of t = 1 (basis t - 1, t^2 - 1) is moved, while the ideal
    of t = 0 is kept by the whole group. The flip keeps t^2 - 1 and moves
    t - 1 alone, so a test of one basis vector, or of the t^2 entry of the
    evaluation row alone, would keep the flip."""
    algebra = polynomial_quotient_algebra([0, -1, 0])
    action = algebra_action(Z2, algebra, [ExactMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]])])
    at_one = ideal_stabilizer(action, max_ideal(algebra, [(-1, 1, 0), (-1, 0, 1)]))
    assert at_one.elements == ((0,),) and at_one.is_trivial
    at_zero = ideal_stabilizer(action, max_ideal(algebra, [(0, 1, 0), (0, 0, 1)]))
    assert at_zero.elements == ((0,), (1,)) and at_zero.is_full


def test_twisted_evaluation_kills_the_moving_slice(qt4_negation, oracle):
    algebra, action = qt4_negation
    ideal = max_ideal(algebra, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    report = twisted_evaluation_zero_check(algebra, action, ideal, Character(Z2, (1,)))
    assert [entry["identity"] for entry in report] == [
        "evaluation-vanishes[0]",
        "evaluation-vanishes[1]",
    ]
    assert all(entry["status"] == "pass" for entry in report) is oracle["ev_kills_odd_part"]
    assert [entry["value"] for entry in report] == [
        str(v) for v in oracle["ev_values_odd"]
    ]


def test_twisted_evaluation_requires_a_moving_character():
    algebra = polynomial_quotient_algebra([-1, 0])
    negate = ExactMatrix.from_rows([[1, 0], [0, -1]])
    action = algebra_action(Z2, algebra, [negate])
    ideal = max_ideal(algebra, [(-1, 1)])
    with pytest.raises(EquivariantDataError, match="trivial on the ideal stabilizer"):
        twisted_evaluation_zero_check(algebra, action, ideal, Character(Z2, (1,)))


def test_twisted_evaluation_reports_empty_slice():
    algebra = truncated_polynomial_algebra(2)
    action = algebra_action(Z2, algebra, [ExactMatrix.identity(2)])
    ideal = max_ideal(algebra, [(0, 1)])
    report = twisted_evaluation_zero_check(algebra, action, ideal, Character(Z2, (1,)))
    assert report == [
        {"identity": "evaluation-vanishes[empty-slice]", "status": "pass", "value": "0"}
    ]


def test_twisted_evaluation_on_all_rotation_characters(z4_rotation, oracle):
    algebra, action = z4_rotation
    ideal = max_ideal(algebra, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert ideal_stabilizer(action, ideal).is_full
    all_pass = True
    for a in (1, 2, 3):
        report = twisted_evaluation_zero_check(algebra, action, ideal, Character(Z4, (a,)))
        assert len(report) == 1
        all_pass = all_pass and report[0]["status"] == "pass"
    assert all_pass is oracle["z4_ev_kills_nontrivial_pieces"]


# ---------------------------------------------------------------------------
# evaluation modules for the fixed-point algebra


def test_fixed_subalgebra_basis_under_full_stabilizer(bundle):
    sub = fixed_subalgebra_basis(bundle["lie_act"], bundle["stabilizer"].elements)
    assert sub == [(1, 0, 1)]


def test_bundled_evaluation_module_passes(bundle):
    module = bundle["module"]
    assert module.passed
    assert module.module_dim == 1
    assert len(module.report) == 36
    assert all(entry["status"] == "pass" for entry in module.report)
    assert module.subalgebra_basis == ((Fraction(1), Fraction(0), Fraction(1)),)


def trivial_group_natural_setup():
    group = FiniteAbelianGroup(())
    lie = sl2()
    algebra = truncated_polynomial_algebra(2)
    ema = equivariant_map_algebra(
        lie, algebra, lie_action(group, lie, []), algebra_action(group, algebra, [])
    )
    ideal = max_ideal(algebra, [(0, 1)])
    e_m = ExactMatrix.from_rows([[0, 1], [0, 0]])
    h_m = ExactMatrix.from_rows([[1, 0], [0, -1]])
    f_m = ExactMatrix.from_rows([[0, 0], [1, 0]])
    return ema, ideal, [e_m, h_m, f_m]


def test_natural_module_over_the_trivial_group():
    ema, ideal, rho = trivial_group_natural_setup()
    module = equivariant_evaluation_module(ema, ideal, rho)
    assert module.passed
    assert module.module_dim == 2
    assert len(module.report) == 36
    assert module.subalgebra_basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert module.matrices[0] == rho[0]
    assert module.matrices[1] == ExactMatrix.zeros(2, 2, module.matrices[1].ring)


def test_non_module_action_is_rejected():
    ema, ideal, rho = trivial_group_natural_setup()
    rho[2] = rho[2].scale(Fraction(-1))
    with pytest.raises(AxiomError, match="not a module over the fixed subalgebra"):
        equivariant_evaluation_module(ema, ideal, rho)


def test_non_module_action_flagged_without_validation():
    ema, ideal, rho = trivial_group_natural_setup()
    rho[2] = rho[2].scale(Fraction(-1))
    module = equivariant_evaluation_module(ema, ideal, rho, validate_module=False)
    failures = [entry for entry in module.report if entry["status"] == "fail"]
    assert {entry["identity"] for entry in failures} == {"COMPAT(0,4)", "COMPAT(4,0)"}
    assert all("residual" in entry for entry in failures)


def test_module_matrix_count_is_checked():
    ema, ideal, rho = trivial_group_natural_setup()
    with pytest.raises(EquivariantDataError, match="need 3 action matrices, got 2"):
        equivariant_evaluation_module(ema, ideal, rho[:2])


def test_unclosed_fixed_point_bracket_has_no_module_report():
    """h -> -h alone does not respect the bracket, so it is only a group
    action; the fixed points span(e, f) (x) A are not closed ([e, f] = h)."""
    lie, algebra = sl2(), truncated_polynomial_algebra(2)
    ema = equivariant_map_algebra(
        lie,
        algebra,
        group_action(Z2, [ExactMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]])]),
        algebra_action(Z2, algebra, [ExactMatrix.identity(2)]),
    )
    assert ema.bracket_table is None
    ideal = max_ideal(algebra, [(0, 1)])
    rho = [ExactMatrix.identity(1), ExactMatrix.identity(1)]
    with pytest.raises(EquivariantDataError, match="leaves the fixed subalgebra"):
        equivariant_evaluation_module(ema, ideal, rho)
    with pytest.raises(EquivariantDataError, match="bracket is not closed"):
        equivariant_evaluation_module(ema, ideal, rho, validate_module=False)


# ---------------------------------------------------------------------------
# answers read off stored data, against the constructions they replaced


def _reference_fixed_point_rank(ema) -> int:
    """The rank of the fixed-point projector of the diagonal action on
    g (x) A, whose generators are Kronecker products."""
    group = ema.group
    if not group.factors:
        return ema.lie.dim * ema.algebra.dim
    gens = [
        _promote_matrix(l_gen, ema.ring).kron(_promote_matrix(a_gen, ema.ring))
        for l_gen, a_gen in zip(ema.lie_act.generators, ema.algebra_act.generators)
    ]
    diag = group_action(group, gens)
    return rank(isotypic_projector(diag, Character(group, group.identity)))


def _reference_stabilizer(action, m) -> tuple:
    """The elements that move every ideal basis vector into the ideal span,
    with one elimination per element."""
    promoted = _promote_action(action, m.algebra.ring)
    ring = promoted.ring
    vecs = [tuple(_promote_scalar(c, ring) for c in v) for v in m.basis]
    span = _vectors_matrix(vecs, m.algebra.dim, ring)
    return tuple(
        g
        for g in action.group.elements()
        if all(
            sol.is_consistent
            for sol in solve_each(span, [promoted.transform(g, v) for v in vecs])
        )
    )


def _reference_evaluation_module(ema, m, rho, validate_module):
    """The evaluation module with one solve per vector, each compatibility
    pair evaluating its bracket and product again."""
    ring = ema.ring
    stab = _reference_stabilizer(ema.algebra_act, m)
    allowed = {chi.exponents for chi in characters_trivial_on(ema.group, stab)}
    sub_basis = [
        x for piece in ema.pieces if piece.character.exponents in allowed
        for x in piece.lie_basis
    ]
    rho = tuple(_promote_matrix(mat, ring) for mat in rho)
    if len(rho) != len(sub_basis):
        raise EquivariantDataError(f"need {len(sub_basis)} action matrices, got {len(rho)}")
    module_dim = rho[0].rows if rho else 0
    sub_span = _vectors_matrix(sub_basis, ema.lie.dim, ring)

    def rho_of(x):
        sol = solve_affine(sub_span, x)
        if not sol.is_consistent:
            raise EquivariantDataError("vector leaves the fixed subalgebra")
        return _combination(sol.particular, rho, module_dim, ring)

    if validate_module:
        for i, x in enumerate(sub_basis):
            for j, y in enumerate(sub_basis):
                if rho_of(ema.lie.bracket(x, y)) != rho[i] @ rho[j] - rho[j] @ rho[i]:
                    raise AxiomError(
                        f"the supplied action is not a module over the fixed "
                        f"subalgebra: bracket of basis vectors {i} and {j}"
                    )

    def action_of(chi, x, a):
        scalar = m.ev_value(a)
        if chi.exponents not in allowed or not scalar:
            return ExactMatrix.zeros(module_dim, module_dim, ring)
        return rho_of(x).scale(scalar)

    matrices = [action_of(ema.pieces[pi].character, x, a) for pi, x, a in ema.basis]
    report = []
    for p, (pi, x, a) in enumerate(ema.basis):
        for q, (qi, y, b) in enumerate(ema.basis):
            lhs = matrices[p] @ matrices[q] - matrices[q] @ matrices[p]
            rhs = action_of(
                ema.pieces[pi].character * ema.pieces[qi].character,
                ema.lie.bracket(x, y),
                ema.algebra.multiply(a, b),
            )
            ok = lhs == rhs
            report.append(report_entry(f"COMPAT({p},{q})", ok, None if ok else (lhs - rhs).pretty()))
    return matrices, report


def _module_outcome(build, *args):
    """The matrices and report text of an evaluation module, or the
    exception it raised."""
    try:
        matrices, report = build(*args)
    except (AxiomError, EquivariantDataError) as exc:
        return type(exc).__name__, str(exc)
    return [(mat.ring.name, str(mat.entries)) for mat in matrices], str(list(report))


def _module_parts(ema, m, rho, validate_module):
    module = equivariant_evaluation_module(ema, m, rho, validate_module)
    return module.matrices, module.report


def _assert_matches_references(ema, ideal, rho, validate_module=True):
    """Fixed-point rank, stabilizer and evaluation module against the
    references; returns the module outcome."""
    assert ema.fixed_point_rank == _reference_fixed_point_rank(ema)
    assert ideal_stabilizer(ema.algebra_act, ideal).elements == _reference_stabilizer(
        ema.algebra_act, ideal
    )
    got = _module_outcome(_module_parts, ema, ideal, rho, validate_module)
    assert got == _module_outcome(_reference_evaluation_module, ema, ideal, rho, validate_module)
    return got


def _root(m: int, power: int):
    return Fraction(-1) ** (power % m) if m <= 2 else CycloNumber.zeta(m, power)


def _diagonal(m: int, values) -> ExactMatrix:
    zero = Fraction(0) if m <= 2 else CycloNumber.zero(m)
    return ExactMatrix.from_rows(
        [[v if i == j else zero for j in range(len(values))] for i, v in enumerate(values)]
    )


def _root_ideal(algebra, point) -> tuple:
    """The ideal of t = point in Q[t]/(f): basis t^k - point^k."""
    n = algebra.dim
    return tuple(
        tuple([-Fraction(point) ** k] + [int(j == k) for j in range(1, n)]) for k in range(1, n)
    )


def test_cyclic_family_matches_the_references():
    """Z_m acts on sl2 by e -> z^a e, f -> z^-a f and on Q(z)[t]/(t^d) by
    t -> z^b t, with a and b seeded units modulo m."""
    rng = random.Random(28)
    lie = sl2()
    for m, d in itertools.product((2, 3, 4, 6), (3, 4, 5)):
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        a, b, c = rng.choice(units), rng.choice(units), rng.choice((1, 2, 3, -1))
        group = FiniteAbelianGroup((m,))
        lie_act = lie_action(group, lie, [_diagonal(m, [_root(m, a), _root(m, 0), _root(m, -a)])])
        algebra = truncated_polynomial_algebra(d, m)
        algebra_act = algebra_action(group, algebra, [_diagonal(m, [_root(m, b * k) for k in range(d)])])
        ideal = max_ideal(algebra, [tuple(int(k == j) for k in range(d)) for j in range(1, d)])
        ema = equivariant_map_algebra(lie, algebra, lie_act, algebra_act)
        _assert_matches_references(ema, ideal, [ExactMatrix.from_rows([[c, 0], [0, -c]])])
        # the pairs (sl2 weight, power of t) whose characters cancel
        assert ema.fixed_point_rank == sum(
            (w + b * k) % m == 0 for w in (a, 0, -a) for k in range(d)
        )


def test_klein_four_action_with_off_diagonal_generators_matches_the_references():
    """Z2 x Z2 acts on sl2 by e, f -> -e, -f and by the flip e <-> f,
    h -> -h, and on Q[t]/(t^4 - 1) by t -> -t and t -> t^3. The ideal of
    t = 1 is kept by t -> t^3 alone; the ideal of t = -1 likewise."""
    group = FiniteAbelianGroup((2, 2))
    lie = sl2()
    flip = ExactMatrix.from_rows([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    lie_act = lie_action(group, lie, [ExactMatrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, -1]]), flip])
    algebra = polynomial_quotient_algebra([-1, 0, 0, 0])
    negate = ExactMatrix.from_rows([[(-1) ** i if i == j else 0 for j in range(4)] for i in range(4)])
    cube = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
    algebra_act = algebra_action(group, algebra, [negate, cube])
    ema = equivariant_map_algebra(lie, algebra, lie_act, algebra_act)
    # (1/4)(3*4 + (-1)(2) + (-1)(0) + (-1)(2)): traces of L_g and A_g
    assert ema.fixed_point_rank == 2 == ema.dimension
    for point in (1, -1):
        ideal = max_ideal(algebra, _root_ideal(algebra, point))
        assert ideal_stabilizer(algebra_act, ideal).elements == ((0, 0), (0, 1))
        _assert_matches_references(ema, ideal, [ExactMatrix.from_rows([[1, 2], [0, 1]])])


def test_trivial_group_matches_the_references():
    ema, ideal, rho = trivial_group_natural_setup()
    assert _reference_fixed_point_rank(ema) == ema.fixed_point_rank == 6
    _assert_matches_references(ema, ideal, rho)


@pytest.fixture(scope="module")
def root_ideal_cases() -> list:
    """sl2 under the flip tensored with Q[t]/(t^3 - t) and with
    Q[t]/((t^2 - 1)(t^2 - 4)) under t -> -t, with every root ideal."""
    lie = sl2()
    flip = ExactMatrix.from_rows([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    lie_act = lie_action(Z2, lie, [flip])
    cases = []
    for modulus, roots in (([0, -1, 0], (0, 1, -1)), ([4, 0, -5, 0], (1, -1, 2, -2))):
        algebra = polynomial_quotient_algebra(modulus)
        negate = ExactMatrix.from_rows(
            [[(-1) ** i if i == j else 0 for j in range(algebra.dim)] for i in range(algebra.dim)]
        )
        algebra_act = algebra_action(Z2, algebra, [negate])
        ema = equivariant_map_algebra(lie, algebra, lie_act, algebra_act)
        for point in roots:
            cases.append((ema, max_ideal(algebra, _root_ideal(algebra, point)), point))
    return cases


def test_root_ideals_match_the_references(root_ideal_cases):
    # the natural 2x2 action of e + f, e - f and h, in the flip's slice order
    natural = [
        ExactMatrix.from_rows(rows)
        for rows in ([[0, 1], [1, 0]], [[0, 1], [-1, 0]], [[1, 0], [0, -1]])
    ]
    for ema, ideal, point in root_ideal_cases:
        stab = ideal_stabilizer(ema.algebra_act, ideal)
        assert stab.is_full is (point == 0)
        count = 1 if point == 0 else 3  # the flip's fixed line e + f, or all of sl2
        outcome = _assert_matches_references(ema, ideal, natural[:count])
        assert "fail" not in outcome[1]


def test_seeded_non_module_actions_match_the_references(root_ideal_cases):
    """Seeded 2x2 matrices on the whole of sl2, which are rarely a module:
    the report, with validation off, and the exception, with it on."""
    rng = random.Random(29)
    cases = [(ema, ideal) for ema, ideal, point in root_ideal_cases if point != 0]
    cases.append(trivial_group_natural_setup()[:2])
    failing = 0
    for draw in range(36):
        ema, ideal = cases[draw % len(cases)]
        rho = [
            ExactMatrix.from_rows([[rng.choice((-1, 0, 1, 2)) for _ in range(2)] for _ in range(2)])
            for _ in range(3)
        ]
        outcome = _assert_matches_references(ema, ideal, rho, validate_module=False)
        failing += "fail" in outcome[1]
        if draw % 3 == 0:
            _assert_matches_references(ema, ideal, rho)
    assert failing >= 30


# ---------------------------------------------------------------------------
# JSON descriptions


def test_scalar_json_round_trip():
    assert scalar_to_json(Fraction(3, 2)) == "3/2"
    assert scalar_from_json("3/2") == Fraction(3, 2)
    assert scalar_from_json("5") == Fraction(5)
    s = CycloNumber(4, [Fraction(1, 2), Fraction(-3)])
    assert scalar_from_json(scalar_to_json(s)) == s


def test_setup_from_json_rebuilds_the_bundle(bundle):
    def ser_structure(structure):
        return [[[scalar_to_json(c) for c in vec] for vec in row] for row in structure]

    def ser_matrix(m):
        return [[scalar_to_json(c) for c in row] for row in m.entries]

    obj = {
        "group": {"factors": [2]},
        "algebra": {
            "structure": ser_structure(bundle["algebra"].structure),
            "unit": [scalar_to_json(c) for c in bundle["algebra"].unit],
        },
        "lie": {"structure": ser_structure(bundle["lie"].structure)},
        "actions": {
            "algebra": [ser_matrix(m) for m in bundle["algebra_act"].generators],
            "lie": [ser_matrix(m) for m in bundle["lie_act"].generators],
        },
        "ideal": {
            "basis": [[scalar_to_json(c) for c in v] for v in bundle["ideal"].basis]
        },
        "module": {"matrices": [ser_matrix(m) for m in bundle["module"].rho]},
    }
    out = setup_from_json_dict(json.loads(json.dumps(obj, sort_keys=True)))
    assert out["fixed_algebra"].dimension == 6
    assert out["fixed_algebra"].bracket_closed
    assert out["module"].passed
    assert out["module"].module_dim == 1


def _square_root_of_one_document() -> dict:
    """Q[t]/(t^2 - 1) with Z2 acting by t -> -t, as a description file."""
    return {
        "group": {"factors": [2]},
        "algebra": {
            "structure": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
            "unit": ["1", "0"],
        },
        "actions": {"algebra": [[["1", "0"], ["0", "-1"]]]},
    }


def _with(path: tuple, value) -> dict:
    """The square-root-of-one document with one field replaced (or removed,
    when value is None and the path ends in a key)."""
    doc = _square_root_of_one_document()
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is None and isinstance(path[-1], str):
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def test_square_root_of_one_document_reads():
    out = setup_from_json_dict(_square_root_of_one_document())
    assert out["algebra"].dim == 2 and out["algebra_act"].dim == 2


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [_square_root_of_one_document()],
        _with(("group", "factors"), ["2"]),
        _with(("algebra", "structure"), 5),
        _with(("algebra", "unit", 0), None),
        _with(("group", "factors"), None),
        _with(("actions",), None),
        _with(("algebra", "unit"), ["1"]),
        {**_square_root_of_one_document(), "ideal": {"basis": [["-1", "1", "0"]]}},
    ],
    ids=[
        "empty-object",
        "top-level-list",
        "string-factor",
        "number-structure",
        "null-scalar",
        "missing-factors",
        "missing-actions",
        "short-unit",
        "long-ideal-vector",
    ],
)
def test_setup_from_json_refuses_malformed_documents(doc):
    with pytest.raises(EquivariantDataError):
        setup_from_json_dict(doc)


@pytest.mark.parametrize("value", ["false", 0, None, [1]])
def test_setup_from_json_requires_a_bool_commutative_flag(value):
    doc = _square_root_of_one_document()
    doc["algebra"]["commutative"] = value
    with pytest.raises(EquivariantDataError, match="bool 'commutative'"):
        setup_from_json_dict(doc)


@pytest.mark.parametrize("value", [True, False])
def test_setup_from_json_reads_the_commutative_flag(value):
    out = setup_from_json_dict(_with(("algebra", "commutative"), value))
    assert out["algebra"].commutative is value


def test_outputs_match_the_frozen_text():
    """tests/oracles/frozen_equivariant_outputs.json holds the text that
    freeze_equivariant_outputs.py rendered when it was frozen."""
    spec = importlib.util.spec_from_file_location(
        "freeze_equivariant_outputs", ORACLES / "freeze_equivariant_outputs.py"
    )
    freeze = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(freeze)
    assert freeze.render() == (ORACLES / "frozen_equivariant_outputs.json").read_text()
