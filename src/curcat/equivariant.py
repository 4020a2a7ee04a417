"""Finite abelian symmetry over exact scalars, in plain vector spaces.

This is the concrete matrix backend for group-graded structures: finite
abelian groups and their characters, isotypic projectors, fixed-point
algebras of diagonal actions on a tensor product g (x) A, stabilizers of
maximal ideals, evaluation functionals, and the evaluation modules twisted
by a character grading. Scalars are rationals, or cyclotomic numbers whose
conductor is the group exponent when the group forces roots of unity.

Everything is validated eagerly: algebras for associativity, Lie algebras
for antisymmetry and the Jacobi identity, group actions for generator
orders and automorphism behaviour, ideals for closure and codimension one.
A table is checked through its left multiplications M_i (column j is
e_i e_j): associativity, the Jacobi identity and respect for the product
are matrix identities among them, compared column by column so that a
failure names its basis triple or pair.

An action keeps the matrix of every group element, built once when it is
validated. Later answers are read off what is stored: projectors and the
fixed-point dimension from the element matrices, stabilizers from the
evaluation row, module reports from the fixed-point bracket table. Questions
asked of one span (is each of these vectors in it, and with which
coordinates) are answered by one elimination through ``solve_each``.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

from curcat.exact import (
    RATIONAL_RING,
    CycloNumber,
    ExactMatrix,
    Ring,
    UnsupportedRingError,
    _poly_divmod,
    cyclo_ring,
    matrix_from_columns,
    rank,
    ring_of,
    rref,
    solve_each,
)
from curcat.lie import AxiomError, report_entry, report_passed

__all__ = [
    "FiniteAbelianGroup",
    "Character",
    "FDAlgebra",
    "FDLieAlgebra",
    "GroupActionOnSpace",
    "MaxIdeal",
    "EquivariantDataError",
    "all_characters",
    "characters_trivial_on",
    "fd_algebra",
    "fd_lie_algebra",
    "truncated_polynomial_algebra",
    "polynomial_quotient_algebra",
    "sl2",
    "group_action",
    "algebra_action",
    "lie_action",
    "isotypic_projector",
    "isotypic_basis",
    "isotypic_dimensions",
    "GradedPiece",
    "FixedPointAlgebra",
    "equivariant_map_algebra",
    "StabilizerResult",
    "ideal_stabilizer",
    "max_ideal",
    "twisted_evaluation_zero_check",
    "fixed_subalgebra_basis",
    "EvaluationModuleResult",
    "equivariant_evaluation_module",
    "sl2_z2_truncated_setup",
    "scalar_to_json",
    "scalar_from_json",
    "setup_from_json_dict",
]


class EquivariantDataError(ValueError):
    """Input data violates a structural precondition."""


# ---------------------------------------------------------------------------
# groups and characters


@dataclasses.dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups, given by one modulus per factor.

    >>> FiniteAbelianGroup((2, 4)).order
    8
    >>> FiniteAbelianGroup(()).exponent
    1
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        for f in self.factors:
            if f < 2:
                raise EquivariantDataError("every cyclic factor needs modulus >= 2")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.factors) if self.factors else 1

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(f) for f in self.factors)))

    def add(self, g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((a + b) % f for a, b, f in zip(g, h, self.factors))

    def neg(self, g: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-a) % f for a, f in zip(g, self.factors))

    def element_order(self, g: tuple[int, ...]) -> int:
        return math.lcm(*(f // math.gcd(a, f) for a, f in zip(g, self.factors))) if g else 1


@dataclasses.dataclass(frozen=True)
class Character:
    """A homomorphism to roots of unity, one exponent residue per factor.

    Values are rational (+1/-1) when the group exponent divides 2 and live
    in the cyclotomic field of the exponent otherwise.
    """

    group: FiniteAbelianGroup
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.group.factors):
            raise EquivariantDataError("one exponent per cyclic factor")
        object.__setattr__(
            self,
            "exponents",
            tuple(x % f for x, f in zip(self.exponents, self.group.factors)),
        )

    def value(self, g: tuple[int, ...]):
        e = self.group.exponent
        total = sum(
            a * x * (e // f)
            for a, x, f in zip(g, self.exponents, self.group.factors)
        ) % e
        if e <= 2:
            return Fraction(-1) ** total
        return CycloNumber.zeta(e, total)

    def inverse_value(self, g: tuple[int, ...]):
        return self.value(self.group.neg(g))

    def __mul__(self, other: "Character") -> "Character":
        if other.group != self.group:
            raise EquivariantDataError("characters of different groups")
        return Character(
            self.group,
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
        )

    def inverse(self) -> "Character":
        return Character(self.group, tuple(-a for a in self.exponents))

    @property
    def is_trivial(self) -> bool:
        return all(a == 0 for a in self.exponents)

    def is_trivial_on(self, elements) -> bool:
        one = Fraction(1) if self.group.exponent <= 2 else CycloNumber.one(
            self.group.exponent
        )
        return all(self.value(g) == one for g in elements)


def all_characters(group: FiniteAbelianGroup) -> list[Character]:
    """Every character, in lexicographic exponent order (trivial first)."""
    return [
        Character(group, exps)
        for exps in itertools.product(*(range(f) for f in group.factors))
    ]


def characters_trivial_on(group: FiniteAbelianGroup, elements) -> list[Character]:
    return [chi for chi in all_characters(group) if chi.is_trivial_on(elements)]


# ---------------------------------------------------------------------------
# scalar promotion


def _ring_of_scalars(values) -> Ring:
    return _join_rings(*(ring_of(v) for v in values))


def _join_rings(*rings: Ring) -> Ring:
    result = RATIONAL_RING
    for ring in rings:
        if ring is RATIONAL_RING:
            continue
        if result is RATIONAL_RING:
            result = ring
        elif result != ring:
            raise UnsupportedRingError(f"mixed scalars: {result.name} vs {ring.name}")
    return result


def _character_ring(group: FiniteAbelianGroup) -> Ring:
    return RATIONAL_RING if group.exponent <= 2 else cyclo_ring(group.exponent)


def _promote_scalar(x, ring: Ring):
    if ring is RATIONAL_RING:
        if isinstance(x, CycloNumber):
            return x.as_rational()
        return Fraction(x)
    if isinstance(x, CycloNumber):
        if cyclo_ring(x.conductor) != ring:
            raise UnsupportedRingError(
                f"cannot move {x!r} into {ring.name}"
            )
        return x
    return ring.one * Fraction(x)


def _promote_matrix(m: ExactMatrix, ring: Ring) -> ExactMatrix:
    if m.ring == ring:
        return m
    return m.map_entries(lambda x: _promote_scalar(x, ring), ring)


def _freeze_table(structure, ring: Ring) -> tuple:
    """Structure constants as a dim x dim x dim tuple with every entry moved
    into ring."""
    frozen = tuple(
        tuple(tuple(_promote_scalar(c, ring) for c in vec) for vec in row)
        for row in structure
    )
    dim = len(frozen)
    if any(len(row) != dim or any(len(vec) != dim for vec in row) for row in frozen):
        raise EquivariantDataError("structure constants must be dim x dim x dim")
    return frozen


def _standard_basis(dim: int, ring: Ring) -> list[tuple]:
    return [
        tuple(ring.one if t == i else ring.zero for t in range(dim))
        for i in range(dim)
    ]


def _column_space_basis(m: ExactMatrix) -> list[tuple]:
    """Canonical spanning vectors for the column space (echelon rows of the
    transpose)."""
    reduced, rnk, _ = rref(m.transpose())
    return [reduced.entries[i] for i in range(rnk)]


def _vectors_matrix(vectors, dim: int, ring: Ring) -> ExactMatrix:
    if not vectors:
        return ExactMatrix.zeros(dim, 0, ring)
    return matrix_from_columns([list(v) for v in vectors], ring)


def _kron_vector(x, a) -> tuple:
    return tuple(xi * aj for xi in x for aj in a)


def _combination(coeffs, matrices, size: int, ring: Ring) -> ExactMatrix:
    """The size x size matrix sum of c * M over paired coefficients and
    matrices, in one pass over the entries; zero terms are skipped."""
    terms = [(c, m.entries) for c, m in zip(coeffs, matrices) if c]
    grid = [
        [sum((c * m[r][s] for c, m in terms if m[r][s]), ring.zero) for s in range(size)]
        for r in range(size)
    ]
    return ExactMatrix(grid, ring, cols=size)


def _trace(m: ExactMatrix, ring: Ring):
    """The trace of a square matrix, moved into ring."""
    return sum((_promote_scalar(m.entries[i][i], ring) for i in range(m.rows)), ring.zero)


def _first_unequal_column(a: ExactMatrix, b: ExactMatrix) -> int | None:
    """The first column where two same-shape matrices differ, or None."""
    columns = zip(zip(*a.entries), zip(*b.entries))
    return next((k for k, (x, y) in enumerate(columns) if x != y), None)


# ---------------------------------------------------------------------------
# finite-dimensional algebras


class _BilinearTable:
    """A bilinear product given by structure constants on a based space.

    structure[i][j] holds the coordinates of (basis i) * (basis j).
    """

    def left_multiplications(self) -> list[ExactMatrix]:
        """M_i for every basis vector e_i: column j of M_i is e_i * e_j."""
        return [_vectors_matrix(row, self.dim, self.ring) for row in self.structure]

    def product(self, u, v) -> tuple:
        out = [self.ring.zero] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                for k, c in enumerate(self.structure[i][j]):
                    out[k] = out[k] + ui * vj * c
        return tuple(out)


@dataclasses.dataclass(frozen=True)
class FDAlgebra(_BilinearTable):
    """Structure constants for a product on a based vector space."""

    dim: int
    structure: tuple
    commutative: bool
    unit: tuple | None
    ring: Ring

    multiply = _BilinearTable.product


def fd_algebra(structure, commutative: bool = True, unit=None) -> FDAlgebra:
    """Validate and freeze an associative product table: (e_i e_j) e_k =
    e_i (e_j e_k) for every k says sum_p c_ij^p M_p = M_i M_j, where M_i is
    left multiplication by e_i and c_ij^p are the coordinates of e_i e_j."""
    dim = len(structure)
    ring = _ring_of_scalars([c for row in structure for vec in row for c in vec])
    frozen = _freeze_table(structure, ring)
    if unit is not None and len(unit) != dim:
        raise EquivariantDataError(f"the unit needs {dim} coordinates, got {len(unit)}")
    alg = FDAlgebra(
        dim,
        frozen,
        commutative,
        tuple(_promote_scalar(c, ring) for c in unit) if unit is not None else None,
        ring,
    )
    basis = _standard_basis(dim, ring)
    if commutative:
        for i in range(dim):
            for j in range(i):
                if frozen[i][j] != frozen[j][i]:
                    raise AxiomError(f"product table is not commutative at ({i},{j})")
    mults = alg.left_multiplications()
    for i, m_i in enumerate(mults):
        for j, m_j in enumerate(mults):
            k = _first_unequal_column(_combination(frozen[i][j], mults, dim, ring), m_i @ m_j)
            if k is not None:
                raise AxiomError(f"product is not associative at ({i},{j},{k})")
    if alg.unit is not None:
        for i in range(dim):
            if alg.multiply(alg.unit, basis[i]) != basis[i] or alg.multiply(
                basis[i], alg.unit
            ) != basis[i]:
                raise AxiomError(f"claimed unit fails on basis vector {i}")
    return alg


def truncated_polynomial_algebra(n: int, conductor: int = 1) -> FDAlgebra:
    """One variable modulo its n-th power, basis 1, t, ..., t^(n-1).

    Entries are rational, or cyclotomic of the given conductor above two.

    >>> A = truncated_polynomial_algebra(4)
    >>> A.multiply((0, 1, 0, 0), (0, 0, 1, 0))[3]
    Fraction(1, 1)
    """
    ring = RATIONAL_RING if conductor <= 2 else cyclo_ring(conductor)
    return _quotient_algebra([0] * n, ring)


def polynomial_quotient_algebra(modulus) -> FDAlgebra:
    """One variable modulo a monic polynomial, given by its lower coefficients.

    modulus lists c_0, ..., c_(n-1) with t^n = -(c_0 + c_1 t + ...).

    >>> A = polynomial_quotient_algebra([-1, 0])  # square root of one
    >>> A.multiply((0, 1), (0, 1))
    (Fraction(1, 1), Fraction(0, 1))
    """
    if not modulus:
        raise EquivariantDataError("the modulus needs positive degree")
    return _quotient_algebra(modulus, RATIONAL_RING)


def _quotient_algebra(modulus, ring: Ring) -> FDAlgebra:
    """Q[t] modulo t^n + c_(n-1) t^(n-1) + ... + c_0 with entries in ring:
    the product of basis vectors t^i and t^j is t^(i+j) mod the modulus."""
    monic = [Fraction(c) for c in modulus] + [Fraction(1)]
    n = len(modulus)

    def power(k: int) -> tuple:
        _, rem = _poly_divmod([Fraction(0)] * k + [Fraction(1)], monic)
        rem += [Fraction(0)] * (n - len(rem))
        return tuple(_promote_scalar(c, ring) for c in rem)

    structure = [[power(i + j) for j in range(n)] for i in range(n)]
    return fd_algebra(structure, commutative=True, unit=power(0))


@dataclasses.dataclass(frozen=True)
class FDLieAlgebra(_BilinearTable):
    """Bracket structure constants on a based vector space."""

    dim: int
    structure: tuple
    ring: Ring

    bracket = _BilinearTable.product


def fd_lie_algebra(structure) -> FDLieAlgebra:
    """Validate antisymmetry on the table entries, then the Jacobi identity:
    given antisymmetry, its sum at (i, j, k) is column k of M_i M_j - M_j M_i
    - sum_p c_ij^p M_p, for M_i = ad(e_i) and c_ij^p the coordinates of [e_i, e_j]."""
    dim = len(structure)
    ring = _ring_of_scalars([c for row in structure for vec in row for c in vec])
    frozen = _freeze_table(structure, ring)
    lie = FDLieAlgebra(dim, frozen, ring)
    for i in range(dim):
        if any(frozen[i][i]):
            raise AxiomError(f"bracket of basis vector {i} with itself is nonzero")
        for j in range(dim):
            if any(a + b for a, b in zip(frozen[i][j], frozen[j][i])):
                raise AxiomError(f"bracket is not antisymmetric at ({i},{j})")
    ads = lie.left_multiplications()
    for i, ad_i in enumerate(ads):
        for j, ad_j in enumerate(ads):
            bracket = ad_i @ ad_j - ad_j @ ad_i
            k = _first_unequal_column(_combination(frozen[i][j], ads, dim, ring), bracket)
            if k is not None:
                raise AxiomError(f"Jacobi identity fails at ({i},{j},{k})")
    return lie


def sl2() -> FDLieAlgebra:
    """Traceless two-by-two matrices with basis e, h, f."""
    z, two = Fraction(0), Fraction(2)
    o = Fraction(1)
    rows = [[[z, z, z] for _ in range(3)] for _ in range(3)]
    rows[0][1] = [-two, z, z]  # [e, h] = -2e
    rows[1][0] = [two, z, z]
    rows[0][2] = [z, o, z]  # [e, f] = h
    rows[2][0] = [z, -o, z]
    rows[1][2] = [z, z, -two]  # [h, f] = -2f
    rows[2][1] = [z, z, two]
    return fd_lie_algebra(rows)


# ---------------------------------------------------------------------------
# group actions


@dataclasses.dataclass(frozen=True)
class GroupActionOnSpace:
    """One invertible matrix per cyclic factor (generators) and per group
    element (matrices, in ``group.elements()`` order), on a based space."""

    group: FiniteAbelianGroup
    dim: int
    generators: tuple[ExactMatrix, ...]
    matrices: tuple[ExactMatrix, ...]
    ring: Ring

    def matrix_of(self, g: tuple[int, ...]) -> ExactMatrix:
        index = 0
        for a, f in zip(g, self.group.factors):
            index = index * f + a % f
        return self.matrices[index]

    def transform(self, g, v) -> tuple:
        return tuple(
            sum((x * y for x, y in zip(row, v)), self.ring.zero)
            for row in self.matrix_of(g).entries
        )


def group_action(
    group: FiniteAbelianGroup, generators, dim: int | None = None
) -> GroupActionOnSpace:
    """Validate generator orders and commutation, then freeze the action.

    dim names the space dimension when there are no generators (trivial
    group); with generators present it is read off the matrices.
    """
    gens = list(generators)
    if len(gens) != len(group.factors):
        raise EquivariantDataError("one generator matrix per cyclic factor")
    ring = _join_rings(*(m.ring for m in gens)) if gens else RATIONAL_RING
    ring = _join_rings(ring, _character_ring(group))
    gens = [_promote_matrix(m, ring) for m in gens]
    dim = gens[0].rows if gens else (dim or 0)
    identity = ExactMatrix.identity(dim, ring)
    matrices = [identity]
    for m, f in zip(gens, group.factors):
        if m.rows != dim or m.cols != dim:
            raise EquivariantDataError("generator matrices must be square, same size")
        powers = [identity]
        for _ in range(f):
            powers.append(m @ powers[-1])
        if powers.pop() != identity:
            raise EquivariantDataError(f"generator does not have order {f}")
        matrices = [acc @ p for acc in matrices for p in powers]
    for a, b in itertools.combinations(gens, 2):
        if a @ b != b @ a:
            raise EquivariantDataError("generator matrices must commute")
    return GroupActionOnSpace(group, dim, tuple(gens), tuple(matrices), ring)


def _promote_action(action: GroupActionOnSpace, ring: Ring) -> GroupActionOnSpace:
    """The same action with its matrices moved into the join with ring."""
    ring = _join_rings(action.ring, ring)
    return GroupActionOnSpace(
        action.group,
        action.dim,
        tuple(_promote_matrix(m, ring) for m in action.generators),
        tuple(_promote_matrix(m, ring) for m in action.matrices),
        ring,
    )


def _table_action(
    group: FiniteAbelianGroup,
    table: _BilinearTable,
    generators,
    table_name: str,
    product_name: str,
) -> GroupActionOnSpace:
    """A valid action whose generators g also respect the table's product:
    g (e_i e_j) = (g e_i)(g e_j) for every j says g M_i = M_(g e_i) g, where
    M_v = sum_p v_p M_p is left multiplication by v."""
    action = group_action(group, generators, dim=table.dim)
    if action.dim != table.dim:
        raise EquivariantDataError(f"action dimension differs from the {table_name}")
    action = _promote_action(action, table.ring)
    ring, dim = action.ring, table.dim
    mults = [_promote_matrix(m, ring) for m in table.left_multiplications()]
    for gen_index, g in enumerate(action.generators):
        for i, (m_i, g_i) in enumerate(zip(mults, zip(*g.entries))):
            j = _first_unequal_column(g @ m_i, _combination(g_i, mults, dim, ring) @ g)
            if j is not None:
                raise EquivariantDataError(
                    f"generator {gen_index} does not respect the {product_name} at ({i},{j})"
                )
    return action


def algebra_action(
    group: FiniteAbelianGroup, algebra: FDAlgebra, generators
) -> GroupActionOnSpace:
    """A valid action whose generators also respect the product."""
    return _table_action(group, algebra, generators, "algebra", "product")


def lie_action(
    group: FiniteAbelianGroup, lie: FDLieAlgebra, generators
) -> GroupActionOnSpace:
    """A valid action whose generators also respect the bracket."""
    return _table_action(group, lie, generators, "Lie algebra", "bracket")


# ---------------------------------------------------------------------------
# isotypic decomposition


def isotypic_projector(action: GroupActionOnSpace, chi: Character) -> ExactMatrix:
    """Average the action against the inverse character values."""
    group = action.group
    ring = _join_rings(action.ring, _character_ring(group))
    share = Fraction(1, group.order)
    weights = [_promote_scalar(chi.inverse_value(g), ring) * share for g in group.elements()]
    return _combination(weights, action.matrices, action.dim, ring)


def isotypic_basis(action: GroupActionOnSpace, chi: Character) -> list[tuple]:
    """Canonical basis of the piece the projector for chi cuts out."""
    return _column_space_basis(isotypic_projector(action, chi))


def isotypic_dimensions(action: GroupActionOnSpace) -> list[int]:
    """Projector ranks in character order (trivial character first)."""
    return [rank(isotypic_projector(action, chi)) for chi in all_characters(action.group)]


# ---------------------------------------------------------------------------
# fixed-point algebra of the diagonal action


@dataclasses.dataclass(frozen=True)
class GradedPiece:
    character: Character
    lie_basis: tuple
    algebra_basis: tuple


@dataclasses.dataclass(frozen=True)
class FixedPointAlgebra:
    """The diagonal fixed points of g (x) A, graded piece by character.

    basis lists simple tensors (character index, lie vector, algebra vector);
    bracket_table[i][j] expands the bracket of basis elements i and j over
    the same basis.
    """

    lie: FDLieAlgebra
    algebra: FDAlgebra
    group: FiniteAbelianGroup
    lie_act: GroupActionOnSpace
    algebra_act: GroupActionOnSpace
    pieces: tuple[GradedPiece, ...]
    basis: tuple
    bracket_table: tuple | None
    bracket_closed: bool
    fixed_point_rank: int
    ring: Ring

    @property
    def dimension(self) -> int:
        return len(self.basis)


def equivariant_map_algebra(
    lie: FDLieAlgebra,
    algebra: FDAlgebra,
    lie_act: GroupActionOnSpace,
    algebra_act: GroupActionOnSpace,
) -> FixedPointAlgebra:
    """Decompose the diagonal fixed points of g (x) A by character.

    Each graded piece pairs the character's slice of g with the inverse
    character's slice of A; the bracket of two basis tensors re-expands in
    the assembled basis. The total dimension is cross-checked against the
    character count (1/|G|) sum_g tr(L_g) tr(A_g), the averaged trace of
    L_g (x) A_g, which reads traces of the stored matrices, not projectors.
    """
    if lie_act.group != algebra_act.group:
        raise EquivariantDataError("the two actions use different groups")
    group = lie_act.group
    ring = _join_rings(lie_act.ring, algebra_act.ring, _character_ring(group))
    pieces = []
    basis = []
    for chi in all_characters(group):
        lie_part = [
            tuple(_promote_scalar(c, ring) for c in v)
            for v in isotypic_basis(lie_act, chi)
        ]
        alg_part = [
            tuple(_promote_scalar(c, ring) for c in v)
            for v in isotypic_basis(algebra_act, chi.inverse())
        ]
        pieces.append(GradedPiece(chi, tuple(lie_part), tuple(alg_part)))
        for x in lie_part:
            for a in alg_part:
                basis.append((len(pieces) - 1, x, a))
    pairs = zip(lie_act.matrices, algebra_act.matrices)
    trace_sum = sum((_trace(l_g, ring) * _trace(a_g, ring) for l_g, a_g in pairs), ring.zero)
    fixed_rank = int(_promote_scalar(trace_sum, RATIONAL_RING) / group.order)
    span = _vectors_matrix([_kron_vector(x, a) for _, x, a in basis], lie.dim * algebra.dim, ring)
    lie_p = dataclasses.replace(
        lie, structure=_freeze_table(lie.structure, ring), ring=ring
    )
    alg_p = dataclasses.replace(
        algebra, structure=_freeze_table(algebra.structure, ring), ring=ring
    )
    brackets = [
        _kron_vector(lie_p.bracket(x, y), alg_p.multiply(a, b))
        for _, x, a in basis
        for _, y, b in basis
    ]
    sols = solve_each(span, brackets)
    closed = all(sol.is_consistent for sol in sols)
    n = len(basis)
    table = [tuple(sol.particular for sol in sols[i : i + n]) for i in range(0, n * n, n)]
    return FixedPointAlgebra(
        lie_p,
        alg_p,
        group,
        lie_act,
        algebra_act,
        tuple(pieces),
        tuple(basis),
        tuple(table) if closed else None,
        closed,
        fixed_rank,
        ring,
    )


# ---------------------------------------------------------------------------
# maximal ideals and evaluation


@dataclasses.dataclass(frozen=True)
class MaxIdeal:
    """A codimension-one ideal with its evaluation functional.

    ev_row gives the unique multiplicative functional killing the ideal and
    sending the unit to one.
    """

    algebra: FDAlgebra
    basis: tuple
    ev_row: tuple

    def ev_value(self, vec):
        return sum(
            (c * v for c, v in zip(self.ev_row, vec)), self.algebra.ring.zero
        )


def max_ideal(algebra: FDAlgebra, basis) -> MaxIdeal:
    """Validate ideal closure and codimension one, and build evaluation.

    Evaluation needs no separate multiplicativity check. The quotient A/I is
    one-dimensional and spanned by the unit, so every a is ev(a) 1 + i_a with
    i_a in I. Then ab = ev(a) b + i_a b, and i_a b lies in I by closure, so
    ev(ab) = ev(a) ev(b).
    """
    if algebra.unit is None:
        raise EquivariantDataError("evaluation needs a unital algebra")
    ring = algebra.ring
    vecs = [tuple(_promote_scalar(c, ring) for c in v) for v in basis]
    if len(vecs) != algebra.dim - 1:
        raise EquivariantDataError("a maximal ideal here has dimension dim - 1")
    if any(len(v) != algebra.dim for v in vecs):
        raise EquivariantDataError(f"ideal basis vectors need {algebra.dim} coordinates")
    span = _vectors_matrix(vecs, algebra.dim, ring)
    if rank(span) != algebra.dim - 1:
        raise EquivariantDataError("ideal basis vectors are linearly dependent")
    std = _standard_basis(algebra.dim, ring)
    sols = solve_each(span, [algebra.multiply(e, v) for e in std for v in vecs])
    failed = next((k for k, sol in enumerate(sols) if not sol.is_consistent), None)
    if failed is not None:
        raise EquivariantDataError(
            f"not an ideal: basis vector {failed // len(vecs)} times a generator leaves the span"
        )
    # decompose each standard vector over (ideal basis, unit); the unit
    # coefficient is the evaluation. A unit inside the ideal leaves these
    # dim vectors of rank dim - 1, so some standard vector has no solution.
    sols = solve_each(_vectors_matrix(vecs + [algebra.unit], algebra.dim, ring), std)
    if not all(sol.is_consistent for sol in sols):
        raise EquivariantDataError("the unit lies in the ideal")
    return MaxIdeal(algebra, tuple(vecs), tuple(sol.particular[-1] for sol in sols))


@dataclasses.dataclass(frozen=True)
class StabilizerResult:
    """The subgroup preserving an ideal, listed element by element."""

    elements: tuple
    order: int
    exponent: int
    is_full: bool
    is_trivial: bool


def ideal_stabilizer(action: GroupActionOnSpace, m: MaxIdeal) -> StabilizerResult:
    """All group elements whose matrices map the ideal into itself.

    The ideal is the kernel of the evaluation row ev, and a row vanishes on
    that kernel exactly when it is a multiple of ev. So g keeps the ideal
    exactly when the row ev M_g is a multiple of ev, which is checked by its
    two-by-two minors against a nonzero entry of ev (ev sends the unit to one).
    """
    promoted = _promote_action(action, m.algebra.ring)
    ring = promoted.ring
    ev = tuple(_promote_scalar(c, ring) for c in m.ev_row)
    k = next(i for i, c in enumerate(ev) if c)
    ev_row = ExactMatrix([ev], ring)
    kept = []
    for g, mat in zip(action.group.elements(), promoted.matrices):
        moved = (ev_row @ mat).entries[0]
        if all(x * ev[k] == moved[k] * e for x, e in zip(moved, ev)):
            kept.append(g)
    exponent = math.lcm(*(action.group.element_order(g) for g in kept)) if kept else 1
    return StabilizerResult(
        tuple(kept),
        len(kept),
        exponent,
        len(kept) == action.group.order,
        len(kept) == 1,
    )


def twisted_evaluation_zero_check(
    algebra: FDAlgebra,
    action: GroupActionOnSpace,
    m: MaxIdeal,
    f: Character,
) -> list[dict]:
    """Evaluation must vanish on the slice of a character that moves the ideal.

    Preconditions: f restricted to the ideal's stabilizer is nontrivial.
    Each report entry records the evaluation of one slice basis vector.
    """
    stab = ideal_stabilizer(action, m)
    if f.is_trivial_on(stab.elements):
        raise EquivariantDataError(
            "the character is trivial on the ideal stabilizer; nothing to check"
        )
    report = []
    for idx, v in enumerate(isotypic_basis(action, f)):
        value = m.ev_value(tuple(_promote_scalar(c, m.algebra.ring) for c in v))
        report.append(
            {**report_entry(f"evaluation-vanishes[{idx}]", not value), "value": str(value)}
        )
    if not report:
        report.append(
            {**report_entry("evaluation-vanishes[empty-slice]", True), "value": "0"}
        )
    return report


# ---------------------------------------------------------------------------
# evaluation modules twisted by the grading


def fixed_subalgebra_basis(
    lie_act: GroupActionOnSpace, stabilizer_elements
) -> list[tuple]:
    """Basis of the part of the Lie algebra fixed by the given elements,
    assembled from the slices of characters trivial on them."""
    chis = characters_trivial_on(lie_act.group, stabilizer_elements)
    basis: list[tuple] = []
    for chi in chis:
        basis.extend(tuple(v) for v in isotypic_basis(lie_act, chi))
    return basis


@dataclasses.dataclass(frozen=True)
class EvaluationModuleResult:
    """Action matrices for the fixed-point algebra through evaluation.

    matrices aligns with the fixed-point algebra's basis; compatibility
    holds when every bracket of basis tensors acts as the matrix commutator.
    """

    fixed_algebra: FixedPointAlgebra
    ideal: MaxIdeal
    module_dim: int
    subalgebra_basis: tuple
    rho: tuple[ExactMatrix, ...]
    matrices: tuple[ExactMatrix, ...]
    report: tuple

    @property
    def passed(self) -> bool:
        return report_passed(list(self.report))


def equivariant_evaluation_module(
    ema: FixedPointAlgebra,
    m: MaxIdeal,
    rho,
    validate_module: bool = True,
) -> EvaluationModuleResult:
    """Act by evaluating the algebra slot at the ideal.

    A basis tensor whose character is trivial on the ideal's stabilizer acts
    by the evaluated scalar times the supplied matrix action of its Lie
    part; every other basis tensor acts by zero. rho lists one matrix per
    vector of the Lie bases of those characters' pieces, in character order
    (fixed_subalgebra_basis). The compatibility identity is checked on all
    pairs of basis tensors. The action is linear and [x (x) a, y (x) b] =
    [x, y] (x) ab, so the bracket of basis tensors p and q, which the
    bracket table expands as sum_r c_pq^r (basis tensor r), acts by
    sum_r c_pq^r M_r.
    """
    ring = ema.ring
    stab = ideal_stabilizer(ema.algebra_act, m)
    allowed = {
        chi.exponents for chi in characters_trivial_on(ema.group, stab.elements)
    }
    # the Lie part of a basis tensor in an acting piece is itself a vector of
    # the fixed subalgebra's basis; slot gives its place there, so no solve
    slot = {}
    for piece_idx, piece in enumerate(ema.pieces):
        if piece.character.exponents in allowed:
            for x in piece.lie_basis:
                slot[piece_idx, x] = len(slot)
    sub_basis = [x for _, x in slot]
    rho = tuple(_promote_matrix(mat, ring) for mat in rho)
    if len(rho) != len(sub_basis):
        raise EquivariantDataError(
            f"need {len(sub_basis)} action matrices, got {len(rho)}"
        )
    if rho:
        module_dim = rho[0].rows
        if any(mat.rows != module_dim or mat.cols != module_dim for mat in rho):
            raise EquivariantDataError("action matrices must be square, same size")
    else:
        module_dim = 0

    if validate_module:
        sub_span = _vectors_matrix(sub_basis, ema.lie.dim, ring)
        brackets = [ema.lie.bracket(x, y) for x in sub_basis for y in sub_basis]
        for k, sol in enumerate(solve_each(sub_span, brackets)):
            i, j = divmod(k, len(sub_basis))
            if not sol.is_consistent:
                raise EquivariantDataError("vector leaves the fixed subalgebra")
            lhs = _combination(sol.particular, rho, module_dim, ring)
            if lhs != rho[i] @ rho[j] - rho[j] @ rho[i]:
                raise AxiomError(
                    f"the supplied action is not a module over the fixed "
                    f"subalgebra: bracket of basis vectors {i} and {j}"
                )

    zero = ExactMatrix.zeros(module_dim, module_dim, ring)
    matrices = []
    for piece_idx, x, a in ema.basis:
        index = slot.get((piece_idx, x))
        scalar = m.ev_value(a)
        matrices.append(rho[index].scale(scalar) if index is not None and scalar else zero)
    if ema.bracket_table is None:
        raise EquivariantDataError(
            "the fixed-point bracket is not closed: the actions do not respect the products"
        )
    report = []
    for p, q in itertools.product(range(len(matrices)), repeat=2):
        lhs = matrices[p] @ matrices[q] - matrices[q] @ matrices[p]
        rhs = _combination(ema.bracket_table[p][q], matrices, module_dim, ring)
        ok = lhs == rhs
        residual = None if ok else (lhs - rhs).pretty()
        report.append(report_entry(f"COMPAT({p},{q})", ok, residual))
    return EvaluationModuleResult(
        ema,
        m,
        module_dim,
        tuple(sub_basis),
        rho,
        tuple(matrices),
        tuple(report),
    )


# ---------------------------------------------------------------------------
# the bundled worked example


def sl2_z2_truncated_setup() -> dict:
    """Traceless 2x2 matrices with the flip swapping the triangles, tensored
    with one variable truncated at degree four and negated; everything the
    demos, the verifier, and the tests need, in one dictionary."""
    group = FiniteAbelianGroup((2,))
    lie = sl2()
    flip = ExactMatrix.from_rows(
        [
            [Fraction(0), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(-1), Fraction(0)],
            [Fraction(1), Fraction(0), Fraction(0)],
        ]
    )
    l_act = lie_action(group, lie, [flip])
    algebra = truncated_polynomial_algebra(4)
    negate = ExactMatrix.from_rows(
        [
            [Fraction(1 if i == j else 0) * (Fraction(-1) ** j) for j in range(4)]
            for i in range(4)
        ]
    )
    a_act = algebra_action(group, algebra, [negate])
    ideal = max_ideal(
        algebra,
        [
            (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
        ],
    )
    ema = equivariant_map_algebra(lie, algebra, l_act, a_act)
    stab = ideal_stabilizer(a_act, ideal)
    sub = fixed_subalgebra_basis(l_act, stab.elements)
    rho = [ExactMatrix.from_rows([[Fraction(1)]]) for _ in sub]
    module = equivariant_evaluation_module(ema, ideal, rho)
    return {
        "group": group,
        "lie": lie,
        "lie_act": l_act,
        "algebra": algebra,
        "algebra_act": a_act,
        "ideal": ideal,
        "fixed_algebra": ema,
        "stabilizer": stab,
        "module": module,
    }


# ---------------------------------------------------------------------------
# JSON descriptions


def scalar_to_json(x):
    if isinstance(x, CycloNumber):
        return {"conductor": x.conductor, "coeffs": [str(c) for c in x.coeffs]}
    return str(Fraction(x))


def scalar_from_json(obj):
    """A rational from a string or number, or a cyclotomic number from an
    object with an integer "conductor" and a list of "coeffs"; malformed
    input raises EquivariantDataError."""
    try:
        if isinstance(obj, dict):
            return CycloNumber(
                _json_field(obj, "conductor", int),
                [Fraction(c) for c in _json_field(obj, "coeffs", list)],
            )
        return Fraction(obj)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise EquivariantDataError(f"bad scalar {obj!r}: {exc}") from exc


def _json_field(obj, key: str, kind: type):
    if not isinstance(obj, dict) or not isinstance(obj.get(key), kind):
        raise EquivariantDataError(
            f"equivariant JSON needs an object with {kind.__name__} {key!r}"
        )
    return obj[key]


def _scalars_from_json(value, depth: int) -> list:
    """Lists nested depth deep, with a scalar at every leaf."""
    if depth == 0:
        return scalar_from_json(value)
    if not isinstance(value, list):
        raise EquivariantDataError(f"equivariant JSON needs lists nested {depth} deep")
    return [_scalars_from_json(v, depth - 1) for v in value]


def _matrix_from_json(rows) -> ExactMatrix:
    entries = _scalars_from_json(rows, 2)
    ring = _ring_of_scalars([c for row in entries for c in row])
    return ExactMatrix(
        [[_promote_scalar(c, ring) for c in row] for row in entries], ring
    )


def setup_from_json_dict(obj: dict) -> dict:
    """Assemble validated objects from a description file.

    Keys: group (factors), algebra (structure, unit), optional lie
    (structure), actions (algebra: matrices, lie: matrices), optional ideal
    (basis), optional module (matrices). Malformed input raises
    EquivariantDataError.
    """
    factors = _json_field(_json_field(obj, "group", dict), "factors", list)
    if not all(isinstance(f, int) for f in factors):
        raise EquivariantDataError("group factors must be integers")
    group = FiniteAbelianGroup(tuple(factors))
    alg_desc = _json_field(obj, "algebra", dict)
    algebra = fd_algebra(
        _scalars_from_json(_json_field(alg_desc, "structure", list), 3),
        commutative=_json_field({"commutative": True, **alg_desc}, "commutative", bool),
        unit=_scalars_from_json(alg_desc["unit"], 1)
        if alg_desc.get("unit") is not None
        else None,
    )
    out: dict = {"group": group, "algebra": algebra}
    actions = _json_field(obj, "actions", dict)
    a_act = algebra_action(
        group, algebra, [_matrix_from_json(m) for m in _json_field(actions, "algebra", list)]
    )
    out["algebra_act"] = a_act
    if "lie" in obj:
        lie = fd_lie_algebra(_scalars_from_json(_json_field(obj["lie"], "structure", list), 3))
        out["lie"] = lie
        l_act = lie_action(
            group, lie, [_matrix_from_json(m) for m in _json_field(actions, "lie", list)]
        )
        out["lie_act"] = l_act
    if "ideal" in obj:
        out["ideal"] = max_ideal(
            algebra, _scalars_from_json(_json_field(obj["ideal"], "basis", list), 2)
        )
    if "lie" in obj:
        out["fixed_algebra"] = equivariant_map_algebra(
            out["lie"], algebra, out["lie_act"], a_act
        )
        if "ideal" in obj and "module" in obj:
            rho = [_matrix_from_json(m) for m in _json_field(obj["module"], "matrices", list)]
            out["module"] = equivariant_evaluation_module(
                out["fixed_algebra"], out["ideal"], rho
            )
    return out
