"""Tests for degree-indexed current modules, their rules, and the solver."""
from __future__ import annotations

from fractions import Fraction

import pytest

from curcat.currents import (
    CurrentModule,
    EvaluationRule,
    ExplicitRule,
    InducedRule,
    MorphismSpaceResult,
    TrivialRule,
    UnspecializedDeltaError,
    base_module_for,
    check_current_compatibility,
    current_compatibility_residual,
    current_morphism_report,
    current_morphism_residual,
    current_morphism_space,
    dual_current,
    evaluation_module,
    explicit_current,
    incarnation_preimage_space,
    induced_module,
    lie_object_by_name,
    make_extension,
    modules_equal_to_degree,
    right_inverse_check,
    rule_from_description,
    solution_to_morphism,
    tensor_current,
    trivial_current,
    truncated_module,
)
from curcat.diagrams import (
    DiagramTypeError,
    antisymmetrizer,
    compose,
    crossing,
    identity,
    tensor,
    word,
)
from curcat.exact import RATIONAL_RING, ExactMatrix
from curcat.karoubi import (
    kar_braiding,
    kar_diag,
    kar_direct_sum,
    kar_identity,
    kar_scale,
    kar_tensor_objects,
    kar_word,
)
from curcat.lie import (
    AxiomError,
    adjoint_module,
    canonical_module,
    gl_object,
    lie_module,
    natural_module,
    nested_cap,
    nested_cup,
    trivial_module,
    unoriented_so_object,
)


@pytest.fixture(scope="module")
def gl():
    return gl_object()


@pytest.fixture(scope="module")
def nat(gl):
    return natural_module(gl)


def all_pass(report):
    return all(entry["status"] == "pass" for entry in report)


# ---------------------------------------------------------------------------
# the basic rules


def test_trivial_rule_acts_by_zero_in_every_degree(gl):
    M = trivial_current(gl, "uu")
    for n in range(4):
        assert M.action(n).is_zero()
    assert isinstance(M.rule, TrivialRule)


def test_trivial_current_accepts_word_objects_and_strings(gl):
    assert trivial_current(gl, word("ud")).carrier == kar_word(word("ud"))
    assert trivial_current(gl, "ud").carrier == kar_word(word("ud"))


def test_evaluation_action_scales_by_powers_of_the_point(gl, nat):
    M = evaluation_module(Fraction(5), nat)
    base = M.action(0)
    assert base == nat.action
    for n in range(1, 4):
        assert M.action(n) == kar_scale(base, Fraction(5) ** n)


def test_evaluation_at_zero_keeps_degree_zero_only(gl, nat):
    M = evaluation_module(0, nat)
    assert M.action(0) == nat.action
    assert M.action(1).is_zero()
    assert M.action(3).is_zero()


def test_action_cache_returns_the_same_object(gl, nat):
    M = evaluation_module(2, nat)
    assert M.action(2) is M.action(2)


def test_negative_degree_is_rejected(gl, nat):
    M = evaluation_module(2, nat)
    with pytest.raises(ValueError):
        M.action(-1)


def test_induced_rule_composes_powers_of_the_twist(gl):
    base = canonical_module(gl, "uu")
    phi = kar_diag(crossing("u", "u"))
    M = induced_module(base, phi)
    one_l = kar_identity(gl.carrier)
    from curcat.karoubi import kar_compose, kar_tensor

    assert M.action(0) == base.action
    assert M.action(1) == kar_compose(base.action, kar_tensor(one_l, phi))
    assert M.action(2) == kar_compose(
        base.action, kar_tensor(one_l, kar_compose(phi, phi))
    )


def test_induced_rejects_a_non_equivariant_twist(gl, nat):
    # acting on the first tensor factor only is not a module structure the
    # crossing commutes with
    act1 = kar_diag(tensor(nat.action.blocks[0][0], identity(word("u"))))
    lopsided = lie_module(gl, kar_word(word("uu")), act1, check=False)
    with pytest.raises(AxiomError, match="not a module endomorphism"):
        induced_module(lopsided, kar_diag(crossing("u", "u")))


def test_underlying_module_is_the_degree_zero_action(gl, nat):
    M = evaluation_module(7, nat)
    under = M.underlying()
    assert under.action == M.action(0)
    assert under.carrier == M.carrier


# ---------------------------------------------------------------------------
# truncated and extension rules


def test_truncated_degree_one_block_table(gl, nat):
    a = Fraction(5)
    M = truncated_module(evaluation_module(a, nat), 2)
    rho = nat.action.blocks[0][0]
    act1 = M.action(1)
    # carrier is u (+) u, source is ud(u (+) u); blocks follow the stacked
    # layout [[a rho, 0], [rho, a rho]]
    assert act1.blocks[0][0] == rho.scale(a)
    assert act1.blocks[0][1].is_zero()
    assert act1.blocks[1][0] == rho
    assert act1.blocks[1][1] == rho.scale(a)


def test_truncated_binomial_coefficients_at_degree_two(gl, nat):
    a = Fraction(3)
    M = truncated_module(evaluation_module(a, nat), 3)
    rho = nat.action.blocks[0][0]
    act2 = M.action(2)
    # entry (i, j) carries comb(2, i - j) * a**(2 - i + j) * rho
    assert act2.blocks[0][0] == rho.scale(a**2)
    assert act2.blocks[1][0] == rho.scale(2 * a)
    assert act2.blocks[2][0] == rho
    assert act2.blocks[2][1] == rho.scale(2 * a)
    assert act2.blocks[1][1] == rho.scale(a**2)
    assert act2.blocks[0][1].is_zero()
    assert act2.blocks[0][2].is_zero()
    assert act2.blocks[1][2].is_zero()


def test_truncation_order_must_be_positive(gl, nat):
    with pytest.raises(ValueError):
        truncated_module(evaluation_module(1, nat), 0)


def test_extension_matches_truncation_at_order_two(gl, nat):
    a = Fraction(4)
    V = evaluation_module(a, nat)
    ext = make_extension(V, V, a, V.action(0), degree_bound=2)
    trunc = truncated_module(V, 2)
    assert modules_equal_to_degree(ext, trunc, 4)


def test_extension_with_zero_point_has_one_off_diagonal_degree(gl, nat):
    V = evaluation_module(0, nat)
    ext = make_extension(V, V, 0, V.action(0), degree_bound=2)
    # at point zero the connecting block n * a**(n-1) survives only at n = 1
    assert not ext.action(1).blocks[1][0].is_zero()
    assert ext.action(2).blocks[1][0].is_zero()
    assert ext.action(2).is_zero()


def test_extension_by_the_unit_object_embeds_the_adjoint(gl):
    V = trivial_current(gl, "")
    W = evaluation_module(2, adjoint_module(gl))
    tau = kar_identity(W.carrier)
    ext = make_extension(V, W, 2, tau, degree_bound=3)
    assert ext.carrier == kar_direct_sum([V.carrier, W.carrier])
    assert all_pass(check_current_compatibility(ext, 3))
    # the connecting block is n * a**(n-1) times the identity
    assert ext.action(2).blocks[1][0] == identity(word("ud")).scale(4)


def test_extension_rejects_a_connecting_map_between_mismatched_points(gl, nat):
    V = evaluation_module(3, nat)
    W = evaluation_module(5, nat)
    with pytest.raises(AxiomError, match=r"MORPHISM\(deg 1\)"):
        make_extension(V, W, 3, V.action(0), degree_bound=2)


# ---------------------------------------------------------------------------
# tensor, dual, explicit


def test_tensor_current_carrier_and_lie_mismatch(gl, nat):
    V = evaluation_module(1, nat)
    W = trivial_current(gl, "u")
    T = tensor_current(V, W)
    assert T.carrier == kar_tensor_objects(V.carrier, W.carrier)
    so = unoriented_so_object()
    with pytest.raises(DiagramTypeError):
        tensor_current(V, trivial_current(so, "s"))


def test_braiding_of_carriers_is_a_current_morphism(gl, nat):
    V = evaluation_module(2, nat)
    W = induced_module(canonical_module(gl, "uu"), kar_diag(crossing("u", "u")))
    sigma = kar_braiding(V.carrier, W.carrier)
    report = current_morphism_report(
        sigma, tensor_current(V, W), tensor_current(W, V), 3
    )
    assert all_pass(report)


@pytest.mark.parametrize("text", ["u", "uu"])
def test_pairing_maps_are_current_morphisms(gl, text):
    V = evaluation_module(3, canonical_module(gl, text))
    D = dual_current(V)
    triv = trivial_current(gl, "")
    capm = kar_diag(nested_cap(word(text)))
    cupm = kar_diag(nested_cup(word(text)))
    assert all_pass(current_morphism_report(capm, tensor_current(D, V), triv, 3))
    assert all_pass(current_morphism_report(cupm, triv, tensor_current(V, D), 3))


def test_dual_of_evaluation_acts_with_the_same_point_scaling(gl, nat):
    V = evaluation_module(5, nat)
    D = dual_current(V)
    assert str(D.carrier.summands[0]) == "d"
    assert D.action(2) == kar_scale(D.action(0), Fraction(25))


def test_explicit_rule_defaults_to_zero_off_the_table(gl, nat):
    act0 = nat.action
    M = explicit_current(gl, nat.carrier, {0: act0})
    assert M.action(0) == act0
    assert M.action(1).is_zero()
    assert M.action(5).is_zero()
    assert isinstance(M.rule, ExplicitRule)


def test_explicit_rule_checks_boundaries(gl, nat):
    wrong = kar_identity(nat.carrier)
    with pytest.raises(DiagramTypeError, match="wrong boundary"):
        explicit_current(gl, nat.carrier, {0: wrong})


# ---------------------------------------------------------------------------
# the compatibility identity


@pytest.mark.parametrize(
    "build, bound",
    [
        (lambda gl: evaluation_module(2, canonical_module(gl, "uu")), 4),
        (
            lambda gl: induced_module(
                canonical_module(gl, "uu"), kar_diag(crossing("u", "u"))
            ),
            4,
        ),
        (
            lambda gl: truncated_module(
                evaluation_module(3, natural_module(gl)), 2
            ),
            4,
        ),
        (
            lambda gl: truncated_module(
                evaluation_module(2, natural_module(gl)), 3
            ),
            3,
        ),
        (
            lambda gl: tensor_current(
                evaluation_module(1, natural_module(gl)),
                evaluation_module(2, natural_module(gl)),
            ),
            3,
        ),
        (lambda gl: dual_current(evaluation_module(2, natural_module(gl))), 4),
        (
            lambda gl: make_extension(
                evaluation_module(2, natural_module(gl)),
                evaluation_module(2, natural_module(gl)),
                2,
                natural_module(gl).action,
                degree_bound=2,
            ),
            3,
        ),
    ],
    ids=[
        "evaluation",
        "induced",
        "truncated-k2",
        "truncated-k3",
        "tensor",
        "dual",
        "extension",
    ],
)
def test_rules_satisfy_the_compatibility_identity(gl, build, bound):
    report = check_current_compatibility(build(gl), bound)
    assert all_pass(report)
    names = [entry["identity"] for entry in report]
    assert "COMPAT(0,0)" in names
    assert f"COMPAT({bound},0)" in names


def test_compatibility_report_flags_a_broken_table(gl, nat):
    # a table that acts in degree one without the matching degree-two part
    M = explicit_current(gl, nat.carrier, {0: nat.action, 1: nat.action})
    report = check_current_compatibility(M, 2)
    failed = [entry for entry in report if entry["status"] == "fail"]
    assert failed
    assert all("residual" in entry for entry in failed)


def test_compatibility_residual_is_a_single_morphism(gl, nat):
    M = evaluation_module(2, nat)
    res = current_compatibility_residual(M, 1, 2)
    assert res.is_zero()


def test_unoriented_evaluation_is_compatible():
    so = lie_object_by_name("unoriented-so")
    M = rule_from_description(so, {"rule": "evaluation", "word": "ss", "point": "1"})
    assert all_pass(check_current_compatibility(M, 2))


# ---------------------------------------------------------------------------
# morphism spaces


def test_morphism_space_requires_a_loop_value(gl, nat):
    V = evaluation_module(2, nat)
    with pytest.raises(UnspecializedDeltaError):
        current_morphism_space(V, V, 2)


def test_trivial_module_endomorphisms_fill_the_hom_space(gl):
    T = trivial_current(gl, "u")
    result = current_morphism_space(T, T, 2, delta=2)
    assert result.is_consistent
    assert result.affine_dimension == 1
    assert len(result.basis_diagrams) == 1


def test_endomorphism_space_is_stable_across_degree_bounds(gl):
    V = evaluation_module(2, canonical_module(gl, "uu"))
    dims = {
        current_morphism_space(V, V, bound, delta=2).affine_dimension
        for bound in (1, 2, 4)
    }
    assert dims == {2}


def test_mismatched_points_leave_only_the_zero_map(gl, nat):
    A = evaluation_module(2, nat)
    B = evaluation_module(3, nat)
    result = current_morphism_space(A, B, 2, delta=2)
    assert result.affine_dimension == 0
    f = solution_to_morphism(result, A, B)
    assert f.is_zero()


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_so_adjoint_evaluation_endomorphisms_are_the_scalars(bound):
    """The adjoint of so(3) is irreducible, so at delta = 3 its only
    endomorphisms are the scalars. The carrier is an idempotent on ss, so
    without the rows that make a map absorb the idempotents the three
    matchings would all be free."""
    V = evaluation_module(1, adjoint_module(unoriented_so_object()))
    result = current_morphism_space(V, V, bound, delta=3)
    assert len(result.basis_diagrams) == 3
    assert result.affine_dimension == 1


@pytest.mark.parametrize("bound, dim", [(0, 1), (1, 0), (2, 0)])
def test_evaluations_at_two_points_share_only_degree_zero_maps(nat, bound, dim):
    """A map f from evaluation at 1 to evaluation at 2 commutes with the
    degree-n actions a^n A and b^n A; at n = 1 that leaves (a - b) f A = 0,
    and A is not zero, so f = 0 once degree one is checked."""
    V, W = evaluation_module(1, nat), evaluation_module(2, nat)
    assert current_morphism_space(V, W, bound, delta=2).affine_dimension == dim


def test_identity_between_evaluation_points_fails_at_the_top_degree(nat):
    V, W = evaluation_module(1, nat), evaluation_module(2, nat)
    report = current_morphism_report(kar_identity(V.carrier), V, W, 1)
    assert [entry["status"] for entry in report] == ["pass", "fail"]


def test_preimage_space_pins_the_antisymmetrizer_correction(gl):
    base = canonical_module(gl, "uuu")
    idm = identity(word("uuu"))
    a3 = antisymmetrizer(3)
    V = induced_module(base, kar_diag(idm))
    W = induced_module(base, kar_diag(idm + a3))
    target = ExactMatrix.identity(8, RATIONAL_RING)
    result = incarnation_preimage_space(V, W, 2, target, 2)
    assert result.is_consistent
    assert result.affine_dimension == 0
    f = solution_to_morphism(result, V, W)
    assert f == kar_diag(idm - a3)


def test_preimage_space_gains_a_parameter_at_equal_twists(gl):
    base = canonical_module(gl, "uuu")
    idm = identity(word("uuu"))
    a3 = antisymmetrizer(3)
    phi = kar_diag(idm + a3)
    V = induced_module(base, phi)
    W = induced_module(base, phi)
    target = ExactMatrix.identity(8, RATIONAL_RING)
    result = incarnation_preimage_space(V, W, 2, target, 2)
    assert result.is_consistent
    assert result.affine_dimension == 1


def test_preimage_space_validates_the_target_shape(gl, nat):
    V = evaluation_module(2, nat)
    with pytest.raises(DiagramTypeError, match="expected"):
        incarnation_preimage_space(
            V, V, 2, ExactMatrix.identity(3, RATIONAL_RING), 1
        )


def test_solution_vectors_reconstruct_distinct_maps(gl):
    V = evaluation_module(2, canonical_module(gl, "uu"))
    result = current_morphism_space(V, V, 2, delta=2)
    assert result.affine_dimension == 2
    seen = set()
    for vector in result.space.basis:
        f = solution_to_morphism(result, V, V, vector)
        assert not f.is_zero()
        seen.add(str(f.blocks[0][0].terms))
    assert len(seen) == 2


# ---------------------------------------------------------------------------
# the worked right-inverse identity


def test_right_inverse_check_passes_three_ways():
    report = right_inverse_check()
    assert [entry["identity"] for entry in report] == [
        "right-inverse(generic)",
        "right-inverse(delta=2)",
        "coefficient-1-residual",
    ]
    assert all_pass(report)


# ---------------------------------------------------------------------------
# JSON rule descriptions


def test_descriptions_rebuild_the_evaluation_module(gl, nat):
    M = rule_from_description(gl, {"rule": "evaluation", "word": "u", "point": "2"})
    assert modules_equal_to_degree(M, evaluation_module(2, nat), 4)
    # the canonical rule name means evaluation at zero unless a point is given
    C = rule_from_description(gl, {"rule": "canonical", "word": "u"})
    assert modules_equal_to_degree(C, evaluation_module(0, nat), 4)


def test_descriptions_cover_nested_rules(gl):
    M = rule_from_description(
        gl,
        {
            "rule": "truncated",
            "k": 2,
            "inner": {"rule": "evaluation", "word": "u", "point": "3"},
        },
    )
    expected = truncated_module(
        evaluation_module(3, natural_module(gl_object())), 2
    )
    assert modules_equal_to_degree(M, expected, 3)


def test_description_induced_parses_the_twist(gl):
    M = rule_from_description(
        gl, {"rule": "induced", "word": "uuu", "endo": "id(uuu) + asym(3)"}
    )
    assert isinstance(M.rule, InducedRule)
    assert M.rule.endo == kar_diag(
        identity(word("uuu")) + antisymmetrizer(3)
    )


def test_description_extension_unitor_requires_the_unit_source(gl):
    with pytest.raises(DiagramTypeError, match="unitor"):
        rule_from_description(
            gl,
            {
                "rule": "extension",
                "point": "1",
                "V": {"rule": "evaluation", "word": "u", "point": "1"},
                "W": {"rule": "evaluation", "word": "u", "point": "1"},
                "tau": "unitor",
            },
        )


def test_description_explicit_table(gl):
    M = rule_from_description(
        gl,
        {
            "rule": "explicit",
            "word": "u",
            "actions": {"0": "(id(u) @ cap(du)) ; (id(ud) @ id(u))"},
        },
    )
    assert not M.action(0).is_zero()
    assert M.action(1).is_zero()


def test_description_rejects_unknown_rules(gl):
    with pytest.raises(ValueError, match="unknown rule"):
        rule_from_description(gl, {"rule": "mystery"})
    with pytest.raises(ValueError, match="unknown Lie object"):
        lie_object_by_name("nope")


def test_base_module_matches_the_canonical_construction(gl):
    assert base_module_for(gl, "uu").action == canonical_module(gl, "uu").action
    so = lie_object_by_name("unoriented-so")
    with pytest.raises(DiagramTypeError):
        base_module_for(so, "uu")
