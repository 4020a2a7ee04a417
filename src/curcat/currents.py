"""Polynomial-current modules over a Lie object in the envelope.

A current module assigns to every monomial degree n an action morphism
L . carrier -> carrier. Degree-indexed families are generated by rules:
evaluation at a scalar, twisting by a module endomorphism, truncated
polynomial coefficients (binomial block matrices), extensions along a
connecting morphism, tensor products, duals, and explicit tables. The
compatibility identity that makes the family a module over the current
Lie algebra is checked degree by degree up to a bound.

The morphism-space solver expresses an unknown map as exact coefficients
over the matching basis of each Karoubi block, imposes the degreewise
morphism condition (and optionally a matrix-realization constraint) as
linear equations, and returns the affine solution space.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from curcat.diagrams import (
    DiagMorphism,
    DiagramTypeError,
    Matching,
    Word,
    all_matchings,
    cup,
    identity,
    parse_expr,
    tensor,
    word,
)
from curcat.exact import (
    RATIONAL_RING,
    AffineSolutionSpace,
    ExactMatrix,
    Rational,
    solve_affine,
)
from curcat.incarnate import IncarnationConfig, incarnate
from curcat.karoubi import (
    KarMorphism,
    KarObject,
    _placed,
    kar_braiding,
    kar_compose,
    kar_diag,
    kar_direct_sum,
    kar_identity,
    kar_scale,
    kar_tensor,
    kar_tensor_objects,
    kar_word,
    kar_zero,
)
from curcat.lie import (
    AxiomError,
    LieModule,
    LieObject,
    _plain_word_of,
    adjoint_module,
    canonical_module,
    check_module_morphism,
    dual_of_action,
    gl_object,
    lie_module,
    report_entry,
    report_passed,
    residual_entry,
    tensor_module,
    tensor_of_actions,
    trivial_module,
    unoriented_natural_module,
    unoriented_so_object,
)


class UnspecializedDeltaError(ValueError):
    """A solver was invoked without fixing the loop value."""


# ---------------------------------------------------------------------------
# rule payloads


@dataclasses.dataclass(frozen=True)
class TrivialRule:
    pass


@dataclasses.dataclass(frozen=True)
class EvaluationRule:
    point: Rational
    base: LieModule


@dataclasses.dataclass(frozen=True)
class InducedRule:
    base: LieModule
    endo: KarMorphism


@dataclasses.dataclass(frozen=True)
class TruncatedRule:
    inner: "CurrentModule"
    k: int


@dataclasses.dataclass(frozen=True)
class ExtensionRule:
    V: "CurrentModule"
    W: "CurrentModule"
    point: Rational
    tau: KarMorphism


@dataclasses.dataclass(frozen=True)
class TensorRule:
    V: "CurrentModule"
    W: "CurrentModule"


@dataclasses.dataclass(frozen=True)
class DualRule:
    V: "CurrentModule"


@dataclasses.dataclass(frozen=True)
class ExplicitRule:
    actions: tuple[tuple[int, KarMorphism], ...]


Rule = (
    TrivialRule
    | EvaluationRule
    | InducedRule
    | TruncatedRule
    | ExtensionRule
    | TensorRule
    | DualRule
    | ExplicitRule
)


@dataclasses.dataclass(frozen=True)
class CurrentModule:
    """A degree-indexed family of actions generated by a construction rule."""

    lie: LieObject
    carrier: KarObject
    rule: Rule

    def __post_init__(self):
        object.__setattr__(self, "_action_cache", {})
        object.__setattr__(self, "_endo_power_cache", {})

    def action(self, n: int) -> KarMorphism:
        if n < 0:
            raise ValueError("degree must be nonnegative")
        cache = self._action_cache
        if n not in cache:
            cache[n] = _compute_action(self, n)
        return cache[n]

    def underlying(self) -> LieModule:
        """The plain module at degree zero."""
        return lie_module(self.lie, self.carrier, self.action(0), check=False)


def _endo_power(m: CurrentModule, n: int) -> KarMorphism:
    cache = m._endo_power_cache
    if n not in cache:
        if n == 0:
            cache[n] = kar_identity(m.carrier)
        else:
            cache[n] = kar_compose(m.rule.endo, _endo_power(m, n - 1))
    return cache[n]


def _zero_action(lie: LieObject, carrier: KarObject) -> KarMorphism:
    return kar_zero(kar_tensor_objects(lie.carrier, carrier), carrier)


def _compute_action(m: CurrentModule, n: int) -> KarMorphism:
    rule = m.rule
    if isinstance(rule, TrivialRule):
        return _zero_action(m.lie, m.carrier)
    if isinstance(rule, EvaluationRule):
        scale = Fraction(rule.point) ** n if n else Fraction(1)
        return kar_scale(rule.base.action, scale)
    if isinstance(rule, InducedRule):
        one_l = kar_identity(m.lie.carrier)
        return kar_compose(rule.base.action, kar_tensor(one_l, _endo_power(m, n)))
    if isinstance(rule, TruncatedRule):
        return _truncated_action(m, rule, n)
    if isinstance(rule, ExtensionRule):
        return _extension_action(m, rule, n)
    if isinstance(rule, TensorRule):
        V, W = rule.V, rule.W
        return tensor_of_actions(
            m.lie.carrier, V.carrier, V.action(n), W.carrier, W.action(n)
        )
    if isinstance(rule, DualRule):
        return dual_of_action(m.lie.carrier, rule.V.carrier, rule.V.action(n))
    if isinstance(rule, ExplicitRule):
        for degree, act in rule.actions:
            if degree == n:
                return act
        return _zero_action(m.lie, m.carrier)
    raise TypeError(f"unknown rule {rule!r}")


def _stacked_action(
    lie: LieObject,
    parts_rows: list[KarObject],
    carrier: KarObject,
    pieces: list[tuple[int, int, KarMorphism, Fraction]],
) -> KarMorphism:
    """Assemble a block action on a direct-sum carrier.

    pieces lists (row_part, col_part, inner_action, scale); inner_action is
    an action morphism lie . part_col -> part_row.
    """
    src = kar_tensor_objects(lie.carrier, carrier)
    n_lie = len(lie.carrier.summands)
    group_width = len(carrier.summands)
    row_offsets = []
    off = 0
    for p in parts_rows:
        row_offsets.append(off)
        off += len(p.summands)
    col_offsets = row_offsets  # same part list on both sides here
    blocks = [
        [
            DiagMorphism.zero(sw, tw)
            for sw in src.summands
        ]
        for tw in carrier.summands
    ]
    for row_part, col_part, act, scale in pieces:
        piece_cols = len(act.blocks[0]) // n_lie
        for r in range(len(act.blocks)):
            for s in range(n_lie):
                for c in range(piece_cols):
                    b = act.blocks[r][s * piece_cols + c]
                    row = row_offsets[row_part] + r
                    col = s * group_width + col_offsets[col_part] + c
                    blocks[row][col] = blocks[row][col] + b.scale(scale)
    return KarMorphism(src, carrier, tuple(tuple(r) for r in blocks))


def _truncated_action(m: CurrentModule, rule: TruncatedRule, n: int) -> KarMorphism:
    inner = rule.inner
    parts = [inner.carrier] * rule.k
    pieces = []
    for i in range(rule.k):
        for j in range(i + 1):
            degree = n - i + j
            if degree < 0:
                continue
            coeff = Fraction(math.comb(n, i - j))
            if coeff == 0:
                continue
            pieces.append((i, j, inner.action(degree), coeff))
    return _stacked_action(m.lie, parts, m.carrier, pieces)


def _extension_action(m: CurrentModule, rule: ExtensionRule, n: int) -> KarMorphism:
    pieces = [
        (0, 0, rule.V.action(n), Fraction(1)),
        (1, 1, rule.W.action(n), Fraction(1)),
    ]
    if n >= 1:
        a = Fraction(rule.point)
        coeff = Fraction(n) * (a ** (n - 1) if n > 1 else Fraction(1))
        if coeff:
            pieces.append((1, 0, rule.tau, coeff))
    return _stacked_action(
        m.lie, [rule.V.carrier, rule.W.carrier], m.carrier, pieces
    )


# ---------------------------------------------------------------------------
# constructors


def trivial_current(lie: LieObject, carrier: KarObject | Word | str) -> CurrentModule:
    if not isinstance(carrier, KarObject):
        carrier = kar_word(
            carrier if isinstance(carrier, Word) else word(carrier, lie.carrier.flavor)
        )
    return CurrentModule(lie, carrier, TrivialRule())


def evaluation_module(point, base: LieModule) -> CurrentModule:
    return CurrentModule(
        base.lie, base.carrier, EvaluationRule(Fraction(point), base)
    )


def induced_module(base: LieModule, endo: KarMorphism) -> CurrentModule:
    """Twist a module by one of its endomorphisms, one power per degree."""
    report = check_module_morphism(endo, base, base)
    if not report_passed(report):
        raise AxiomError(f"twisting map is not a module endomorphism: {report}")
    return CurrentModule(base.lie, base.carrier, InducedRule(base, endo))


def truncated_module(inner: CurrentModule, k: int) -> CurrentModule:
    if k < 1:
        raise ValueError("the truncation order must be positive")
    carrier = kar_direct_sum([inner.carrier] * k)
    return CurrentModule(inner.lie, carrier, TruncatedRule(inner, k))


def make_extension(
    V: CurrentModule,
    W: CurrentModule,
    point,
    tau: KarMorphism,
    degree_bound: int = 2,
) -> CurrentModule:
    """Glue W under V along a connecting map.

    tau must be a morphism of current modules from (adjoint evaluated at the
    point) tensor V into W; this is verified degree by degree up to
    degree_bound before the module is built.
    """
    if degree_bound < 0:
        raise ValueError("the degree bound must be nonnegative")
    a = Fraction(point)
    L_a = evaluation_module(a, adjoint_module(V.lie))
    source = tensor_current(L_a, V)
    report = current_morphism_report(tau, source, W, degree_bound)
    if not report_passed(report):
        first = next(e["identity"] for e in report if e["status"] == "fail")
        raise AxiomError(f"connecting map fails the morphism condition at {first}")
    carrier = kar_direct_sum([V.carrier, W.carrier])
    return CurrentModule(V.lie, carrier, ExtensionRule(V, W, a, tau))


def tensor_current(V: CurrentModule, W: CurrentModule) -> CurrentModule:
    if V.lie != W.lie:
        raise DiagramTypeError("modules live over different Lie objects")
    carrier = kar_tensor_objects(V.carrier, W.carrier)
    return CurrentModule(V.lie, carrier, TensorRule(V, W))


def dual_current(V: CurrentModule) -> CurrentModule:
    carrier = kar_word(_plain_word_of(V.carrier).dual())
    return CurrentModule(V.lie, carrier, DualRule(V))


def explicit_current(
    lie: LieObject, carrier: KarObject, actions: dict[int, KarMorphism]
) -> CurrentModule:
    frozen = tuple(sorted(actions.items()))
    expected_src = kar_tensor_objects(lie.carrier, carrier)
    for degree, act in frozen:
        if act.source != expected_src or act.target != carrier:
            raise DiagramTypeError(f"action at degree {degree} has wrong boundary")
    return CurrentModule(lie, carrier, ExplicitRule(frozen))


# ---------------------------------------------------------------------------
# checks


def current_compatibility_residual(
    M: CurrentModule, m_deg: int, n_deg: int
) -> KarMorphism:
    L = M.lie
    one_l = kar_identity(L.carrier)
    one_m = kar_identity(M.carrier)
    sigma_ll = kar_braiding(L.carrier, L.carrier)
    first = kar_compose(M.action(m_deg), kar_tensor(one_l, M.action(n_deg)))
    of_bracket = kar_compose(
        M.action(m_deg + n_deg), kar_tensor(L.bracket, one_m)
    )
    swapped = kar_compose(
        kar_compose(M.action(n_deg), kar_tensor(one_l, M.action(m_deg))),
        kar_tensor(sigma_ll, one_m),
    )
    return first - of_bracket - swapped


def check_current_compatibility(M: CurrentModule, degree_bound: int) -> list[dict]:
    """Normalize the bracket-versus-nested-action identity for every degree
    pair up to the bound."""
    report = []
    for m_deg in range(degree_bound + 1):
        for n_deg in range(degree_bound + 1 - m_deg):
            residual = current_compatibility_residual(M, m_deg, n_deg)
            report.append(residual_entry(f"COMPAT({m_deg},{n_deg})", residual))
    return report


def current_morphism_residual(
    f: KarMorphism, V: CurrentModule, W: CurrentModule, n: int
) -> KarMorphism:
    one_l = kar_identity(V.lie.carrier)
    return kar_compose(f, V.action(n)) - kar_compose(
        W.action(n), kar_tensor(one_l, f)
    )


def current_morphism_report(
    f: KarMorphism, V: CurrentModule, W: CurrentModule, degree_bound: int
) -> list[dict]:
    return [
        residual_entry(f"MORPHISM(deg {n})", current_morphism_residual(f, V, W, n))
        for n in range(degree_bound + 1)
    ]


def modules_equal_to_degree(
    A: CurrentModule, B: CurrentModule, degree_bound: int
) -> bool:
    if A.carrier != B.carrier:
        return False
    return all(A.action(n) == B.action(n) for n in range(degree_bound + 1))


# ---------------------------------------------------------------------------
# the morphism-space solver


@dataclasses.dataclass(frozen=True)
class MorphismSpaceResult:
    """Affine space of degree-compatible maps over an explicit basis."""

    degree_bound: int
    space: AffineSolutionSpace
    basis_diagrams: tuple[tuple[int, int, Matching], ...]

    @property
    def affine_dimension(self) -> int:
        return self.space.affine_dimension

    @property
    def is_consistent(self) -> bool:
        return self.space.is_consistent


def _unknown_basis(V: KarObject, W: KarObject) -> list[tuple[int, int, Matching]]:
    basis = []
    for ti, tw in enumerate(W.summands):
        for sj, sw in enumerate(V.summands):
            for m in all_matchings(sw, tw):
                basis.append((ti, sj, m))
    return basis


def _unit_morphism(
    V: KarObject, W: KarObject, ti: int, sj: int, m: Matching
) -> KarMorphism:
    unit = DiagMorphism.from_matching(m)
    return KarMorphism(V, W, _placed(V.summands, W.summands, [(ti, sj, unit)]))


def _is_plain(obj: KarObject) -> bool:
    return all(
        obj.idempotent[i][j]
        == (identity(w) if i == j else DiagMorphism.zero(obj.summands[j], w))
        for i, w in enumerate(obj.summands)
        for j in range(len(obj.summands))
    )


def _expand_rows(
    residuals: list[KarMorphism], delta: Fraction
) -> list[list[Fraction]]:
    """Rows of the linear system: one per (block, matching) of the residual
    boundary, columns indexed like the residual list."""
    if not residuals:
        return []
    template = residuals[0]
    index: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for bi, tw in enumerate(template.target.summands):
        for bj, sw in enumerate(template.source.summands):
            for m in all_matchings(sw, tw):
                index[(bi, bj, m.partner)] = len(index)
    columns = []
    for km in residuals:
        col = [Fraction(0)] * len(index)
        for bi, row in enumerate(km.blocks):
            for bj, block in enumerate(row):
                for p, c in block.partner_terms:
                    col[index[(bi, bj, p)]] = c.evaluate(delta)
        columns.append(col)
    return [
        [columns[k][r] for k in range(len(columns))] for r in range(len(index))
    ]


def _morphism_system(
    V: CurrentModule,
    W: CurrentModule,
    degree_bound: int,
    delta: Fraction,
) -> tuple[
    list[list[Fraction]], list[Fraction], list[tuple[int, int, Matching]], list[KarMorphism]
]:
    """Rows and right-hand side of the morphism condition, with the unknowns
    (one per summand pair and matching) and their unit morphisms."""
    if V.lie != W.lie:
        raise DiagramTypeError("modules live over different Lie objects")
    unknowns = _unknown_basis(V.carrier, W.carrier)
    units = [
        _unit_morphism(V.carrier, W.carrier, ti, sj, m) for ti, sj, m in unknowns
    ]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    if not (_is_plain(V.carrier) and _is_plain(W.carrier)):
        e_v = kar_identity(V.carrier)
        e_w = kar_identity(W.carrier)
        absorbed = [
            kar_compose(e_w, kar_compose(u, e_v)) - u for u in units
        ]
        new_rows = _expand_rows(absorbed, delta)
        rows.extend(new_rows)
        rhs.extend([Fraction(0)] * len(new_rows))
    for n in range(degree_bound + 1):
        residuals = [current_morphism_residual(u, V, W, n) for u in units]
        new_rows = _expand_rows(residuals, delta)
        rows.extend(new_rows)
        rhs.extend([Fraction(0)] * len(new_rows))
    return rows, rhs, unknowns, units


def current_morphism_space(
    V: CurrentModule,
    W: CurrentModule,
    degree_bound: int,
    delta: Fraction | int | str | None = None,
) -> MorphismSpaceResult:
    """All maps satisfying the morphism condition for degrees up to the
    bound, with the loop value fixed."""
    if delta is None:
        raise UnspecializedDeltaError(
            "the solver needs a numeric loop value (pass delta=...)"
        )
    delta = Fraction(delta)
    rows, rhs, unknowns, _ = _morphism_system(V, W, degree_bound, delta)
    mat = ExactMatrix(rows, RATIONAL_RING, cols=len(unknowns))
    space = solve_affine(mat, rhs)
    return MorphismSpaceResult(degree_bound, space, tuple(unknowns))


def incarnation_preimage_space(
    V: CurrentModule,
    W: CurrentModule,
    n: int,
    target: ExactMatrix,
    degree_bound: int,
) -> MorphismSpaceResult:
    """Morphism space intersected with a fixed matrix realization.

    The loop value is forced to n, matching the realization dimension.
    """
    cfg = IncarnationConfig(n, V.carrier.flavor)
    delta = Fraction(n)
    rows, rhs, unknowns, units = _morphism_system(V, W, degree_bound, delta)
    expect_rows = sum(cfg.space_dim(w) for w in W.carrier.summands)
    expect_cols = sum(cfg.space_dim(w) for w in V.carrier.summands)
    if target.rows != expect_rows or target.cols != expect_cols:
        raise DiagramTypeError(
            f"target is {target.rows}x{target.cols}, expected "
            f"{expect_rows}x{expect_cols}"
        )
    columns = [list(incarnate(u, cfg).flatten()) for u in units]
    flat_target = list(target.flatten())
    for r in range(len(flat_target)):
        rows.append([columns[k][r] for k in range(len(columns))])
        rhs.append(flat_target[r])
    mat = ExactMatrix(rows, RATIONAL_RING, cols=len(unknowns))
    space = solve_affine(mat, rhs)
    return MorphismSpaceResult(degree_bound, space, tuple(unknowns))


def solution_to_morphism(
    result: MorphismSpaceResult,
    V: CurrentModule,
    W: CurrentModule,
    vector=None,
) -> KarMorphism:
    """Rebuild the map encoded by a solution vector (default: the particular
    solution)."""
    coeffs = result.space.particular if vector is None else vector
    acc = kar_zero(V.carrier, W.carrier)
    for (ti, sj, m), c in zip(result.basis_diagrams, coeffs):
        if c:
            acc = acc + kar_scale(_unit_morphism(V.carrier, W.carrier, ti, sj, m), c)
    return acc


# ---------------------------------------------------------------------------
# the worked right-inverse identity


def right_inverse_check() -> list[dict]:
    """The canonical three-strand action precomposed with a third of the
    cup-padded identity collapses to the identity, degree-free and loop-free."""
    L = gl_object()
    rho = canonical_module(L, "uuu").action.blocks[0][0]
    section = tensor(cup("ud"), identity(word("uuu")))
    composite = rho * section
    third = composite.scale(Fraction(1, 3))
    expected = identity(word("uuu"))
    return [
        report_entry("right-inverse(generic)", third == expected),
        report_entry("right-inverse(delta=2)", third.specialize(2) == expected),
        report_entry("coefficient-1-residual", composite - expected == expected.scale(2)),
    ]


# ---------------------------------------------------------------------------
# rule descriptions (JSON)


def _so_canonical(L: LieObject, text: str) -> LieModule:
    if not text:
        return trivial_module(L)
    result = unoriented_natural_module(L)
    for _ in text[1:]:
        result = tensor_module(result, unoriented_natural_module(L))
    return result


def base_module_for(L: LieObject, text: str) -> LieModule:
    """The canonical module on a word, for either flavor."""
    if L.carrier.flavor == "unoriented":
        if set(text) - {"s"}:
            raise DiagramTypeError("unoriented words use the letter s")
        return _so_canonical(L, text)
    return canonical_module(L, text)


def lie_object_by_name(name: str) -> LieObject:
    if name == "oriented-gl":
        return gl_object()
    if name == "unoriented-so":
        return unoriented_so_object()
    raise ValueError(f"unknown Lie object {name!r}")


_REQUIRED = object()


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _convert(value, convert, what: str):
    try:
        return convert(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad {what}: {value!r}") from exc


def _field(desc: dict, key: str, convert=_text, default=_REQUIRED):
    """desc[key], or the default when it is absent, passed through convert;
    a missing required key or a value convert rejects is an input error."""
    rule = desc.get("rule")
    if key not in desc and default is _REQUIRED:
        raise ValueError(f"rule {rule!r} needs the key {key!r}")
    return _convert(desc.get(key, default), convert, f"{key!r} in rule {rule!r}")


def rule_from_description(L: LieObject, desc: dict) -> CurrentModule:
    """Build a current module from a JSON-friendly rule tree."""
    if not isinstance(desc, dict):
        raise ValueError(f"a module rule must be an object, not {desc!r}")
    kind = desc.get("rule")
    flavor = L.carrier.flavor

    def sub_rule(key: str) -> CurrentModule:
        return rule_from_description(L, _field(desc, key, dict))

    if kind == "trivial":
        return trivial_current(L, word(_field(desc, "word"), flavor))
    if kind in ("canonical", "evaluation"):
        base = base_module_for(L, _field(desc, "word"))
        point = _field(desc, "point", Fraction, 0)
        return evaluation_module(point, base)
    if kind == "induced":
        base = base_module_for(L, _field(desc, "word"))
        endo = kar_diag(parse_expr(_field(desc, "endo"), flavor))
        return induced_module(base, endo)
    if kind == "truncated":
        inner = sub_rule("inner")
        return truncated_module(inner, _field(desc, "k", int))
    if kind == "extension":
        V = sub_rule("V")
        W = sub_rule("W")
        point = _field(desc, "point", Fraction, 0)
        tau_desc = _field(desc, "tau", _text, "unitor")
        if tau_desc == "unitor":
            tau = kar_identity(W.carrier)
            expected = kar_tensor_objects(L.carrier, V.carrier)
            if tau.source != expected:
                raise DiagramTypeError(
                    "the unitor connecting map needs V on the unit and W on "
                    "the Lie carrier"
                )
        else:
            tau = kar_diag(parse_expr(tau_desc, flavor))
        bound = _field(desc, "degree_bound", int, 2)
        return make_extension(V, W, point, tau, degree_bound=bound)
    if kind == "tensor":
        return tensor_current(sub_rule("V"), sub_rule("W"))
    if kind == "dual":
        return dual_current(sub_rule("V"))
    if kind == "explicit":
        carrier = kar_word(word(_field(desc, "word"), flavor))
        actions = {
            _convert(k, int, "action degree"): kar_diag(
                parse_expr(_convert(v, _text, "action expression"), flavor)
            )
            for k, v in _field(desc, "actions", dict).items()
        }
        return explicit_current(L, carrier, actions)
    raise ValueError(f"unknown rule {kind!r}")
