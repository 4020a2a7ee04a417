"""Lie-algebra objects and their modules inside the envelope.

A Lie object is an envelope object with a bracket; a module is an envelope
object with an action of the Lie object. All axioms (SKEW, JACOBI, LMOD,
ASSOC, the module-morphism condition) are decidable here: both sides
normalize to exact linear combinations of matchings, and a check reports
the normalized difference. Checks run with delta-polynomial coefficients,
so one pass covers every specialization of the loop parameter.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction

from curcat.diagrams import (
    DiagMorphism,
    DiagramTypeError,
    Matching,
    Word,
    antisymmetrizer,
    cap,
    compose,
    empty_word,
    identity,
    render,
    swap_words,
    tensor,
    word,
)
from curcat.karoubi import (
    KarMorphism,
    KarObject,
    kar_braiding,
    kar_compose,
    kar_diag,
    kar_identity,
    kar_morphism,
    kar_object,
    kar_sandwich,
    kar_scale,
    kar_tensor,
    kar_tensor_objects,
    kar_unit,
    kar_word,
    kar_zero,
)


class AxiomError(ValueError):
    """A constructor was fed data that fails its defining identities."""


@dataclasses.dataclass(frozen=True)
class SemigroupObject:
    """An envelope object with an associative product."""

    carrier: KarObject
    product: KarMorphism


@dataclasses.dataclass(frozen=True)
class LieObject:
    """An envelope object with an antisymmetric bracket obeying Jacobi."""

    carrier: KarObject
    bracket: KarMorphism


@dataclasses.dataclass(frozen=True)
class LieModule:
    """An envelope object with an action of a Lie object."""

    lie: LieObject
    carrier: KarObject
    action: KarMorphism


# ---------------------------------------------------------------------------
# reports


def _residual_text(f: KarMorphism) -> str:
    chunks = []
    for i, row in enumerate(f.blocks):
        for j, b in enumerate(row):
            if b.is_zero():
                continue
            body = render(b, "text").replace("\n", " | ")
            prefix = f"[{i},{j}] " if len(f.blocks) > 1 or len(row) > 1 else ""
            chunks.append(prefix + body)
    return "; ".join(chunks)


def report_entry(identity_name: str, ok: bool, residual: str | None = None) -> dict:
    """One report line; the residual is kept only when the check failed."""
    entry = {"identity": identity_name, "status": "pass" if ok else "fail"}
    if residual is not None and not ok:
        entry["residual"] = residual
    return entry


def residual_entry(identity_name: str, residual: KarMorphism) -> dict:
    """Pass when the residual vanishes; otherwise render it."""
    if residual.is_zero():
        return report_entry(identity_name, True)
    return report_entry(identity_name, False, _residual_text(residual))


def report_passed(report: list[dict]) -> bool:
    return all(entry["status"] == "pass" for entry in report)


# ---------------------------------------------------------------------------
# residuals of the defining identities


def assoc_residual(s: SemigroupObject) -> KarMorphism:
    c = s.carrier
    m = s.product
    left = kar_compose(m, kar_tensor(m, kar_identity(c)))
    right = kar_compose(m, kar_tensor(kar_identity(c), m))
    return left - right


def skew_residual(L: LieObject) -> KarMorphism:
    sigma = kar_braiding(L.carrier, L.carrier)
    return L.bracket + kar_compose(L.bracket, sigma)


def _rotation(c: KarObject) -> KarMorphism:
    """x . y . z -> y . z . x on c^3."""
    sigma = kar_braiding(c, c)
    one = kar_identity(c)
    return kar_compose(kar_tensor(one, sigma), kar_tensor(sigma, one))


def jacobi_residual(L: LieObject) -> KarMorphism:
    c, b = L.carrier, L.bracket
    rho = _rotation(c)
    double = kar_compose(b, kar_tensor(b, kar_identity(c)))
    total = double
    spun = double
    for _ in range(2):
        spun = kar_compose(spun, rho)
        total = total + spun
    return total


def lmod_residual(M: LieModule) -> KarMorphism:
    L = M.lie
    act = M.action
    one_l = kar_identity(L.carrier)
    one_m = kar_identity(M.carrier)
    sigma_ll = kar_braiding(L.carrier, L.carrier)
    of_bracket = kar_compose(act, kar_tensor(L.bracket, one_m))
    nested = kar_compose(act, kar_tensor(one_l, act))
    swapped = kar_compose(nested, kar_tensor(sigma_ll, one_m))
    return of_bracket - nested + swapped


def module_morphism_residual(
    f: KarMorphism, M: LieModule, N: LieModule
) -> KarMorphism:
    if M.lie is not N.lie and M.lie != N.lie:
        raise DiagramTypeError("modules live over different Lie objects")
    if f.source != M.carrier or f.target != N.carrier:
        raise DiagramTypeError("morphism boundaries do not match the modules")
    one_l = kar_identity(M.lie.carrier)
    return kar_compose(f, M.action) - kar_compose(N.action, kar_tensor(one_l, f))


def check_lie_axioms(L: LieObject) -> list[dict]:
    return [
        residual_entry("SKEW", skew_residual(L)),
        residual_entry("JACOBI", jacobi_residual(L)),
    ]


def check_module(M: LieModule) -> list[dict]:
    return [residual_entry("LMOD", lmod_residual(M))]


def check_module_morphism(f: KarMorphism, M: LieModule, N: LieModule) -> list[dict]:
    return [residual_entry("MORPHISM", module_morphism_residual(f, M, N))]


# ---------------------------------------------------------------------------
# constructors


def semigroup_from_dual_pair(up: Word | str = "u") -> SemigroupObject:
    """The object w . w* with product id . cap . id (pair the inner w*, w)."""
    w = up if isinstance(up, Word) else word(up)
    ws = w.dual()
    carrier = kar_word(w + ws)
    product = kar_diag(
        tensor(tensor(identity(w), nested_cap(w)), identity(ws))
    )
    s = SemigroupObject(carrier, product)
    if not assoc_residual(s).is_zero():
        raise AxiomError("product is not associative")
    return s


def _checked_lie(carrier: KarObject, bracket: KarMorphism) -> LieObject:
    L = LieObject(carrier, bracket)
    report = check_lie_axioms(L)
    if not report_passed(report):
        raise AxiomError(f"bracket fails axioms: {report}")
    return L


def lie_from_semigroup(s: SemigroupObject) -> LieObject:
    """Antisymmetrize the product: bracket = m - m . swap."""
    sigma = kar_braiding(s.carrier, s.carrier)
    return _checked_lie(s.carrier, s.product - kar_compose(s.product, sigma))


def gl_object() -> LieObject:
    """The commutator Lie object on the word ud."""
    return lie_from_semigroup(semigroup_from_dual_pair("u"))


def _natural_action_diagram() -> DiagMorphism:
    # ud . u -> u: the u strand of the acting factor passes through, the
    # d strand caps with the module strand.
    return tensor(identity(word("u")), cap("du"))


def _dual_natural_action_diagram() -> DiagMorphism:
    # ud . d -> d: minus (cap the u with the module strand, pass the d).
    m = Matching.make(
        word("udd"),
        word("d"),
        [(("bot", 0), ("bot", 2)), (("bot", 1), ("top", 0))],
    )
    return DiagMorphism.from_matching(m, -1)


def natural_module(L: LieObject) -> LieModule:
    return lie_module(L, kar_word("u"), kar_diag(_natural_action_diagram()))


def dual_natural_module(L: LieObject) -> LieModule:
    return lie_module(L, kar_word("d"), kar_diag(_dual_natural_action_diagram()))


def trivial_module(L: LieObject) -> LieModule:
    """The unit object with the zero action."""
    unit = kar_unit(L.carrier.flavor)
    src = kar_tensor_objects(L.carrier, unit)
    return lie_module(L, unit, kar_zero(src, unit))


def adjoint_module(L: LieObject) -> LieModule:
    """The Lie object acting on itself by its bracket."""
    return lie_module(L, L.carrier, L.bracket)


def lie_module(
    L: LieObject, carrier: KarObject, action: KarMorphism, check: bool = True
) -> LieModule:
    expected_src = kar_tensor_objects(L.carrier, carrier)
    if action.source != expected_src or action.target != carrier:
        raise DiagramTypeError("action boundaries do not match lie . carrier")
    M = LieModule(L, carrier, action)
    if check:
        report = check_module(M)
        if not report_passed(report):
            raise AxiomError(f"action fails LMOD: {report}")
    return M


def tensor_of_actions(
    lie_carrier: KarObject,
    V: KarObject,
    act_v: KarMorphism,
    W: KarObject,
    act_w: KarMorphism,
) -> KarMorphism:
    """The action on V . W built from the actions on V and on W."""
    one_w = kar_identity(W)
    left = kar_tensor(act_v, one_w)
    transport = kar_tensor(kar_braiding(lie_carrier, V), one_w)
    right = kar_compose(kar_tensor(kar_identity(V), act_w), transport)
    return left + right


def tensor_module(M: LieModule, N: LieModule, check: bool = True) -> LieModule:
    """Act on the left factor, plus act on the right after swapping past M."""
    if M.lie != N.lie:
        raise DiagramTypeError("modules live over different Lie objects")
    action = tensor_of_actions(M.lie.carrier, M.carrier, M.action, N.carrier, N.action)
    return lie_module(
        M.lie, kar_tensor_objects(M.carrier, N.carrier), action, check=check
    )


def _plain_word_of(obj: KarObject) -> Word:
    if len(obj.summands) != 1:
        raise DiagramTypeError("expected a single-summand carrier")
    w = obj.summands[0]
    if obj.idempotent[0][0] != identity(w):
        raise DiagramTypeError("expected a plain word carrier (identity idempotent)")
    return w


def nested_cap(w: Word | str) -> DiagMorphism:
    """w* . w -> unit, pairing mirror positions with nested arcs."""
    w = w if isinstance(w, Word) else word(w)
    n = len(w)
    dom = w.dual() + w
    pairs = [(("bot", i), ("bot", 2 * n - 1 - i)) for i in range(n)]
    return DiagMorphism.from_matching(Matching.make(dom, empty_word(w.flavor), pairs))


def nested_cup(w: Word | str) -> DiagMorphism:
    """unit -> w . w*, pairing mirror positions with nested arcs."""
    w = w if isinstance(w, Word) else word(w)
    n = len(w)
    cod = w + w.dual()
    pairs = [(("top", i), ("top", 2 * n - 1 - i)) for i in range(n)]
    return DiagMorphism.from_matching(Matching.make(empty_word(w.flavor), cod, pairs))


def dual_of_action(lie_carrier: KarObject, V: KarObject, act_v: KarMorphism) -> KarMorphism:
    """The action on the dual of V built from the action on V."""
    w = _plain_word_of(V)
    ws = w.dual()
    one_ws = kar_diag(identity(ws))
    swap = kar_braiding(lie_carrier, kar_word(ws))
    feed = kar_tensor(
        kar_tensor(one_ws, kar_identity(lie_carrier)), kar_diag(nested_cup(w))
    )
    act_mid = kar_tensor(kar_tensor(one_ws, act_v), one_ws)
    collapse = kar_tensor(kar_diag(nested_cap(w)), one_ws)
    return kar_scale(
        kar_compose(collapse, kar_compose(act_mid, kar_compose(feed, swap))), -1
    )


def dual_module(M: LieModule, check: bool = True) -> LieModule:
    """The action on the dual word, rotated through the cap/cup pair."""
    action = dual_of_action(M.lie.carrier, M.carrier, M.action)
    carrier = kar_word(_plain_word_of(M.carrier).dual())
    return lie_module(M.lie, carrier, action, check=check)


def canonical_module(L: LieObject, w: Word | str, check: bool = True) -> LieModule:
    """Sum over letter positions of the transported single-letter action."""
    w = w if isinstance(w, Word) else word(w)
    carrier = kar_word(w)
    lw = _plain_word_of(L.carrier)
    src = tensor(identity(lw), identity(w)).domain
    if len(w) == 0:
        return lie_module(L, carrier, kar_zero(kar_tensor_objects(L.carrier, carrier), carrier), check=check)
    letter_act = {
        "u": _natural_action_diagram(),
        "d": _dual_natural_action_diagram(),
    }
    total = DiagMorphism.zero(src, w)
    for i, letter in enumerate(str(w)):
        prefix = word(str(w)[:i])
        rest = word(str(w)[i:])
        transport = tensor(swap_words(lw, prefix), identity(rest))
        act_here = tensor(
            tensor(identity(prefix), letter_act[letter]),
            identity(word(str(w)[i + 1:])),
        )
        total = total + compose(act_here, transport)
    return lie_module(L, carrier, kar_diag(total), check=check)


# ---------------------------------------------------------------------------
# the unoriented Lie object and its natural module


def unoriented_so_object() -> LieObject:
    """The skew projector object in the unoriented envelope with the
    antisymmetrized pairing product as its bracket."""
    e = antisymmetrizer(2, "unoriented")
    carrier = kar_object([word("ss")], [[e]])
    s1 = identity(word("s"))
    m = tensor(tensor(s1, cap("ss")), s1)
    sigma = swap_words(word("ss"), word("ss"))
    raw = m - compose(m, sigma)
    square = kar_tensor_objects(carrier, carrier)
    return _checked_lie(carrier, kar_sandwich(square, carrier, [[raw]]))


def unoriented_natural_module(L: LieObject | None = None) -> LieModule:
    """The single-strand module: pass-through minus its cap-reflected mirror,
    halved."""
    if L is None:
        L = unoriented_so_object()
    carrier = kar_word(word("s"))
    dom = word("sss")
    through = Matching.make(
        dom, word("s"), [(("bot", 0), ("top", 0)), (("bot", 1), ("bot", 2))]
    )
    reflected = Matching.make(
        dom, word("s"), [(("bot", 0), ("bot", 2)), (("bot", 1), ("top", 0))]
    )
    act = (
        DiagMorphism.from_matching(through)
        - DiagMorphism.from_matching(reflected)
    ).scale(Fraction(1, 2))
    src = kar_tensor_objects(L.carrier, carrier)
    action = kar_morphism(src, carrier, [[act]])
    return lie_module(L, carrier, action)
