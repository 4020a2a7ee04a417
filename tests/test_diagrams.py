"""Tests for the strand-diagram normal form: generators, composition, tensor,
permutations, antisymmetrizers, enumeration, the expression parser, and the
renderers."""
from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curcat.diagrams import (
    DiagMorphism,
    DiagramTypeError,
    Matching,
    ParseError,
    all_matchings,
    antisymmetrizer,
    cap,
    compose,
    crossing,
    cup,
    delta_scalar,
    generator,
    identity,
    parse_expr,
    parse_json,
    permutation_diagram,
    permutation_sign,
    render,
    swap_words,
    tensor,
    word,
)
from curcat.exact import DeltaPoly


# ---------------------------------------------------------------------------
# words and matchings


def test_word_basics():
    w = word("uud")
    assert len(w) == 3
    assert str(w.dual()) == "udd"
    assert str(word("ss").dual()) == "ss"
    assert word("ud").flavor == "oriented"
    assert word("").flavor == "oriented"
    with pytest.raises(DiagramTypeError):
        word("us")
    with pytest.raises(DiagramTypeError):
        word("q")


def test_matching_validation():
    w = word("uu")
    with pytest.raises(DiagramTypeError):
        # a turn-back between two up strands
        Matching.make(w, word(""), [(("bot", 0), ("bot", 1))])
    with pytest.raises(DiagramTypeError):
        # through strand with flipped orientation
        Matching.make(word("u"), word("d"), [(("bot", 0), ("top", 0))])
    with pytest.raises(DiagramTypeError):
        # incomplete cover
        Matching.make(w, w, [(("bot", 0), ("top", 0))])
    with pytest.raises(DiagramTypeError):
        Matching.make(w, w, [(("bot", 0), ("bot", 0)), (("bot", 1), ("top", 1))])


def test_matching_canonical_order():
    m = Matching.make(
        word("ud"), word("ud"), [(("top", 1), ("bot", 1)), (("top", 0), ("bot", 0))]
    )
    assert m.pairs == ((("bot", 0), ("top", 0)), (("bot", 1), ("top", 1)))


# ---------------------------------------------------------------------------
# generators


def test_generator_identity():
    f = generator("id", "ud")
    assert len(f.terms) == 1
    m = f.terms[0][0]
    assert m.pairs == ((("bot", 0), ("top", 0)), (("bot", 1), ("top", 1)))


def test_generator_cap_and_errors():
    f = generator("cap", "ud")
    m = f.terms[0][0]
    assert m.pairs == ((("bot", 0), ("bot", 1)),)
    assert len(f.codomain) == 0
    with pytest.raises(DiagramTypeError):
        generator("cap", "uu")
    with pytest.raises(DiagramTypeError):
        generator("cap", "u")
    generator("cap", "ss")  # unoriented caps are unconstrained
    with pytest.raises(DiagramTypeError):
        generator("twist", "u")


def test_generator_crossing_mixed():
    f = crossing("u", "d")
    assert str(f.codomain) == "du"
    assert compose(crossing("d", "u"), f) == identity("ud")


# ---------------------------------------------------------------------------
# composition and tensor


def test_loop_gives_delta_both_orders():
    assert compose(cap("ud"), cup("ud")).scalar_value() == DeltaPoly.delta()
    assert compose(cap("du"), cup("du")).scalar_value() == DeltaPoly.delta()
    assert compose(cap("ss"), cup("ss")).scalar_value() == DeltaPoly.delta()


def test_zigzag_identities():
    i_u, i_d = identity("u"), identity("d")
    assert compose(tensor(cap("ud"), i_u), tensor(i_u, cup("du"))) == i_u
    assert compose(tensor(i_u, cap("du")), tensor(cup("ud"), i_u)) == i_u
    assert compose(tensor(cap("du"), i_d), tensor(i_d, cup("ud"))) == i_d
    assert compose(tensor(i_d, cap("ud")), tensor(cup("du"), i_d)) == i_d
    i_s = identity("s")
    assert compose(tensor(cap("ss"), i_s), tensor(i_s, cup("ss"))) == i_s


def test_deloop_identities():
    assert compose(cap("ud"), crossing("d", "u")) == cap("du")
    assert compose(cap("du"), crossing("u", "d")) == cap("ud")
    assert compose(crossing("u", "d"), cup("ud")) == cup("du")
    assert compose(crossing("d", "u"), cup("du")) == cup("ud")


def test_crossing_squared():
    assert compose(crossing("u", "u"), crossing("u", "u")) == identity("uu")
    assert compose(crossing("s", "s"), crossing("s", "s")) == identity("ss")


def test_compose_boundary_mismatch():
    with pytest.raises(DiagramTypeError):
        compose(cap("ud"), cap("ud"))


def test_scalar_absorption():
    two = DiagMorphism.scalar(2)
    assert tensor(two, identity("u")) == identity("u").scale(2)
    assert tensor(identity("u"), two) == identity("u").scale(2)
    # flavor-polymorphic unit endomorphisms
    assert tensor(delta_scalar(), identity("s")) == identity("s").scale(
        DeltaPoly.delta()
    )


def test_linear_structure():
    f = identity("uu")
    g = crossing("u", "u")
    h = f - g
    assert h.coeff(f.terms[0][0]) == DeltaPoly.one()
    assert (h + g) == f
    assert h.scale(Fraction(1, 2)) == antisymmetrizer(2)
    assert (f - f).is_zero()


words_pool = ["", "u", "d", "uu", "ud", "du", "dd", "uud", "udu"]
hom_pairs = [
    (d, c)
    for d in words_pool
    for c in words_pool
    if all_matchings(word(d), word(c))
]
_pair_set = set(hom_pairs)
hom_triples = [
    (w0, w1, w2, w3)
    for (w0, w1) in hom_pairs
    for w2 in words_pool
    for w3 in words_pool
    if (w1, w2) in _pair_set and (w2, w3) in _pair_set
]


@st.composite
def diag_morphisms(draw, domain=None, codomain=None):
    if domain is None or codomain is None:
        domain, codomain = draw(st.sampled_from(hom_pairs))
    dom, cod = word(domain), word(codomain)
    basis = all_matchings(dom, cod)
    assume(basis)
    picks = draw(
        st.lists(st.sampled_from(basis), min_size=1, max_size=2, unique=True)
    )
    coeffs = draw(
        st.lists(
            st.integers(min_value=-3, max_value=3).map(Fraction),
            min_size=len(picks),
            max_size=len(picks),
        )
    )
    return DiagMorphism(dom, cod, list(zip(picks, map(DeltaPoly.constant, coeffs))))


@settings(max_examples=60)
@given(data=st.data())
def test_composition_associativity(data):
    w0, w1, w2, w3 = data.draw(st.sampled_from(hom_triples))
    f = data.draw(diag_morphisms(domain=w2, codomain=w3))
    g = data.draw(diag_morphisms(domain=w1, codomain=w2))
    h = data.draw(diag_morphisms(domain=w0, codomain=w1))
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@settings(max_examples=60)
@given(data=st.data())
def test_interchange_law(data):
    a = data.draw(diag_morphisms())
    b = data.draw(diag_morphisms())
    lhs = compose(
        tensor(a, identity(b.codomain)), tensor(identity(a.domain), b)
    )
    mid = tensor(a, b)
    rhs = compose(
        tensor(identity(a.codomain), b), tensor(a, identity(b.domain))
    )
    assert lhs == mid == rhs


@settings(max_examples=60)
@given(data=st.data())
def test_braiding_naturality(data):
    f = data.draw(diag_morphisms())
    g = data.draw(diag_morphisms())
    lhs = compose(swap_words(f.codomain, g.codomain), tensor(f, g))
    rhs = compose(tensor(g, f), swap_words(f.domain, g.domain))
    assert lhs == rhs


@settings(max_examples=40)
@given(data=st.data())
def test_identity_neutrality(data):
    f = data.draw(diag_morphisms())
    assert compose(f, identity(f.domain)) == f
    assert compose(identity(f.codomain), f) == f
    assert tensor(f, identity(word(""))) == f


# ---------------------------------------------------------------------------
# permutations and antisymmetrizers


def test_permutation_diagram_basics():
    assert permutation_diagram([0, 1], "uu") == identity("uu")
    assert permutation_diagram([1, 0], "uu") == crossing("u", "u")
    with pytest.raises(DiagramTypeError):
        permutation_diagram([1, 0], "ud")
    with pytest.raises(DiagramTypeError):
        permutation_diagram([0, 0], "uu")


def test_permutation_composition_is_a_homomorphism():
    x, one = crossing("u", "u"), identity("u")
    assert permutation_diagram([1, 2, 0], "uuu") == compose(
        tensor(x, one), tensor(one, x)
    )
    assert permutation_diagram([2, 0, 1], "uuu") == compose(
        tensor(one, x), tensor(x, one)
    )


def test_permutation_sign():
    assert permutation_sign([0, 1, 2]) == 1
    assert permutation_sign([1, 0, 2]) == -1
    assert permutation_sign([1, 2, 0]) == 1


def test_antisymmetrizer_small():
    assert antisymmetrizer(1) == identity("u")
    assert antisymmetrizer(2) == (identity("uu") - crossing("u", "u")).scale(
        Fraction(1, 2)
    )
    assert len(antisymmetrizer(3).terms) == 6


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_antisymmetrizer_idempotent(k):
    a = antisymmetrizer(k)
    assert compose(a, a) == a


def test_antisymmetrizer_alternates():
    a = antisymmetrizer(3)
    swap = tensor(crossing("u", "u"), identity("u"))
    assert compose(a, swap) == -a
    assert compose(swap, a) == -a


def test_unoriented_antisymmetrizer():
    e = antisymmetrizer(2, "unoriented")
    assert compose(e, e) == e
    assert str(e.domain) == "ss"


# ---------------------------------------------------------------------------
# enumeration


def test_matching_counts_match_brute_force_oracle():
    with open("tests/oracles/frozen_match_counts.json") as fh:
        frozen = json.load(fh)
    cases = {
        "end_ud_oriented": ("ud", "ud"),
        "end_uuuu_oriented": ("uuuu", "uuuu"),
        "hom_u_to_u_oriented": ("u", "u"),
        "end_uuu_oriented": ("uuu", "uuu"),
        "end_ss_unoriented": ("ss", "ss"),
        "end_ssss_unoriented": ("ssss", "ssss"),
        "hom_udu_to_u_oriented": ("udu", "u"),
        "hom_uu_to_empty_oriented": ("uu", ""),
        "hom_ud_to_empty_oriented": ("ud", ""),
    }
    for key, (dom, cod) in cases.items():
        got = len(all_matchings(word(dom), word(cod)))
        assert got == frozen[key], key


def _random_combination(rng, dom, cod):
    ms = all_matchings(dom, cod)
    terms = [(rng.choice(ms), rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))]
    return DiagMorphism(dom, cod, terms)


def _random_word(rng, flavor, k):
    letters = "s" if flavor == "unoriented" else "ud"
    return word("".join(rng.choice(letters) for _ in range(k)), flavor)


def test_matchings_sorted_and_unique():
    for dom, cod in [
        ("uuu", "uuu"), ("udu", "u"), ("", "udud"),
        ("sss", "sss"), ("ssss", "ss"), ("ssssss", ""),
    ]:
        ms = all_matchings(word(dom), word(cod, word(dom).flavor))
        assert ms == sorted(ms, key=lambda m: m.pairs), (dom, cod)
        assert len(set(ms)) == len(ms)
    # Terms of composites and tensors come out in the order of their pairs.
    for f, g in _random_composable_pairs(random.Random(20), 150):
        for h in (compose(f, g), tensor(f, g)):
            keys = [m.pairs for m, _ in h.terms]
            assert keys == sorted(set(keys))


def _random_composable_pairs(rng, count):
    """count seeded pairs (f, g) of random combinations with f after g defined."""
    pairs = []
    while len(pairs) < count:
        flavor = rng.choice(["oriented", "unoriented"])
        a, b, c = (_random_word(rng, flavor, rng.randint(0, 4)) for _ in range(3))
        if all_matchings(a, b) and all_matchings(b, c):
            g, f = _random_combination(rng, a, b), _random_combination(rng, b, c)
            pairs.append((f, g))
    return pairs


def test_constructor_rejects_a_term_with_another_boundary():
    m = all_matchings(word("ud"), word("ud"))[0]
    with pytest.raises(DiagramTypeError, match="term boundary differs"):
        DiagMorphism(word("du"), word("du"), [(m, 1)])
    with pytest.raises(DiagramTypeError, match="term boundary differs"):
        DiagMorphism(word("ud"), word(""), [(m, 1)])


def test_operations_agree_with_termwise_construction():
    """compose, tensor, + and scale equal the public constructor fed the
    same terms one by one, duplicates and cancellations included."""
    rng = random.Random(21)
    for f, g in _random_composable_pairs(rng, 150):
        one = DiagMorphism.from_matching
        glued, juxtaposed = [], []
        for mf, cf in f.terms:
            for mg, cg in g.terms:
                (m, loop_factor), = compose(one(mf), one(mg)).terms
                glued.append((m, cf * cg * loop_factor))
                (m, unit), = tensor(one(mf), one(mg)).terms
                juxtaposed.append((m, cf * cg * unit))
        assert compose(f, g) == DiagMorphism(g.domain, f.codomain, glued)
        assert tensor(f, g) == DiagMorphism(
            f.domain + g.domain, f.codomain + g.codomain, juxtaposed
        )
        assert f + f.scale(-1) == DiagMorphism.zero(f.domain, f.codomain)
        h = _random_combination(rng, f.domain, f.codomain)
        assert f + h == DiagMorphism(f.domain, f.codomain, [*f.terms, *h.terms])
        s = rng.choice([0, -1, 2, Fraction(1, 3), DeltaPoly.delta()])
        assert f.scale(s) == DiagMorphism(
            f.domain, f.codomain, [(m, c * s) for m, c in f.terms]
        )
        for result in (compose(f, g), tensor(f, g), f + h, f.scale(s)):
            assert all(c for _, c in result.terms)
            assert DiagMorphism(result.domain, result.codomain, result.terms) == result


# ---------------------------------------------------------------------------
# parser


def test_parse_compose_chain_applies_rightmost_first():
    f = parse_expr("cap(ud) ; cup(ud)")
    assert f.scalar_value() == DeltaPoly.delta()
    assert len(f.domain) == 0 and len(f.codomain) == 0


def test_parse_crossing_squared():
    assert parse_expr("x(u,u) ; x(u,u)") == identity("uu")


def test_parse_antisymmetrizer_combination():
    assert parse_expr("1/2 id(uu) - 1/2 x(u,u)") == antisymmetrizer(2)
    assert parse_expr("asym(3)") == antisymmetrizer(3)


def test_parse_tensor_binds_tighter_than_compose():
    got = parse_expr("cap(ud) @ id(u) ; id(u) @ cup(du)")
    assert got == identity("u")


def test_parse_parentheses_and_signs():
    f = parse_expr("-(id(uu)) + 2 x(u,u)")
    assert f == identity("uu").scale(-1) + crossing("u", "u").scale(2)


def test_parse_perm_and_delta():
    assert parse_expr("perm[1,2,0](uuu)") == permutation_diagram([1, 2, 0], "uuu")
    assert parse_expr("delta").scalar_value() == DeltaPoly.delta()
    assert parse_expr("delta @ id(u)") == identity("u").scale(DeltaPoly.delta())


def test_parse_unoriented_flavor():
    f = parse_expr("1/2 id(ss) - 1/2 x(s,s)", flavor="unoriented")
    assert f == antisymmetrizer(2, "unoriented")
    assert parse_expr("asym(2)", flavor="unoriented").domain == word("ss")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_expr("cap(uu)")
    with pytest.raises(ParseError):
        parse_expr("id(uu) ; cap(ud)")
    with pytest.raises(ParseError):
        parse_expr("id(uu) +")
    with pytest.raises(ParseError):
        parse_expr("frob(u)")
    with pytest.raises(ParseError):
        parse_expr("id(uu")
    err = None
    try:
        parse_expr("id(uu) ; !!")
    except ParseError as e:
        err = e
    assert err is not None and err.pos == 9


def test_parse_empty_identity():
    f = parse_expr("id()")
    assert len(f.domain) == 0
    assert f.scalar_value() == DeltaPoly.one()


# ---------------------------------------------------------------------------
# rendering


def test_render_text_lists_terms():
    out = render(antisymmetrizer(2), "text")
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0] == "1/2 (b0-t0)(b1-t1)"
    assert lines[1] == "-1/2 (b0-t1)(b1-t0)"


def test_render_text_scalar_and_zero():
    assert render(compose(cap("ud"), cup("ud")), "text") == "1*delta"
    assert render(DiagMorphism.zero(word("u"), word("u")), "text") == "0"


def test_render_json_shape():
    obj = json.loads(render(identity("u"), "json"))
    assert obj["flavor"] == "oriented"
    assert obj["domain"] == "u"
    assert obj["codomain"] == "u"
    assert obj["terms"] == [{"pairs": [["bot", 0, "top", 0]], "coeff": "1"}]


@settings(max_examples=60)
@given(data=st.data())
def test_render_json_round_trip(data):
    f = data.draw(diag_morphisms())
    assert parse_json(render(f, "json")) == f


def test_render_json_round_trip_with_delta_coeffs():
    f = identity("ud").scale(DeltaPoly.delta() ** 2 - 3) + compose(
        cup("ud"), cap("ud")
    )
    assert parse_json(render(f, "json")) == f


@pytest.mark.parametrize(
    "pair",
    [
        ["bot", 1, "xyz", 1],
        ["bot", 1, "top", "1"],
        ["bot", 1, "top", 1.0],
        ["bot", 1, "top", True],
        [1, 1, "top", 1],
        ["bot", 1, "top", 2],
        ["bot", 0, "top"],
        pytest.param(
            '{"flavor": "oriented", "domain": "", "codomain": ""}', id="no-terms"
        ),
        pytest.param(
            '{"flavor": "oriented", "domain": "u", "codomain": "u",'
            ' "terms": [{"pairs": [["bot", 0, "top", 0]]}]}',
            id="no-coeff",
        ),
        pytest.param(
            '{"flavor": "oriented", "domain": "u", "codomain": "u",'
            ' "terms": [{"pairs": [["bot", 0, "top", 0]], "coeff": 1}]}',
            id="numeric-coeff",
        ),
        pytest.param("[]", id="list"),
    ],
)
def test_parse_json_rejects_malformed_endpoints(pair):
    """Only ("bot" | "top", int index in range) names an endpoint; a string
    case is a whole document with a missing key or a value of the wrong type."""
    text = pair if isinstance(pair, str) else json.dumps(
        {
            "flavor": "oriented",
            "domain": "uu",
            "codomain": "uu",
            "terms": [{"pairs": [["bot", 0, "top", 0], pair], "coeff": "1"}],
        }
    )
    with pytest.raises(DiagramTypeError):
        parse_json(text)


def test_render_tikz_mentions_every_strand():
    out = render(crossing("u", "d"), "tikz")
    assert out.count("\\draw") == 2
    assert "tikzpicture" in out
    assert render(DiagMorphism.zero(word("u"), word("u")), "tikz").startswith("%")


def test_render_deterministic():
    a = render(antisymmetrizer(3), "json")
    b = render(antisymmetrizer(3), "json")
    assert a == b
