"""Tests for the matrix realizations of the diagram categories."""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curcat.diagrams import (
    DiagMorphism,
    antisymmetrizer,
    cap,
    compose,
    crossing,
    cup,
    identity,
    permutation_diagram,
    swap_words,
    tensor,
    word,
)
from curcat.exact import RATIONAL_RING, DeltaPoly, ExactMatrix, rank
from curcat.incarnate import (
    IncarnationConfig,
    antisymmetrizer_kernel_check,
    hom_basis,
    incarnate,
    incarnate_matching,
    kernel_of_incarnation,
    kernel_report_json,
    so_object_image_check,
)
from curcat.karoubi import (
    KarMorphism,
    kar_braiding,
    kar_direct_sum,
    kar_identity,
    kar_morphism,
    kar_object,
    kar_word,
)
from curcat.lie import unoriented_so_object

ORACLES = Path(__file__).parent / "oracles"


def frozen(name: str) -> dict:
    return json.loads((ORACLES / name).read_text())


# ---------------------------------------------------------------------------
# basics


def test_circle_evaluates_to_n():
    circle = compose(cap("ud"), cup("ud"))
    for n in (1, 2, 3, 5):
        m = incarnate(circle, IncarnationConfig(n))
        assert m.entries == ((Fraction(n),),)


def test_identity_incarnates_to_identity():
    for n in (1, 2, 3):
        cfg = IncarnationConfig(n)
        got = incarnate(identity(word("ud")), cfg)
        assert got == ExactMatrix.identity(n * n, RATIONAL_RING)


def test_crossing_is_the_swap_operator():
    cfg = IncarnationConfig(2)
    s = incarnate(crossing("u", "u"), cfg)
    # e_i . e_j -> e_j . e_i with leftmost factor most significant
    for i in range(2):
        for j in range(2):
            col = i * 2 + j
            row = j * 2 + i
            assert s.entries[row][col] == 1


def test_antisymmetrizer_collapses_in_low_dimension():
    assert incarnate(antisymmetrizer(2), IncarnationConfig(1)).is_zero()
    assert incarnate(antisymmetrizer(3), IncarnationConfig(2)).is_zero()
    assert incarnate(antisymmetrizer(4), IncarnationConfig(3)).is_zero()
    assert not incarnate(antisymmetrizer(2), IncarnationConfig(2)).is_zero()
    assert not incarnate(antisymmetrizer(3), IncarnationConfig(3)).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_defining_relations_incarnate(n):
    cfg = IncarnationConfig(n)
    u, d = word("u"), word("d")
    x_uu = crossing("u", "u")
    relations = [
        (compose(x_uu, x_uu), identity(word("uu"))),
        (
            # braid move on three parallel strands
            compose(
                compose(tensor(x_uu, identity(u)), tensor(identity(u), x_uu)),
                tensor(x_uu, identity(u)),
            ),
            compose(
                compose(tensor(identity(u), x_uu), tensor(x_uu, identity(u))),
                tensor(identity(u), x_uu),
            ),
        ),
        # snake reductions
        (
            compose(tensor(identity(u), cap("du")), tensor(cup("ud"), identity(u))),
            identity(u),
        ),
        (
            compose(tensor(cap("ud"), identity(u)), tensor(identity(u), cup("du"))),
            identity(u),
        ),
        # sliding a crossing through a cap or cup
        (cap("du"), compose(cap("ud"), crossing("d", "u"))),
        (cap("ud"), compose(cap("du"), crossing("u", "d"))),
        (cup("du"), compose(crossing("u", "d"), cup("ud"))),
        (cup("ud"), compose(crossing("d", "u"), cup("du"))),
    ]
    for lhs, rhs in relations:
        assert incarnate(lhs, cfg) == incarnate(rhs, cfg)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unoriented_relations_incarnate(n):
    cfg = IncarnationConfig(n, "unoriented")
    s = word("s")
    x = crossing("s", "s")
    assert incarnate(compose(x, x), cfg) == ExactMatrix.identity(n * n, RATIONAL_RING)
    snake = compose(tensor(identity(s), cap("ss")), tensor(cup("ss"), identity(s)))
    assert incarnate(snake, cfg) == ExactMatrix.identity(n, RATIONAL_RING)
    # the pairing absorbs a crossing
    assert incarnate(compose(cap("ss"), x), cfg) == incarnate(cap("ss"), cfg)
    loop = compose(cap("ss"), cup("ss"))
    assert incarnate(loop, cfg).entries == ((Fraction(n),),)


# ---------------------------------------------------------------------------
# functoriality on randomized composites

_POOL_WORDS = ["", "u", "d", "uu", "ud", "du"]
_PAIRS = []
for _a in _POOL_WORDS:
    for _b in _POOL_WORDS:
        if hom_basis(word(_a), word(_b)):
            _PAIRS.append((_a, _b))

_TRIPLES = []
for _a, _b in _PAIRS:
    for _b2, _c in _PAIRS:
        if _b2 == _b:
            _TRIPLES.append((_a, _b, _c))


@st.composite
def diag_in_hom(draw, dom: str, cod: str):
    basis = hom_basis(word(dom), word(cod))
    coeffs = draw(
        st.lists(
            st.integers(-3, 3), min_size=len(basis), max_size=len(basis)
        )
    )
    acc = DiagMorphism.zero(word(dom), word(cod))
    for m, c in zip(basis, coeffs):
        acc = acc + DiagMorphism.from_matching(m, c)
    return acc


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_incarnation_respects_composition(data, n):
    a, b, c = data.draw(st.sampled_from(_TRIPLES))
    f = data.draw(diag_in_hom(b, c))
    g = data.draw(diag_in_hom(a, b))
    cfg = IncarnationConfig(n)
    assert incarnate(compose(f, g), cfg) == incarnate(f, cfg) @ incarnate(g, cfg)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_incarnation_respects_tensor(data, n):
    a, b = data.draw(st.sampled_from(_PAIRS))
    c, d = data.draw(st.sampled_from(_PAIRS))
    f = data.draw(diag_in_hom(a, b))
    g = data.draw(diag_in_hom(c, d))
    cfg = IncarnationConfig(n)
    assert incarnate(tensor(f, g), cfg) == incarnate(f, cfg).kron(incarnate(g, cfg))


def test_envelope_morphism_incarnates_blockwise():
    cfg = IncarnationConfig(2)
    br = kar_braiding(kar_word("u"), kar_word("d"))
    got = incarnate(br, cfg)
    want = incarnate(swap_words(word("u"), word("d")), cfg)
    assert got == want


def _reference_realization(f, n: int) -> list[list[Fraction]]:
    """The realization built entry by entry from each term's ("bot", i) /
    ("top", j) pairs: a joint index assignment gives both ends of a pair one
    index, the top indices give the row and the bottom indices the column;
    envelope morphisms place each block's realization at its summand
    offsets."""
    if isinstance(f, KarMorphism):
        row_dims = [n ** len(w) for w in f.target.summands]
        col_dims = [n ** len(w) for w in f.source.summands]
        grid = [[Fraction(0)] * sum(col_dims) for _ in range(sum(row_dims))]
        for i, row in enumerate(f.blocks):
            for j, block in enumerate(row):
                r0, c0 = sum(row_dims[:i]), sum(col_dims[:j])
                for r, line in enumerate(_reference_realization(block, n)):
                    for c, x in enumerate(line):
                        grid[r0 + r][c0 + c] += x
        return grid
    k_bot, k_top = len(f.domain), len(f.codomain)
    grid = [[Fraction(0)] * n**k_bot for _ in range(n**k_top)]
    for m, coeff in f.terms:
        for values in product(range(n), repeat=len(m.pairs)):
            digits = {}
            for (a, b), v in zip(m.pairs, values):
                digits[a] = digits[b] = v
            row = sum(digits[("top", i)] * n ** (k_top - 1 - i) for i in range(k_top))
            col = sum(digits[("bot", i)] * n ** (k_bot - 1 - i) for i in range(k_bot))
            grid[row][col] += coeff.evaluate(Fraction(n))
    return grid


def _realization_cases() -> list:
    """Multi-term diagrams (one with a coefficient that vanishes at n = 2)
    and envelope morphisms between direct sums of several summands."""
    two_minus_delta = DiagMorphism.scalar(DeltaPoly([2, -1]))
    loop_term = tensor(two_minus_delta, crossing("u", "u")) + identity(word("uu"))
    mixed = antisymmetrizer(3) + tensor(crossing("u", "u"), identity(word("u"))).scale(3)
    so = unoriented_so_object()
    sums = kar_direct_sum([kar_word("u"), kar_word("ud"), kar_word("")])
    small = kar_direct_sum([kar_word("u"), kar_word("d")])
    pair = kar_direct_sum([kar_word("uu"), kar_word("")])
    ud = word("ud")
    blocks = [
        [cap("ud").scale(2), DiagMorphism.scalar(DeltaPoly([1, 1]))],
        [identity(ud) + compose(cup("ud"), cap("ud")), cup("ud").scale(DeltaPoly([0, 1]))],
    ]
    return [
        loop_term,
        mixed,
        compose(cap("du"), cup("du")).scale(Fraction(1, 2)),
        so.carrier.idempotent[0][0],
        so.bracket.blocks[0][0],
        kar_identity(sums),
        kar_braiding(small, pair),
        kar_morphism(
            kar_direct_sum([kar_word("ud"), kar_word("")]),
            kar_direct_sum([kar_word(""), kar_word("ud")]),
            blocks,
        ),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_incarnate_matches_the_pairwise_reference(n):
    for f in _realization_cases():
        flavor = f.source.summands[0].flavor if isinstance(f, KarMorphism) else f.flavor
        got = incarnate(f, IncarnationConfig(n, flavor))
        assert got.entries == tuple(map(tuple, _reference_realization(f, n)))
        if not isinstance(f, KarMorphism):
            for m, _ in f.terms:
                single = DiagMorphism.from_matching(m)
                want = _reference_realization(single, n)
                assert incarnate_matching(m, IncarnationConfig(n, flavor)).entries == tuple(
                    map(tuple, want)
                )


# ---------------------------------------------------------------------------
# kernels


def test_kernel_on_four_up_strands_matches_frozen_oracle():
    data = frozen("frozen_tensor_rank.json")["end_4_strands_n2"]
    res = kernel_of_incarnation("uuuu", "uuuu", IncarnationConfig(2))
    assert res.hom_dimension == data["basis"]
    assert res.rank == data["rank"]
    assert res.kernel_dimension == data["nullity"]


# Rows of frozen_invariant_rank.json (invariant theory, no package code) that
# the Gram elimination finishes in well under a second: every n <= k for the
# uniform oriented words up to five strands and unoriented up to four, plus
# mixed oriented words, whose rank the oracle says does not depend on letters.
INVARIANT_RANK_CASES = [
    *(("u" * k, n) for k in range(1, 6) for n in range(1, k + 1)),
    *(("s" * k, n) for k in range(1, 5) for n in range(1, k + 1)),
    ("ud", 1), ("udud", 2), ("uudd", 2), ("uuud", 2), ("udud", 3), ("uudu", 3),
    ("uuddu", 3), ("dudud", 2),
]


@pytest.mark.parametrize(
    "text, n", INVARIANT_RANK_CASES, ids=[f"{w}-n{n}" for w, n in INVARIANT_RANK_CASES]
)
def test_kernel_rank_matches_the_invariant_theory_oracle(text, n):
    w = word(text)
    res = kernel_of_incarnation(w, w, IncarnationConfig(n, w.flavor))
    key = f"{w.flavor} k={len(w)} n={n}"
    assert res.rank == frozen("frozen_invariant_rank.json")[key]
    assert res.rank + res.kernel_dimension == res.hom_dimension


def test_kernel_on_three_up_strands_is_spanned_by_the_antisymmetrizer():
    res = kernel_of_incarnation("uuu", "uuu", IncarnationConfig(2))
    assert res.kernel_dimension == 1
    index = {m: i for i, m in enumerate(res.matchings)}
    vec = [Fraction(0)] * len(res.matchings)
    for m, c in antisymmetrizer(3).terms:
        vec[index[m]] = c.evaluate(Fraction(2))
    target = res.basis[0]
    ratios = {Fraction(a) / Fraction(b) for a, b in zip(vec, target) if b}
    assert len(ratios) == 1
    assert all((a == 0) == (b == 0) for a, b in zip(vec, target))


def test_kernel_trivial_cases():
    assert kernel_of_incarnation("u", "u", IncarnationConfig(3)).kernel_dimension == 0
    res = kernel_of_incarnation("uu", "uu", IncarnationConfig(1))
    assert res.kernel_dimension == 1


def test_kernel_vectors_incarnate_to_zero():
    res = kernel_of_incarnation("uuu", "uuu", IncarnationConfig(2))
    cfg = IncarnationConfig(2)
    for vec in res.basis:
        acc = DiagMorphism.zero(word("uuu"), word("uuu"))
        for m, c in zip(res.matchings, vec):
            acc = acc + DiagMorphism.from_matching(m, Fraction(c))
        assert incarnate(acc, cfg).is_zero()


def test_kernel_report_shape():
    res = kernel_of_incarnation("uu", "uu", IncarnationConfig(1))
    rep = kernel_report_json(res)
    assert rep["word"] == "uu" and rep["n"] == 1
    assert rep["hom_dimension"] == 2 and rep["kernel_dimension"] == 1
    assert len(rep["basis"]) == 1 and len(rep["basis"][0]) == 2
    json.dumps(rep)


def _dense_realization_rows(w1: str, w2: str, n: int) -> list[tuple[Fraction, ...]]:
    """Distinct nonzero rows of the matrix whose columns are the flattened
    realizations of the matchings of Hom(w1, w2); dropping repeated and zero
    rows changes neither the rank nor the null space."""
    cfg = IncarnationConfig(n)
    columns = [incarnate_matching(m, cfg).flatten() for m in hom_basis(w1, w2)]
    rows = set(zip(*columns))
    return [row for row in rows if any(row)]


@pytest.mark.parametrize(
    "w1,w2,n",
    [
        ("uuuu", "uuuu", 2),
        ("uuuu", "uuuu", 3),
        ("udud", "udud", 2),
        ("sss", "sss", 2),
        ("ssss", "ssss", 2),
        ("ud", "udud", 2),
        ("ss", "ssss", 2),
    ],
)
def test_gram_kernel_agrees_with_the_dense_realization(w1, w2, n):
    result = kernel_of_incarnation(w1, w2, IncarnationConfig(n))
    rows = _dense_realization_rows(w1, w2, n)
    dense = ExactMatrix(rows, RATIONAL_RING, cols=result.hom_dimension)
    assert rank(dense) == result.rank
    for vec in result.basis:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)


def test_kernel_reports_match_the_frozen_dense_output():
    """The frozen file holds `curcat kernel W --n N --format json` output
    computed at commit 03388ae, which reduced the dense realization matrix."""
    for key, expected in frozen("frozen_kernel_json.json").items():
        w, n = key.split(",n=")
        result = kernel_of_incarnation(w, w, IncarnationConfig(int(n)))
        got = json.dumps(kernel_report_json(result), indent=2, sort_keys=True)
        assert got == json.dumps(expected, indent=2, sort_keys=True), key


# ---------------------------------------------------------------------------
# ideal and so reports


@pytest.mark.parametrize(
    "n,words", [(1, ["uu", "uuu"]), (2, ["uuu", "uuuu"])]
)
def test_antisymmetrizer_ideal_spans_the_kernel(n, words):
    report = antisymmetrizer_kernel_check(IncarnationConfig(n), words)
    assert all(entry["status"] == "pass" for entry in report)


def test_ideal_check_requires_uniform_words():
    from curcat.diagrams import DiagramTypeError

    with pytest.raises(DiagramTypeError):
        antisymmetrizer_kernel_check(IncarnationConfig(2), ["ud"])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_so_image_is_skew_projection_with_commutator_bracket(n):
    report = so_object_image_check(n)
    assert all(entry["status"] == "pass" for entry in report), report
    dims = [e for e in report if e["identity"].startswith("image-dimension")]
    assert dims, report


def test_hom_basis_counts_match_frozen_oracle():
    counts = frozen("frozen_match_counts.json")
    assert len(hom_basis("ud", "ud")) == counts["end_ud_oriented"]
    assert len(hom_basis("uuuu", "uuuu")) == counts["end_uuuu_oriented"]
    assert len(hom_basis("ss", "ss")) == counts["end_ss_unoriented"]
