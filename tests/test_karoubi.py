"""Tests for the additive idempotent completion layer."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest

from curcat.diagrams import (
    DiagMorphism,
    DiagramTypeError,
    antisymmetrizer,
    cap,
    compose,
    crossing,
    cup,
    identity,
    tensor,
    word,
)
from curcat.karoubi import (
    KarMorphism,
    NotAbsorbedError,
    NotIdempotentError,
    kar_add,
    kar_braiding,
    kar_compose,
    kar_diag,
    kar_direct_sum,
    kar_identity,
    kar_inclusion,
    kar_morphism,
    kar_morphism_from_json_dict,
    kar_morphism_to_json_dict,
    kar_object,
    kar_object_from_json_dict,
    kar_projection,
    kar_sandwich,
    kar_scale,
    kar_tensor,
    kar_tensor_objects,
    kar_unit,
    kar_word,
    kar_zero,
)


def test_plain_word_object_accepts_identity_idempotent():
    obj = kar_object(["u"], [[identity(word("u"))]])
    assert obj == kar_word("u")


def test_skew_projector_object_is_accepted():
    e = antisymmetrizer(2, "unoriented")
    obj = kar_object([word("ss")], [[e]])
    assert kar_identity(obj).blocks[0][0] == e


def test_doubled_identity_is_rejected():
    with pytest.raises(NotIdempotentError):
        kar_object(["u"], [[identity(word("u")).scale(2)]])


def test_morphism_must_be_absorbed_by_idempotents():
    e = antisymmetrizer(2)
    obj = kar_object(["uu"], [[e]])
    # the raw identity of uu is not fixed by e on either side
    with pytest.raises(NotAbsorbedError):
        kar_morphism(obj, obj, [[identity(word("uu"))]])
    # but e itself is, and it is the identity of (uu, e)
    f = kar_morphism(obj, obj, [[e]])
    assert f == kar_identity(obj)


def test_sandwich_projects_raw_blocks_onto_valid_morphisms():
    e = antisymmetrizer(2)
    obj = kar_object(["uu"], [[e]])
    f = kar_sandwich(obj, obj, [[identity(word("uu"))]])
    assert f == kar_identity(obj)
    g = kar_sandwich(obj, obj, [[crossing("u", "u")]])
    # e absorbs the crossing up to the sign it alternates with
    assert g == kar_scale(kar_identity(obj), -1)


def test_compose_respects_boundaries():
    f = kar_diag(cup("ud"))
    g = kar_diag(cap("ud"))
    loop = kar_compose(g, f)
    assert loop.source == kar_unit() and loop.target == kar_unit()
    from curcat.exact import DeltaPoly

    assert loop.blocks[0][0].scalar_value() == DeltaPoly.delta()


def test_zero_and_addition():
    obj = kar_word("ud")
    z = kar_zero(obj, obj)
    assert z.is_zero()
    f = kar_identity(obj)
    assert kar_add(f, z) == f
    assert (f - f).is_zero()
    assert kar_add(f, f) == kar_scale(f, 2)


def test_direct_sum_biproduct_identities():
    parts = [kar_word("uu"), kar_word("d"), kar_object(["ud"], [[identity(word("ud"))]])]
    total = kar_direct_sum(parts)
    incls = [kar_inclusion(parts, total, i) for i in range(3)]
    projs = [kar_projection(parts, total, i) for i in range(3)]
    for i in range(3):
        for j in range(3):
            comp = kar_compose(projs[i], incls[j])
            if i == j:
                assert comp == kar_identity(parts[i])
            else:
                assert comp.is_zero()
    acc = kar_compose(incls[0], projs[0])
    for i in (1, 2):
        acc = kar_add(acc, kar_compose(incls[i], projs[i]))
    assert acc == kar_identity(total)


def test_direct_sum_of_projector_objects():
    e = antisymmetrizer(2)
    p = kar_object(["uu"], [[e]])
    parts = [p, kar_word("uu")]
    total = kar_direct_sum(parts)
    i0 = kar_inclusion(parts, total, 0)
    p0 = kar_projection(parts, total, 0)
    assert kar_compose(p0, i0) == kar_identity(p)
    assert kar_compose(i0, p0).blocks[0][0] == e


def test_tensor_objects_left_major_order():
    a = kar_direct_sum([kar_word("u"), kar_word("d")])
    b = kar_word("uu")
    t = kar_tensor_objects(a, b)
    assert [str(w) for w in t.summands] == ["uuu", "duu"]


def test_tensor_of_morphisms_matches_diagram_tensor():
    f = kar_diag(cap("ud"))
    g = kar_diag(identity(word("u")))
    t = kar_tensor(f, g)
    assert t.blocks[0][0] == tensor(cap("ud"), identity(word("u")))


def test_tensor_interchange_on_envelope():
    f = kar_diag(cup("ud"))
    g = kar_diag(cap("ud"))
    h = kar_diag(crossing("u", "d"))
    k = kar_diag(identity(word("du")))
    lhs = kar_compose(kar_tensor(g, k), kar_tensor(f, h))
    rhs = kar_tensor(kar_compose(g, f), kar_compose(k, h))
    assert lhs == rhs


def test_braiding_is_its_own_inverse_on_plain_words():
    a, b = kar_word("ud"), kar_word("u")
    br = kar_braiding(a, b)
    back = kar_braiding(b, a)
    assert kar_compose(back, br) == kar_identity(kar_tensor_objects(a, b))
    assert kar_compose(br, back) == kar_identity(kar_tensor_objects(b, a))


def test_braiding_on_projector_objects():
    e = antisymmetrizer(2)
    p = kar_object(["uu"], [[e]])
    br = kar_braiding(p, p)
    back = kar_braiding(p, p)
    assert kar_compose(back, br) == kar_identity(kar_tensor_objects(p, p))


def test_braiding_naturality_on_envelope():
    f = kar_diag(cap("ud"))  # ud -> empty
    g = kar_diag(identity(word("u")))
    br_src = kar_braiding(f.source, g.source)
    br_tgt = kar_braiding(f.target, g.target)
    lhs = kar_compose(br_tgt, kar_tensor(f, g))
    rhs = kar_compose(kar_tensor(g, f), br_src)
    assert lhs == rhs


def test_scale_by_fraction_and_delta():
    from curcat.exact import DeltaPoly

    f = kar_identity(kar_word("u"))
    assert kar_scale(f, Fraction(2, 3)).blocks[0][0].coeff(
        f.blocks[0][0].terms[0][0]
    ) == DeltaPoly.constant(Fraction(2, 3))
    g = kar_scale(f, DeltaPoly.delta())
    assert g.specialize(5) == kar_scale(f, 5)


def test_json_round_trip():
    e = antisymmetrizer(2)
    p = kar_object(["uu"], [[e]])
    br = kar_braiding(p, kar_word("d"))
    blob = json.dumps(kar_morphism_to_json_dict(br), indent=2, sort_keys=True)
    back = kar_morphism_from_json_dict(json.loads(blob))
    assert back == br
    assert json.dumps(kar_morphism_to_json_dict(back), indent=2, sort_keys=True) == blob


def _without(obj: dict, key: str) -> dict:
    return {k: v for k, v in obj.items() if k != key}


def _round_trip_blob() -> dict:
    p = kar_object(["uu"], [[antisymmetrizer(2)]])
    return kar_morphism_to_json_dict(kar_braiding(p, kar_word("d")))


@pytest.mark.parametrize(
    "read, make",
    [
        (kar_object_from_json_dict, lambda m: _without(m["source"], "summands")),
        (kar_object_from_json_dict, lambda m: _without(m["source"], "idempotent")),
        (kar_object_from_json_dict, lambda m: _without(m["source"], "flavor")),
        (kar_object_from_json_dict, lambda m: [m["source"]]),
        (kar_morphism_from_json_dict, lambda m: _without(m, "source")),
        (kar_morphism_from_json_dict, lambda m: _without(m, "target")),
        (kar_morphism_from_json_dict, lambda m: _without(m, "blocks")),
        (kar_morphism_from_json_dict, lambda m: [m]),
    ],
    ids=[
        "object-no-summands",
        "object-no-idempotent",
        "object-no-flavor",
        "object-list",
        "morphism-no-source",
        "morphism-no-target",
        "morphism-no-blocks",
        "morphism-list",
    ],
)
def test_karoubi_json_readers_reject_malformed_input(read, make):
    with pytest.raises(DiagramTypeError):
        read(make(_round_trip_blob()))


def test_operator_sugar():
    f = kar_identity(kar_word("ud"))
    assert f * f == f
    assert 2 * f == f + f
    assert (f @ f).source == kar_tensor_objects(f.source, f.source)
    assert (-f) + f == kar_zero(f.source, f.target)
