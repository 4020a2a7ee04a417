"""Shared table of headline expected values, each tagged with its origin.

The test suite and the command line both read this one table, so the numbers
a reproduction is checked against live in exactly one place. Every record
carries an ``origin`` tag:

- ``benchmark``: a published reference value the computation must hit;
- ``oracle``: a value frozen from an independent oracle computation
  (see tests/oracles/) or derived by hand independently of this package;
- ``definition``: an immediate consequence of the definitions (counting
  formulas, evaluations of closed forms).
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction

from curcat.currents import (
    canonical_module,
    incarnation_preimage_space,
    induced_module,
    right_inverse_check,
    solution_to_morphism,
)
from curcat.diagrams import (
    antisymmetrizer,
    compose,
    crossing,
    identity,
    tensor,
    word,
)
from curcat.exact import RATIONAL_RING, ExactMatrix, rank
from curcat.incarnate import (
    IncarnationConfig,
    incarnate,
    kernel_of_incarnation,
    so_object_image_check,
)
from curcat.karoubi import kar_diag
from curcat.lie import gl_object, report_passed, unoriented_so_object

ORIGIN_BENCHMARK = "benchmark"
ORIGIN_ORACLE = "oracle"
ORIGIN_DEFINITION = "definition"

ORIGINS = (ORIGIN_BENCHMARK, ORIGIN_ORACLE, ORIGIN_DEFINITION)


@dataclasses.dataclass(frozen=True)
class Expectation:
    """One expected value, addressable by key, with its provenance tag."""

    key: str
    reproduction: str
    origin: str
    expected: object
    note: str


MANIFEST: tuple[Expectation, ...] = (
    Expectation(
        "kernel10.hom_dimension",
        "kernel10",
        ORIGIN_ORACLE,
        24,
        "matching count of the four-strand endomorphism space",
    ),
    Expectation(
        "kernel10.kernel_dimension",
        "kernel10",
        ORIGIN_BENCHMARK,
        10,
        "nullity of the realization map on four strands at dimension two",
    ),
    Expectation(
        "kernel10.rank",
        "kernel10",
        ORIGIN_ORACLE,
        14,
        "rank of the realization map on four strands at dimension two",
    ),
    Expectation(
        "c-minus-1.distinct-twists.affine_dimension",
        "c-minus-1",
        ORIGIN_BENCHMARK,
        0,
        "the identity has a unique preimage when the twists differ",
    ),
    Expectation(
        "c-minus-1.distinct-twists.coefficient",
        "c-minus-1",
        ORIGIN_BENCHMARK,
        "-1",
        "antisymmetrizer coefficient pinned by the degree-one condition",
    ),
    Expectation(
        "c-minus-1.equal-twists.affine_dimension",
        "c-minus-1",
        ORIGIN_BENCHMARK,
        1,
        "one free parameter remains when the twists agree",
    ),
    Expectation(
        "dims-6-4.straight.affine_dimension",
        "dims-6-4",
        ORIGIN_BENCHMARK,
        6,
        "four-strand preimage space, kernel boxes on strands 1-3 and 2-4",
    ),
    Expectation(
        "dims-6-4.crossed.affine_dimension",
        "dims-6-4",
        ORIGIN_BENCHMARK,
        4,
        "same twists but the second box fed through a strand swap",
    ),
    Expectation(
        "right-inverse.right-inverse(generic)",
        "right-inverse",
        ORIGIN_ORACLE,
        "pass",
        "the scaled cup splits the three-strand canonical action generically",
    ),
    Expectation(
        "right-inverse.right-inverse(delta=2)",
        "right-inverse",
        ORIGIN_BENCHMARK,
        "pass",
        "the same identity specialized at loop value two",
    ),
    Expectation(
        "right-inverse.coefficient-1-residual",
        "right-inverse",
        ORIGIN_ORACLE,
        "pass",
        "dropping the 1/3 leaves exactly twice the identity",
    ),
    Expectation(
        "so-image.dimensions",
        "so-image",
        ORIGIN_DEFINITION,
        [1, 3, 6],
        "skew-symmetric matrix dimensions n(n-1)/2 for n = 2, 3, 4",
    ),
    Expectation(
        "so-image.checks",
        "so-image",
        ORIGIN_BENCHMARK,
        "pass",
        "the realized bracket is the matrix commutator on skew matrices",
    ),
)

REPRODUCTION_IDS: tuple[str, ...] = (
    "kernel10",
    "c-minus-1",
    "dims-6-4",
    "right-inverse",
    "so-image",
)


def expectations_for(reproduction: str) -> list[Expectation]:
    rows = [e for e in MANIFEST if e.reproduction == reproduction]
    if not rows:
        raise ValueError(f"unknown reproduction {reproduction!r}")
    return rows


# ---------------------------------------------------------------------------
# the computations behind each reproduction


def _compute_kernel10(degree_bound: int) -> dict[str, object]:
    res = kernel_of_incarnation("uuuu", "uuuu", IncarnationConfig(2))
    return {
        "kernel10.hom_dimension": res.hom_dimension,
        "kernel10.kernel_dimension": res.kernel_dimension,
        "kernel10.rank": res.rank,
    }


def _antisymmetrizer_coefficient(f_block, idm) -> str:
    """Express a solution as identity + c * antisymmetrizer and return c."""
    diff = f_block - idm
    a3 = antisymmetrizer(3)
    id_matching = idm.terms[0][0]
    coeff = dict(diff.terms).get(id_matching)
    c = coeff.constant_value() * 6 if coeff is not None else Fraction(0)
    if f_block != idm + a3.scale(c):
        return "not-of-the-expected-form"
    return str(c)


def _compute_c_minus_1(degree_bound: int) -> dict[str, object]:
    gl = gl_object()
    base = canonical_module(gl, "uuu")
    idm = identity(word("uuu"))
    a3 = antisymmetrizer(3)
    target = ExactMatrix.identity(8, RATIONAL_RING)
    V = induced_module(base, kar_diag(idm))
    W = induced_module(base, kar_diag(idm + a3))
    res = incarnation_preimage_space(V, W, 2, target, degree_bound)
    out: dict[str, object] = {
        "c-minus-1.distinct-twists.affine_dimension": res.affine_dimension
    }
    if res.is_consistent and res.affine_dimension == 0:
        f = solution_to_morphism(res, V, W)
        out["c-minus-1.distinct-twists.coefficient"] = _antisymmetrizer_coefficient(
            f.blocks[0][0], idm
        )
    else:
        out["c-minus-1.distinct-twists.coefficient"] = "no-unique-solution"
    phi = kar_diag(idm + a3)
    equal = incarnation_preimage_space(
        induced_module(base, phi), induced_module(base, phi), 2, target, degree_bound
    )
    out["c-minus-1.equal-twists.affine_dimension"] = equal.affine_dimension
    return out


def _compute_dims_6_4(degree_bound: int) -> dict[str, object]:
    gl = gl_object()
    base = canonical_module(gl, "uuuu")
    idm = identity(word("uuuu"))
    a3 = antisymmetrizer(3)
    idu = identity(word("u"))
    first_three = tensor(a3, idu)
    last_three = tensor(idu, a3)
    swapped = compose(
        tensor(a3, idu), tensor(identity(word("uu")), crossing("u", "u"))
    )
    target = ExactMatrix.identity(16, RATIONAL_RING)
    V = induced_module(base, kar_diag(idm + first_three))
    straight = incarnation_preimage_space(
        V, induced_module(base, kar_diag(idm + last_three)), 2, target, degree_bound
    )
    crossed = incarnation_preimage_space(
        V, induced_module(base, kar_diag(idm + swapped)), 2, target, degree_bound
    )
    return {
        "dims-6-4.straight.affine_dimension": straight.affine_dimension,
        "dims-6-4.crossed.affine_dimension": crossed.affine_dimension,
    }


def _compute_right_inverse(degree_bound: int) -> dict[str, object]:
    return {
        f"right-inverse.{entry['identity']}": entry["status"]
        for entry in right_inverse_check()
    }


def _compute_so_image(degree_bound: int) -> dict[str, object]:
    dims = []
    all_ok = True
    for n in (2, 3, 4):
        report = so_object_image_check(n)
        all_ok = all_ok and report_passed(report)
        so = unoriented_so_object()
        projector = incarnate(
            so.carrier.idempotent[0][0], IncarnationConfig(n, "unoriented")
        )
        dims.append(rank(projector))
    return {
        "so-image.dimensions": dims,
        "so-image.checks": "pass" if all_ok else "fail",
    }


_RUNNERS = {
    "kernel10": _compute_kernel10,
    "c-minus-1": _compute_c_minus_1,
    "dims-6-4": _compute_dims_6_4,
    "right-inverse": _compute_right_inverse,
    "so-image": _compute_so_image,
}


def run_reproduction(reproduction: str, degree_bound: int = 2) -> dict:
    """Recompute one reproduction and compare against the stored table."""
    rows = expectations_for(reproduction)
    computed = _RUNNERS[reproduction](degree_bound)
    checks = []
    all_ok = True
    for row in rows:
        got = computed.get(row.key, "missing")
        ok = got == row.expected
        all_ok = all_ok and ok
        checks.append(
            {
                "key": row.key,
                "origin": row.origin,
                "note": row.note,
                "expected": row.expected,
                "computed": got,
                "status": "pass" if ok else "fail",
            }
        )
    return {
        "reproduction": reproduction,
        "degree_bound": degree_bound,
        "checks": checks,
        "status": "pass" if all_ok else "fail",
    }


def run_reproductions(ids=None, degree_bound: int = 2) -> list[dict]:
    if ids is None:
        ids = REPRODUCTION_IDS
    return [run_reproduction(rid, degree_bound) for rid in ids]
