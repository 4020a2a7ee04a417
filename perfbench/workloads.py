"""The four workloads: one op each, its correctness check, and a digest.

An op takes one plain-data item from ``inputs`` and calls the package's
public functions, the same ones the ``verify``, ``kernel`` and ``solve``
subcommands call. Library functions are reached through their module
objects at call time, so a tracer that rebinds module attributes sees every
call. A check runs outside the timed region and returns None when the
result is right, or a message saying what is wrong. Where an answer exists
that does not come from the code under test (a counting formula, classical
invariant theory, the manifest, the benchmark's own realization matrices),
the check uses it.
"""
from __future__ import annotations

import importlib
import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple

import inputs

currents = importlib.import_module("curcat.currents")
diagrams = importlib.import_module("curcat.diagrams")
equivariant = importlib.import_module("curcat.equivariant")
exact = importlib.import_module("curcat.exact")
incarnate = importlib.import_module("curcat.incarnate")
karoubi = importlib.import_module("curcat.karoubi")
lie = importlib.import_module("curcat.lie")
manifest = importlib.import_module("curcat.manifest")


# ---------------------------------------------------------------------------
# compat


def compat_setup() -> dict:
    return {"gl": lie.gl_object()}


def compat_run(shared: dict, item: dict):
    gl = shared["gl"]
    point = Fraction(item["point"])
    kind = item["kind"]
    if kind == "tensor":
        V = currents.evaluation_module(point, currents.canonical_module(gl, item["V"]))
        if item["W_trivial"]:
            W = currents.trivial_current(gl, item["W"])
        else:
            W = currents.evaluation_module(
                Fraction(item["W_point"]), currents.canonical_module(gl, item["W"])
            )
        module = currents.tensor_current(V, W)
    elif kind == "induced":
        base = currents.canonical_module(gl, item["word"])
        endo = karoubi.kar_diag(diagrams.parse_expr(item["endo"]))
        module = currents.induced_module(base, endo)
    else:
        ev = currents.evaluation_module(point, currents.canonical_module(gl, item["word"]))
        if kind == "evaluation":
            module = ev
        elif kind == "truncated2":
            module = currents.truncated_module(ev, 2)
        elif kind == "truncated3":
            module = currents.truncated_module(ev, 3)
        elif kind == "dual":
            module = currents.dual_current(ev)
        else:
            bound = inputs.COMPAT_DEGREE_BOUND
            module = currents.make_extension(ev, ev, point, ev.action(0), bound)
    return currents.check_current_compatibility(module, inputs.COMPAT_DEGREE_BOUND)


def compat_check(shared: dict, item: dict, report) -> str | None:
    bound = inputs.COMPAT_DEGREE_BOUND
    expected = [f"COMPAT({m},{n})" for m in range(bound + 1) for n in range(bound + 1 - m)]
    names = [entry["identity"] for entry in report]
    if names != expected:
        return f"report lists {len(names)} entries, expected {len(expected)}"
    failing = [entry["identity"] for entry in report if entry["status"] != "pass"]
    if failing:
        return f"failing entries {failing}"
    return None


def compat_digest(report) -> tuple:
    return tuple((e["identity"], e["status"], e.get("residual")) for e in report)


# ---------------------------------------------------------------------------
# realize


def _hook_dimensions(partition: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of a shape (hook length formula)."""
    k = sum(partition)
    conjugate = [sum(1 for row in partition if row > j) for j in range(partition[0])]
    hooks = 1
    for i, row in enumerate(partition):
        for j in range(row):
            hooks *= (row - j - 1) + (conjugate[j] - i - 1) + 1
    return math.factorial(k) // hooks


def _partitions(k: int, largest: int | None = None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def expected_rank(text: str, n: int) -> int | None:
    """Rank of the realization on End(text) from classical invariant theory.

    Oriented: dim End_GL(n)(V^k) = sum over partitions of k with at most n
    rows of (f^lambda)^2 (Schur-Weyl duality; mixed orientations give the
    same invariant space up to reordering factors). Unoriented: the Brauer
    map is injective when n >= k; at n = 2 the invariants of O(2) in V^2k
    number binomial(2k, k) / 2. Other cases have no check.
    """
    k = len(text)
    if "s" not in text:
        return sum(_hook_dimensions(p) ** 2 for p in _partitions(k) if len(p) <= n)
    if n >= k:
        return math.prod(range(1, 2 * k, 2))
    if n == 2:
        return math.comb(2 * k, k) // 2
    return None


def realize_setup() -> dict:
    return {}


def realize_run(shared: dict, item: dict):
    flavor = "unoriented" if "s" in item["word"] else "oriented"
    cfg = incarnate.IncarnationConfig(item["n"], flavor)
    return incarnate.kernel_of_incarnation(item["word"], item["word"], cfg)


def _realization_cells(matching, n: int) -> list[tuple[int, int]]:
    """(row, column) of every 1 in the benchmark's own 0/1 realization of a
    matching: paired endpoints carry equal indices, top indices give the
    row and bottom indices the column."""
    k_bot, k_top = len(matching.domain), len(matching.codomain)
    cells = []
    for values in itertools.product(range(n), repeat=len(matching.pairs)):
        digits = {}
        for (a, b), v in zip(matching.pairs, values):
            digits[a] = v
            digits[b] = v
        row = sum(digits[("top", i)] * n ** (k_top - 1 - i) for i in range(k_top))
        col = sum(digits[("bot", i)] * n ** (k_bot - 1 - i) for i in range(k_bot))
        cells.append((row, col))
    return cells


def realize_check(shared: dict, item: dict, result) -> str | None:
    text, n = item["word"], item["n"]
    k = len(text)
    hom = math.prod(range(1, 2 * k, 2)) if "s" in text else math.factorial(k)
    if result.hom_dimension != hom or len(set(result.matchings)) != hom:
        return f"hom dimension {result.hom_dimension}, expected {hom}"
    if result.rank + result.kernel_dimension != hom:
        return "rank + kernel dimension differs from the hom dimension"
    if len(result.basis) != result.kernel_dimension:
        return "kernel basis size differs from the kernel dimension"
    want = expected_rank(text, n)
    if want is not None and result.rank != want:
        return f"rank {result.rank}, expected {want}"
    cells = [_realization_cells(m, n) for m in result.matchings]
    for vector in result.basis:
        if len(vector) != hom:
            return "kernel vector has the wrong length"
        image: dict[tuple[int, int], Fraction] = {}
        for coeff, support in zip(vector, cells):
            if coeff:
                for cell in support:
                    image[cell] = image.get(cell, 0) + coeff
        if any(image.values()):
            return "a kernel vector does not vanish on the realization"
    return None


def realize_digest(result) -> tuple:
    return (
        result.hom_dimension,
        result.rank,
        result.kernel_dimension,
        tuple(tuple(str(x) for x in v) for v in result.basis),
    )


# ---------------------------------------------------------------------------
# solve


def _manifest_value(key: str):
    reproduction = key.split(".", 1)[0]
    for row in manifest.expectations_for(reproduction):
        if row.key == key:
            return row.expected
    raise KeyError(key)


def _headline_instances() -> dict:
    """Preimage instances from the paper, keyed by (V twist, W twist), with
    the manifest keys their results must match."""
    def twist(text, family):
        return inputs.twist_from_family(text, family, "1")

    return {
        (twist("uuu", "id"), twist("uuu", "asym")): {
            "affine_dimension": "c-minus-1.distinct-twists.affine_dimension",
            "coefficient": "c-minus-1.distinct-twists.coefficient",
        },
        (twist("uuu", "asym"), twist("uuu", "asym")): {
            "affine_dimension": "c-minus-1.equal-twists.affine_dimension",
        },
        (twist("uuuu", "first-three"), twist("uuuu", "last-three")): {
            "affine_dimension": "dims-6-4.straight.affine_dimension",
        },
        (twist("uuuu", "first-three"), twist("uuuu", "crossed")): {
            "affine_dimension": "dims-6-4.crossed.affine_dimension",
        },
    }


def solve_setup() -> dict:
    return {
        "gl": currents.lie_object_by_name("oriented-gl"),
        "headline": {
            pair: {field: _manifest_value(key) for field, key in fields.items()}
            for pair, fields in _headline_instances().items()
        },
    }


def solve_run(shared: dict, item: dict):
    """The same calls as ``curcat solve`` on the item's description."""
    desc = item["description"]
    gl = shared["gl"]
    V = currents.rule_from_description(gl, desc["V"])
    W = currents.rule_from_description(gl, desc["W"])
    bound = desc["degree_bound"]
    if desc.get("target") == "identity":
        cfg = incarnate.IncarnationConfig(desc["n"], gl.carrier.flavor)
        target = incarnate.incarnate(karoubi.kar_identity(W.carrier), cfg)
        result = currents.incarnation_preimage_space(V, W, desc["n"], target, bound)
    else:
        result = currents.current_morphism_space(V, W, bound, delta=Fraction(desc["delta"]))
    return V, W, result


def solve_check(shared: dict, item: dict, output) -> str | None:
    V, W, result = output
    desc = item["description"]
    k = len(item["word"])
    if len(result.basis_diagrams) != math.factorial(k):
        return f"{len(result.basis_diagrams)} unknowns, expected {math.factorial(k)}"
    preimage = desc.get("target") == "identity"
    headline = None
    if preimage:
        headline = shared["headline"].get((desc["V"]["endo"], desc["W"]["endo"]))
    if not result.is_consistent:
        if not preimage:
            return "a homogeneous system came out inconsistent"
        if headline is not None:
            return "a headline instance came out inconsistent"
        return None
    space = result.space
    # the particular solution plus every homogeneous direction is a solution;
    # the twists are permutation diagrams on u strands, so no loop (and no
    # delta) appears and the generic report applies
    vector = list(space.particular)
    for direction in space.basis:
        vector = [x + y for x, y in zip(vector, direction)]
    f = currents.solution_to_morphism(result, V, W, vector)
    report = currents.current_morphism_report(f, V, W, desc["degree_bound"])
    failing = [entry["identity"] for entry in report if entry["status"] != "pass"]
    if failing:
        return f"the rebuilt solution fails {failing}"
    if preimage:
        cfg = incarnate.IncarnationConfig(desc["n"], V.carrier.flavor)
        realized = incarnate.incarnate(f, cfg)
        if realized != exact.ExactMatrix.identity(realized.rows, exact.RATIONAL_RING):
            return "the rebuilt solution does not realize to the identity"
    if headline is not None:
        if result.affine_dimension != headline["affine_dimension"]:
            return (
                f"headline instance has dimension {result.affine_dimension}, "
                f"manifest says {headline['affine_dimension']}"
            )
        if "coefficient" in headline:
            ident = diagrams.identity(item["word"])
            want = ident + diagrams.antisymmetrizer(3).scale(Fraction(headline["coefficient"]))
            got = currents.solution_to_morphism(result, V, W).blocks[0][0]
            if got != want:
                return "headline preimage is not identity + c asym(3) with the manifest's c"
    return None


def solve_digest(output) -> tuple:
    _, _, result = output
    space = result.space
    particular = None if space.particular is None else tuple(str(x) for x in space.particular)
    return (particular, tuple(tuple(str(x) for x in v) for v in space.basis))


# ---------------------------------------------------------------------------
# equivariant


def equivariant_setup() -> dict:
    return {"sl2": equivariant.sl2()}


def _root_of_unity(m: int, power: int):
    if m <= 2:
        return Fraction(-1) ** (power % m)
    return exact.CycloNumber.zeta(m, power)


def _diagonal(m: int, values) -> "exact.ExactMatrix":
    zero = Fraction(0) if m <= 2 else exact.CycloNumber.zero(m)
    size = len(values)
    return exact.ExactMatrix.from_rows(
        [[values[i] if i == j else zero for j in range(size)] for i in range(size)]
    )


def equivariant_run(shared: dict, item: dict):
    m, d, a, b = item["m"], item["d"], item["a"], item["b"]
    group = equivariant.FiniteAbelianGroup((m,))
    lie_alg = shared["sl2"]
    one = _root_of_unity(m, 0)
    lie_act = equivariant.lie_action(
        group, lie_alg, [_diagonal(m, [_root_of_unity(m, a), one, _root_of_unity(m, -a)])]
    )
    algebra = equivariant.truncated_polynomial_algebra(d, m)
    algebra_act = equivariant.algebra_action(
        group, algebra, [_diagonal(m, [_root_of_unity(m, b * k) for k in range(d)])]
    )
    ideal = equivariant.max_ideal(
        algebra,
        [tuple(Fraction(int(k == j)) for k in range(d)) for j in range(1, d)],
    )
    fixed = equivariant.equivariant_map_algebra(lie_alg, algebra, lie_act, algebra_act)
    stabilizer = equivariant.ideal_stabilizer(algebra_act, ideal)
    sub = equivariant.fixed_subalgebra_basis(lie_act, stabilizer.elements)
    c = Fraction(item["rho_scale"])
    rho = [exact.ExactMatrix.from_rows([[c, Fraction(0)], [Fraction(0), -c]]) for _ in sub]
    module = equivariant.equivariant_evaluation_module(fixed, ideal, rho)
    return fixed, stabilizer, module


def expected_fixed_dimension(m: int, d: int, a: int, b: int) -> int:
    """Pairs (sl2 weight, power of t) whose characters cancel: e, h, f carry
    weights a, 0, -a and t^k carries b k, all modulo m."""
    return sum(1 for w in (a, 0, -a) for k in range(d) if (w + b * k) % m == 0)


def equivariant_check(shared: dict, item: dict, output) -> str | None:
    fixed, stabilizer, module = output
    want = expected_fixed_dimension(item["m"], item["d"], item["a"], item["b"])
    if fixed.dimension != want:
        return f"fixed-point dimension {fixed.dimension}, expected {want}"
    if fixed.fixed_point_rank != want:
        return f"projector rank {fixed.fixed_point_rank}, expected {want}"
    if not fixed.bracket_closed:
        return "the fixed-point bracket is not closed"
    if not stabilizer.is_full:
        return "the ideal (t) should be stable under the whole group"
    if len(module.subalgebra_basis) != 1:
        return "the fixed part of sl2 should be the Cartan line"
    if not module.passed:
        return "the evaluation module fails its compatibility report"
    return None


def equivariant_digest(output) -> tuple:
    fixed, stabilizer, module = output
    table = None
    if fixed.bracket_table is not None:
        table = tuple(
            tuple(None if e is None else tuple(str(x) for x in e) for e in row)
            for row in fixed.bracket_table
        )
    return (
        fixed.dimension,
        fixed.fixed_point_rank,
        table,
        stabilizer.elements,
        tuple(tuple(str(x) for x in mat.flatten()) for mat in module.matrices),
        tuple(e["status"] for e in module.report),
    )


class Workload(NamedTuple):
    setup: Callable[[], dict]
    run: Callable[[dict, dict], object]
    check: Callable[[dict, dict, object], "str | None"]
    digest: Callable[[object], tuple]


WORKLOADS = {
    "compat": Workload(compat_setup, compat_run, compat_check, compat_digest),
    "realize": Workload(realize_setup, realize_run, realize_check, realize_digest),
    "solve": Workload(solve_setup, solve_run, solve_check, solve_digest),
    "equivariant": Workload(
        equivariant_setup, equivariant_run, equivariant_check, equivariant_digest
    ),
}
