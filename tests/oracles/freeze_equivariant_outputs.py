"""Freeze the text of the equivariant backend's outputs.

Unlike the sympy oracles beside it, this file holds no independent
evidence: it records what ``curcat.equivariant`` printed when it was frozen,
so that a change to the backend's internals shows up as a byte difference.
It covers

  - Z_m acting on sl2 by e -> z^a e, f -> z^-a f and on Q(z)[t]/(t^d) by
    t -> z^b t, for m in 2, 3, 4, 6, d in 3, 4, 5 and a = b = 1 or -1: the
    bracket table, the projector rank, the stabilizer of the ideal (t), and
    the evaluation module's matrices and report;
  - every group matrix and isotypic basis of a Z2 x Z2 action and a
    Z2 x Z3 action, which pin the element order for several factors;
  - the standard output of scripts/equivariant_demo.py.

Run:  PYTHONPATH=src python tests/oracles/freeze_equivariant_outputs.py
Outputs frozen into tests/oracles/frozen_equivariant_outputs.json.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from fractions import Fraction
from pathlib import Path

from curcat.equivariant import (
    FiniteAbelianGroup,
    algebra_action,
    all_characters,
    equivariant_evaluation_module,
    equivariant_map_algebra,
    fixed_subalgebra_basis,
    group_action,
    ideal_stabilizer,
    isotypic_basis,
    lie_action,
    max_ideal,
    sl2,
    truncated_polynomial_algebra,
)
from curcat.exact import CycloNumber, ExactMatrix

REPO = Path(__file__).resolve().parents[2]
FROZEN = Path(__file__).with_name("frozen_equivariant_outputs.json")


def _root(m: int, power: int):
    return Fraction(-1) ** (power % m) if m <= 2 else CycloNumber.zeta(m, power)


def _diagonal(m: int, values) -> ExactMatrix:
    zero = Fraction(0) if m <= 2 else CycloNumber.zero(m)
    n = len(values)
    return ExactMatrix.from_rows(
        [[values[i] if i == j else zero for j in range(n)] for i in range(n)]
    )


def _cyclic_case(lie, m: int, d: int, a: int, b: int) -> dict:
    group = FiniteAbelianGroup((m,))
    lie_act = lie_action(group, lie, [_diagonal(m, [_root(m, a), _root(m, 0), _root(m, -a)])])
    algebra = truncated_polynomial_algebra(d, m)
    algebra_act = algebra_action(group, algebra, [_diagonal(m, [_root(m, b * k) for k in range(d)])])
    ideal = max_ideal(algebra, [tuple(Fraction(int(k == j)) for k in range(d)) for j in range(1, d)])
    fixed = equivariant_map_algebra(lie, algebra, lie_act, algebra_act)
    stabilizer = ideal_stabilizer(algebra_act, ideal)
    sub = fixed_subalgebra_basis(lie_act, stabilizer.elements)
    rho = [ExactMatrix.from_rows([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]) for _ in sub]
    module = equivariant_evaluation_module(fixed, ideal, rho)
    return {
        "bracket_table": str(fixed.bracket_table),
        "fixed_point_rank": str(fixed.fixed_point_rank),
        "stabilizer": str(stabilizer.elements),
        "module_matrices": [str(mat.entries) for mat in module.matrices],
        "module_report": str(module.report),
    }


def _action_case(group: FiniteAbelianGroup, generators) -> dict:
    action = group_action(group, generators)
    return {
        "matrix_of": {str(g): str(action.matrix_of(g).entries) for g in group.elements()},
        "isotypic_basis": {
            str(chi.exponents): str(isotypic_basis(action, chi))
            for chi in all_characters(group)
        },
    }


def _demo_stdout() -> str:
    spec = importlib.util.spec_from_file_location(
        "equivariant_demo", REPO / "scripts" / "equivariant_demo.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = demo.main()
    return f"exit {code}\n{out.getvalue()}"


def outputs() -> dict:
    lie = sl2()
    cases = {
        f"m={m} d={d} a=b={s}": _cyclic_case(lie, m, d, s, s)
        for m in (2, 3, 4, 6)
        for d in (3, 4, 5)
        for s in (1, -1)
    }
    q = Fraction
    z2xz2 = _action_case(
        FiniteAbelianGroup((2, 2)),
        [
            ExactMatrix.from_rows([[q(-1), q(0), q(0)], [q(0), q(-1), q(0)], [q(0), q(0), q(1)]]),
            ExactMatrix.from_rows([[q(0), q(1), q(0)], [q(1), q(0), q(0)], [q(0), q(0), q(-1)]]),
        ],
    )
    rotate = [[q(int(j == (i + 1) % 3)) for j in range(3)] + [q(0)] for i in range(3)]
    z2xz3 = _action_case(
        FiniteAbelianGroup((2, 3)),
        [
            _diagonal(2, [q(-1), q(-1), q(-1), q(1)]),
            ExactMatrix.from_rows(rotate + [[q(0), q(0), q(0), q(1)]]),
        ],
    )
    return {"cyclic": cases, "z2xz2": z2xz2, "z2xz3": z2xz3, "demo_stdout": _demo_stdout()}


def render() -> str:
    return json.dumps(outputs(), indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    FROZEN.write_text(render())
