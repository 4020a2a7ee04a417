"""Command-line surface for the diagram engine.

Subcommands: ``normalize`` (parse and render an expression), ``verify`` (run
an invariant suite), ``kernel`` (nullspace of the realization map on a hom
space), ``solve`` (morphism-space and preimage solving from a description
file), and ``reproduce`` (recompute the headline values against the stored
manifest). All JSON output is emitted with sorted keys and fixed indentation,
so repeated runs are byte-identical.

Exit codes: 0 when every check in the invocation passed, 1 when a check
failed or a solved system is inconsistent, 2 for input errors (parse errors,
bad flags such as a negative degree bound, malformed files).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from curcat.currents import (
    UnspecializedDeltaError,
    canonical_module,
    check_current_compatibility,
    current_morphism_space,
    dual_current,
    evaluation_module,
    incarnation_preimage_space,
    induced_module,
    lie_object_by_name,
    make_extension,
    rule_from_description,
    tensor_current,
    trivial_current,
    truncated_module,
)
from curcat.diagrams import (
    UNORIENTED,
    ParseError,
    Word,
    crossing,
    parse_expr,
    render,
    word,
)
from curcat.equivariant import (
    Character,
    all_characters,
    isotypic_projector,
    sl2_z2_truncated_setup,
    twisted_evaluation_zero_check,
)
from curcat.exact import ExactMatrix
from curcat.incarnate import (
    IncarnationConfig,
    incarnate,
    kernel_of_incarnation,
    kernel_report_json,
)
from curcat.karoubi import kar_diag, kar_identity
from curcat.lie import (
    adjoint_module,
    check_lie_axioms,
    check_module,
    dual_natural_module,
    gl_object,
    natural_module,
    report_entry,
    report_passed,
    trivial_module,
    unoriented_so_object,
)
from curcat.manifest import REPRODUCTION_IDS, run_reproductions

VERIFY_SUITES = ("lie-axioms", "current", "equivariant")


class CliError(ValueError):
    """Input problem reported with a message instead of a traceback."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved command-line options shared by every subcommand.

    delta is a Fraction, the string "generic", or None (treated as generic);
    n and degree_bound stay None until a command resolves them against its
    input file, falling back to 2 for both.
    """

    delta: Fraction | str | None = None
    n: int | None = None
    degree_bound: int | None = None
    format: str = "text"
    input: str | None = None

    def effective_n(self, file_value=None) -> int:
        return _resolve(self.n, file_value, "n")

    def effective_degree_bound(self, file_value=None) -> int:
        bound = _resolve(self.degree_bound, file_value, "degree_bound")
        if bound < 0:
            raise CliError(f"the degree bound must be nonnegative, not {bound}")
        return bound


def _resolve(flag: int | None, file_value, key: str) -> int:
    """The flag if given, else the file value, else 2."""
    if flag is not None:
        return flag
    if file_value is None:
        return 2
    try:
        return int(file_value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"{key} must be an integer, not {file_value!r}") from exc


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _require_report_format(cfg: RunConfig) -> None:
    if cfg.format not in ("text", "json"):
        raise CliError("tikz output is only available for normalize")


# ---------------------------------------------------------------------------
# normalize


def cmd_normalize(expr: str, cfg: RunConfig) -> int:
    f = parse_expr(expr)
    if cfg.delta not in (None, "generic"):
        f = f.specialize(cfg.delta)
    print(render(f, cfg.format))
    return 0


# ---------------------------------------------------------------------------
# verify


def _suite_lie_axioms(cfg: RunConfig) -> list[dict]:
    gl = gl_object()
    so = unoriented_so_object()
    entries = []
    for context, report in (
        ("oriented-gl", check_lie_axioms(gl)),
        ("unoriented-so", check_lie_axioms(so)),
    ):
        entries.extend({"context": context, **e} for e in report)
    modules = (
        ("natural", natural_module(gl)),
        ("dual-natural", dual_natural_module(gl)),
        ("adjoint", adjoint_module(gl)),
        ("trivial", trivial_module(gl)),
        ("canonical(uu)", canonical_module(gl, "uu")),
        ("canonical(udu)", canonical_module(gl, "udu")),
    )
    for context, module in modules:
        entries.extend({"context": context, **e} for e in check_module(module))
    return entries


def _suite_current(cfg: RunConfig) -> list[dict]:
    bound = cfg.effective_degree_bound()
    gl = gl_object()
    nat = natural_module(gl)
    ev = evaluation_module(2, nat)
    constructions = (
        ("evaluation(2, natural)", ev),
        (
            "induced(canonical(uu), crossing)",
            induced_module(canonical_module(gl, "uu"), kar_diag(crossing("u", "u"))),
        ),
        ("truncated(evaluation, k=2)", truncated_module(ev, 2)),
        ("truncated(evaluation, k=3)", truncated_module(ev, 3)),
        (
            "extension(evaluation, evaluation, tau=action)",
            make_extension(ev, ev, 2, ev.action(0), bound),
        ),
        ("tensor(evaluation, trivial)", tensor_current(ev, trivial_current(gl, "u"))),
        ("dual(evaluation)", dual_current(ev)),
    )
    entries = []
    for context, module in constructions:
        entries.extend(
            {"context": context, **e}
            for e in check_current_compatibility(module, bound)
        )
    return entries


def _suite_equivariant(cfg: RunConfig) -> list[dict]:
    setup = sl2_z2_truncated_setup()
    entries = []
    for context, action in (
        ("lie-action", setup["lie_act"]),
        ("algebra-action", setup["algebra_act"]),
    ):
        projectors = [
            isotypic_projector(action, chi) for chi in all_characters(action.group)
        ]
        total = projectors[0]
        for p in projectors[1:]:
            total = total + p
        complete = total == ExactMatrix.identity(action.dim, total.ring)
        orthogonal = all(
            (p @ q)
            == (p if i == j else ExactMatrix.zeros(action.dim, action.dim, p.ring))
            for i, p in enumerate(projectors)
            for j, q in enumerate(projectors)
        )
        checks = (
            ("projectors-sum-to-identity", complete),
            ("projectors-orthogonal-idempotents", orthogonal),
        )
        entries.extend({"context": context, **report_entry(*c)} for c in checks)
    fixed = setup["fixed_algebra"]
    checks = (
        ("dimension-matches-projector-rank", fixed.dimension == fixed.fixed_point_rank),
        ("bracket-closed", fixed.bracket_closed),
    )
    entries.extend({"context": "fixed-point-algebra", **report_entry(*c)} for c in checks)
    twisted = twisted_evaluation_zero_check(
        setup["algebra"],
        setup["algebra_act"],
        setup["ideal"],
        Character(setup["group"], (1,)),
    )
    entries.extend({"context": "twisted-evaluation", **e} for e in twisted)
    module = setup["module"]
    entries.append(
        {
            "context": "evaluation-module",
            **report_entry(f"compatibility({len(module.report)} pairs)", module.passed),
        }
    )
    return entries


_SUITES = {
    "lie-axioms": _suite_lie_axioms,
    "current": _suite_current,
    "equivariant": _suite_equivariant,
}


def _print_entries(entries: list[dict]) -> None:
    for entry in entries:
        print(f"{entry['status'].upper():>4}  {entry['context']}: {entry['identity']}")
        if entry["status"] != "pass" and "residual" in entry:
            print(f"      residual: {entry['residual']}")
    passed = sum(1 for entry in entries if entry["status"] == "pass")
    print(f"{passed}/{len(entries)} checks passed")


def cmd_verify(suite: str, cfg: RunConfig) -> int:
    _require_report_format(cfg)
    if suite not in _SUITES:
        raise CliError(
            f"unknown suite {suite!r} (choose from {', '.join(VERIFY_SUITES)})"
        )
    bound = cfg.effective_degree_bound()
    entries = _SUITES[suite](cfg)
    ok = report_passed(entries)
    if cfg.format == "json":
        print(
            _dump(
                {
                    "suite": suite,
                    "degree_bound": bound,
                    "entries": entries,
                    "status": "pass" if ok else "fail",
                }
            )
        )
    else:
        _print_entries(entries)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# kernel


# Largest hom dimension `kernel` accepts. The reduction of the hom x hom Gram
# matrix is cubic in it: End(sssss), 945 matchings, is the largest admitted
# and takes about three minutes once n >= 5 makes the Gram matrix full rank.
KERNEL_HOM_LIMIT = 1000


def _hom_dimension(w1: Word, w2: Word) -> int:
    """Matchings from w1 to w2, counted without enumerating them.

    Unoriented: (k+l-1)!! on k+l points, none for an odd total. Oriented: the
    m points where a strand starts (u below, d above) pair with the points
    where one ends (d below, u above), so m! if both counts are m, else none.
    On End(w) these are (2k-1)!! and k! for k = len(w).
    """
    if w1.flavor == UNORIENTED:
        points = len(w1) + len(w2)
        return 0 if points % 2 else math.prod(range(1, points, 2))
    m = w1.count("u") + w2.count("d")
    return math.factorial(m) if m == w1.count("d") + w2.count("u") else 0


def cmd_kernel(word_text: str, cfg: RunConfig) -> int:
    _require_report_format(cfg)
    w = word(word_text)
    size = _hom_dimension(w, w)
    if size > KERNEL_HOM_LIMIT:
        raise CliError(
            f"End({w}) has {size} matchings; kernel admits at most "
            f"{KERNEL_HOM_LIMIT}"
        )
    cfg_n = IncarnationConfig(cfg.effective_n(), w.flavor)
    result = kernel_of_incarnation(w, w, cfg_n)
    report = kernel_report_json(result)
    if cfg.format == "json":
        print(_dump(report))
    else:
        print(
            f"word={report['word']} n={report['n']} "
            f"hom_dimension={report['hom_dimension']} rank={report['rank']} "
            f"kernel_dimension={report['kernel_dimension']}"
        )
    return 0


# ---------------------------------------------------------------------------
# solve


# Largest unknown count `solve` accepts: one unknown per matching between a
# summand of V and one of W. On a 2-core VM the example description with five
# strands (uuuuu, asym(5); 120 unknowns) solves in about 4 s, and with six
# strands (720 unknowns) it was still running after 60 s and 1.4 GB.
SOLVE_UNKNOWN_LIMIT = 150


def cmd_solve(cfg: RunConfig) -> int:
    _require_report_format(cfg)
    if not cfg.input:
        raise CliError("solve needs --input FILE (a module-pair description)")
    try:
        desc = json.loads(Path(cfg.input).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {cfg.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{cfg.input} is not valid JSON: {exc}") from exc
    if not isinstance(desc, dict) or "V" not in desc or "W" not in desc:
        raise CliError(
            "the description must be an object with 'V' and 'W' module rules"
        )
    bound = cfg.effective_degree_bound(desc.get("degree_bound"))
    lie = lie_object_by_name(desc.get("lie", "oriented-gl"))
    V = rule_from_description(lie, desc["V"])
    W = rule_from_description(lie, desc["W"])
    unknowns = sum(
        _hom_dimension(sw, tw) for tw in W.carrier.summands for sw in V.carrier.summands
    )
    if unknowns > SOLVE_UNKNOWN_LIMIT:
        raise CliError(
            f"the system has {unknowns} unknowns; solve admits at most "
            f"{SOLVE_UNKNOWN_LIMIT}"
        )
    target_name = desc.get("target")
    if target_name is not None:
        if target_name != "identity":
            raise CliError("only the identity target is supported")
        n = cfg.effective_n(desc.get("n"))
        inc_cfg = IncarnationConfig(n, lie.carrier.flavor)
        target = incarnate(kar_identity(W.carrier), inc_cfg)
        result = incarnation_preimage_space(V, W, n, target, bound)
        report = {"mode": "incarnation-preimage", "n": n}
    else:
        try:
            result = current_morphism_space(V, W, bound, delta=cfg.delta)
        except UnspecializedDeltaError as exc:
            raise CliError(
                "the morphism-space solver needs a numeric loop value "
                "(pass --delta P/Q)"
            ) from exc
        report = {"mode": "morphism-space", "delta": str(cfg.delta)}
    consistent = result.is_consistent
    report.update(
        degree_bound=bound,
        truncated=True,
        unknowns=len(result.basis_diagrams),
        is_consistent=consistent,
        affine_dimension=result.affine_dimension if consistent else None,
    )
    if cfg.format == "json":
        print(_dump(report))
    else:
        for key in sorted(report):
            print(f"{key}={report[key]}")
    return 0 if consistent else 1


# ---------------------------------------------------------------------------
# reproduce


def cmd_reproduce(reproduction: str, cfg: RunConfig) -> int:
    _require_report_format(cfg)
    if reproduction == "all":
        ids = REPRODUCTION_IDS
    elif reproduction in REPRODUCTION_IDS:
        ids = (reproduction,)
    else:
        raise CliError(
            f"unknown reproduction {reproduction!r} "
            f"(choose from all, {', '.join(REPRODUCTION_IDS)})"
        )
    reports = run_reproductions(ids, degree_bound=cfg.effective_degree_bound())
    ok = report_passed(reports)
    if cfg.format == "json":
        print(_dump({"reproductions": reports, "status": "pass" if ok else "fail"}))
    else:
        for report in reports:
            print(f"[{report['reproduction']}] {report['status']}")
            for check in report["checks"]:
                print(
                    f"  {check['status'].upper():>4}  {check['key']} "
                    f"[{check['origin']}]  expected={json.dumps(check['expected'])}  "
                    f"computed={json.dumps(check['computed'])}"
                )
        passed = sum(1 for report in reports if report["status"] == "pass")
        print(f"{passed}/{len(reports)} reproductions passed")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _delta_flag(text: str):
    if text == "generic":
        return "generic"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"delta must be a rational number or 'generic', not {text!r}"
        ) from exc


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--delta",
        type=_delta_flag,
        default=None,
        help="loop value: a rational like 2 or 5/3, or 'generic' (the default)",
    )
    shared.add_argument(
        "--n", type=int, default=None, help="realization dimension (default 2)"
    )
    shared.add_argument(
        "--degree-bound",
        type=int,
        default=None,
        dest="degree_bound",
        help="largest checked action degree (default 2)",
    )
    shared.add_argument(
        "--format",
        choices=("text", "json", "tikz"),
        default="text",
        help="output format (tikz is normalize-only)",
    )
    shared.add_argument(
        "--input", default=None, help="path to a JSON description file"
    )
    parser = argparse.ArgumentParser(
        prog="curcat",
        description="exact diagram calculus for current modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "normalize", parents=[shared], help="parse an expression and print its normal form"
    )
    p.add_argument("expr", help="diagram expression, e.g. 'cap(ud) ; cup(ud)'")
    p = sub.add_parser(
        "verify", parents=[shared], help="run an invariant suite and report pass/fail"
    )
    p.add_argument("suite", choices=VERIFY_SUITES)
    p = sub.add_parser(
        "kernel", parents=[shared], help="kernel of the realization map on a word's endomorphisms"
    )
    p.add_argument("word", help="boundary word, e.g. uuuu (letters u, d, s)")
    p = sub.add_parser(
        "solve", parents=[shared], help="solve a morphism space from --input FILE"
    )
    p = sub.add_parser(
        "reproduce", parents=[shared], help="recompute headline values against the manifest"
    )
    p.add_argument("id", help="all, " + ", ".join(REPRODUCTION_IDS))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        delta=args.delta,
        n=args.n,
        degree_bound=args.degree_bound,
        format=args.format,
        input=args.input,
    )
    try:
        if args.command == "normalize":
            return cmd_normalize(args.expr, cfg)
        if args.command == "verify":
            return cmd_verify(args.suite, cfg)
        if args.command == "kernel":
            return cmd_kernel(args.word, cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_reproduce(args.id, cfg)
    except (CliError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
