"""End-to-end checks for the command-line interface."""
from __future__ import annotations

import json
import math
import time
from pathlib import Path

import pytest

from curcat.cli import KERNEL_HOM_LIMIT, SOLVE_UNKNOWN_LIMIT, _hom_dimension, main
from curcat.diagrams import ASYM_LIMIT, TERM_PAIR_LIMIT, parse_expr, word
from curcat.incarnate import hom_basis

INDUCED_PAIR = {
    "lie": "oriented-gl",
    "V": {"rule": "induced", "word": "uuu", "endo": "id(uuu)"},
    "W": {"rule": "induced", "word": "uuu", "endo": "id(uuu) + asym(3)"},
    "n": 2,
    "degree_bound": 2,
    "target": "identity",
}

EVALUATION_PAIR = {
    "lie": "oriented-gl",
    "V": {"rule": "evaluation", "word": "u", "point": 0},
    "W": {"rule": "evaluation", "word": "u", "point": 0},
    "degree_bound": 2,
}


REPO = Path(__file__).resolve().parents[1]
# Exit code and stdout of report commands, generated at commit 06f0484,
# before the polynomial scalars moved to dense coefficient tuples.
FROZEN_CLI = json.loads((REPO / "tests" / "oracles" / "frozen_cli.json").read_text())


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_frozen(code, out, argv):
    frozen = FROZEN_CLI[" ".join(argv)]
    assert (code, out) == (frozen["exit_code"], frozen["stdout"])


# ---------------------------------------------------------------------------
# normalize


def test_normalize_matches_the_frozen_output(capsys):
    """tests/oracles/frozen_normalize.json holds the stdout of
    `curcat normalize EXPR --format F` for text, json and tikz, generated at
    commit 7e54625, when matchings were still stored as endpoint pairs."""
    frozen = json.loads(
        (Path(__file__).parent / "oracles" / "frozen_normalize.json").read_text()
    )
    assert len(frozen) >= 8
    for expr, outputs in frozen.items():
        for fmt, expected in outputs.items():
            code, out, err = run(capsys, ["normalize", expr, "--format", fmt])
            assert (code, out, err) == (0, expected, ""), (expr, fmt)


def test_normalize_specialized_loop(capsys):
    code, out, _ = run(capsys, ["normalize", "cap(ud) ; cup(ud)", "--delta", "2"])
    assert code == 0
    assert out == "2\n"


def test_normalize_generic_loop(capsys):
    code, out, _ = run(capsys, ["normalize", "cap(ud) ; cup(ud)"])
    assert code == 0
    assert out == "1*delta\n"


def test_normalize_antisymmetrizer_has_six_terms(capsys):
    code, out, _ = run(capsys, ["normalize", "asym(3)"])
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_normalize_symmetric_crossing_squares_to_identity(capsys):
    code, out, _ = run(capsys, ["normalize", "x(u,u) ; x(u,u)"])
    assert code == 0
    assert out == "1 (b0-t0)(b1-t1)\n"


def test_normalize_json_output_is_valid_json(capsys):
    code, out, _ = run(capsys, ["normalize", "cup(ud)", "--format", "json"])
    assert code == 0
    assert json.loads(out)["terms"]


def test_normalize_tikz_output(capsys):
    code, out, _ = run(capsys, ["normalize", "cup(ud)", "--format", "tikz"])
    assert code == 0
    assert "\\begin{tikzpicture}" in out


def test_normalize_rejects_bad_orientation(capsys):
    code, _, err = run(capsys, ["normalize", "cap(uu)"])
    assert code == 2
    assert "error:" in err
    assert "(at position" in err


def test_normalize_rejects_junk_syntax(capsys):
    code, _, err = run(capsys, ["normalize", "cap(ud) .. x"])
    assert code == 2
    assert "unexpected character" in err


def test_normalize_rejects_zero_denominator(capsys):
    code, _, err = run(capsys, ["normalize", "1/0 id(u)"])
    assert code == 2
    assert "zero denominator" in err


def test_normalize_refuses_antisymmetrizers_above_the_bound(capsys):
    code, out, err = run(capsys, ["normalize", f"asym({ASYM_LIMIT + 1})"])
    assert code == 2
    assert out == ""
    assert f"k <= {ASYM_LIMIT}" in err
    assert len(parse_expr(f"asym({ASYM_LIMIT})").terms) == math.factorial(ASYM_LIMIT)


@pytest.mark.parametrize("expr", ["asym(6) ; asym(6)", "asym(6) @ asym(6)"])
def test_normalize_refuses_composites_above_the_bound(capsys, expr):
    code, out, err = run(capsys, ["normalize", expr])
    assert code == 2
    assert out == ""
    assert f"at most {TERM_PAIR_LIMIT}" in err


def test_delta_flag_rejects_junk():
    with pytest.raises(SystemExit) as excinfo:
        main(["normalize", "delta", "--delta", "two"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize("suite", ["lie-axioms", "current", "equivariant"])
def test_verify_suites_pass(capsys, suite):
    argv = ["verify", suite, "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert_frozen(code, out, argv)
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run(capsys, ["verify", suite])
    assert code == 0
    assert "FAIL" not in out
    summary = out.strip().splitlines()[-1]
    assert summary.endswith("checks passed")
    counted, total = summary.split()[0].split("/")
    assert counted == total


def test_verify_json_report_shape(capsys):
    code, out, _ = run(capsys, ["verify", "lie-axioms", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "lie-axioms"
    assert report["status"] == "pass"
    assert report["degree_bound"] == 2
    assert all(entry["status"] == "pass" for entry in report["entries"])
    contexts = {entry["context"] for entry in report["entries"]}
    assert "oriented-gl" in contexts
    assert "unoriented-so" in contexts


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "nope"])
    assert excinfo.value.code == 2


def test_verify_rejects_tikz_format(capsys):
    code, _, err = run(capsys, ["verify", "lie-axioms", "--format", "tikz"])
    assert code == 2
    assert "normalize" in err


# ---------------------------------------------------------------------------
# kernel


def test_kernel_json_report(capsys):
    code, out, _ = run(capsys, ["kernel", "uuuu", "--n", "2", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["word"] == "uuuu"
    assert report["codomain"] == "uuuu"
    assert report["n"] == 2
    assert report["hom_dimension"] == 24
    assert report["rank"] == 14
    assert report["kernel_dimension"] == 10
    assert len(report["basis"]) == 10
    assert all(len(row) == 24 for row in report["basis"])


def test_kernel_text_summary(capsys):
    code, out, _ = run(capsys, ["kernel", "uu", "--n", "3"])
    assert code == 0
    assert "word=uu" in out
    assert "n=3" in out
    assert "kernel_dimension=0" in out


def test_kernel_unoriented_word(capsys):
    code, out, _ = run(capsys, ["kernel", "ss", "--n", "2", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["word"] == "ss"
    assert report["hom_dimension"] == 3


def test_kernel_rejects_bad_letters(capsys):
    code, _, err = run(capsys, ["kernel", "uq"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("word_text", ["uuuuuuu", "udududu", "ssssss"])
def test_kernel_refuses_hom_spaces_above_the_bound(capsys, word_text):
    code, out, err = run(capsys, ["kernel", word_text])
    assert code == 2
    assert out == ""
    assert f"at most {KERNEL_HOM_LIMIT}" in err


@pytest.mark.parametrize(
    "word_text", ["", "u", "ud", "uudu", "ss", "sss", "uuuuuu", "sssss"]
)
def test_end_dimension_counts_the_matchings(word_text):
    w = word(word_text)
    assert _hom_dimension(w, w) == len(hom_basis(w, w))
    assert _hom_dimension(w, w) <= KERNEL_HOM_LIMIT


@pytest.mark.parametrize(
    "w1, w2",
    [("", ""), ("ud", ""), ("uu", ""), ("", "du"), ("udu", "u"), ("uud", "udu"),
     ("uu", "dd"), ("uuu", "u"), ("dud", "uud"), ("s", ""), ("sss", "s"),
     ("ss", "ssss"), ("sss", "ss")],
)
def test_hom_dimension_counts_the_matchings(w1, w2):
    a = word(w1)
    b = word(w2, a.flavor)
    assert _hom_dimension(a, b) == len(hom_basis(a, b))


# ---------------------------------------------------------------------------
# solve


def test_solve_identity_preimage(capsys):
    example = "scripts/solve_input.example.json"
    assert json.loads((REPO / example).read_text()) == INDUCED_PAIR
    code, out, _ = run(
        capsys, ["solve", "--input", str(REPO / example), "--format", "json"]
    )
    assert_frozen(code, out, ["solve", "--input", example, "--format", "json"])
    report = json.loads(out)
    assert report["mode"] == "incarnation-preimage"
    assert report["n"] == 2
    assert report["degree_bound"] == 2
    assert report["truncated"] is True
    assert report["is_consistent"] is True
    assert report["affine_dimension"] == 0
    assert report["unknowns"] == 6


def test_solve_refuses_a_seven_strand_description(capsys, tmp_path):
    # The example with seven strands has 7! = 5040 unknowns; unbounded, it
    # ran for minutes.
    desc = {
        **INDUCED_PAIR,
        "V": {"rule": "induced", "word": "u" * 7, "endo": "id(uuuuuuu)"},
        "W": {"rule": "induced", "word": "u" * 7, "endo": "id(uuuuuuu) + asym(7)"},
    }
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(desc))
    start = time.perf_counter()
    code, out, err = run(capsys, ["solve", "--input", str(path)])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert "5040 unknowns" in err and f"at most {SOLVE_UNKNOWN_LIMIT}" in err


def test_solve_admits_the_example_input(capsys):
    # The bound counts the unknowns the solver then enumerates: 3! on End(uuu).
    example = str(REPO / "scripts" / "solve_input.example.json")
    code, out, _ = run(capsys, ["solve", "--input", example, "--format", "json"])
    assert code == 0
    unknowns = json.loads(out)["unknowns"]
    assert unknowns == _hom_dimension(word("uuu"), word("uuu")) <= SOLVE_UNKNOWN_LIMIT


def test_solve_morphism_space_with_loop_value(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(EVALUATION_PAIR))
    code, out, _ = run(
        capsys, ["solve", "--input", str(path), "--delta", "2", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "morphism-space"
    assert report["delta"] == "2"
    assert report["affine_dimension"] == 1


def test_solve_flags_override_file_values(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({**INDUCED_PAIR, "degree_bound": 1}))
    code, out, _ = run(
        capsys,
        ["solve", "--input", str(path), "--degree-bound", "2", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["degree_bound"] == 2


def test_solve_requires_numeric_loop_for_morphism_space(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(EVALUATION_PAIR))
    code, _, err = run(capsys, ["solve", "--input", str(path)])
    assert code == 2
    assert "--delta" in err


def test_solve_requires_an_input_file(capsys):
    code, _, err = run(capsys, ["solve"])
    assert code == 2
    assert "--input" in err


def test_solve_rejects_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["solve", "--input", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in err


def test_solve_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["solve", "--input", str(path)])
    assert code == 2
    assert "not valid JSON" in err


def test_solve_rejects_missing_rules(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"lie": "oriented-gl", "target": "identity"}))
    code, _, err = run(capsys, ["solve", "--input", str(path)])
    assert code == 2
    assert "'V' and 'W'" in err


def test_solve_rejects_unknown_target(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({**EVALUATION_PAIR, "target": "zero"}))
    code, _, err = run(capsys, ["solve", "--input", str(path)])
    assert code == 2
    assert "identity target" in err


def test_solve_inconsistent_preimage_is_a_failed_check(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {
                "V": {"rule": "trivial", "word": "uu"},
                "W": {"rule": "canonical", "word": "uu"},
                "target": "identity",
            }
        )
    )
    code, out, _ = run(capsys, ["solve", "--input", str(path), "--format", "json"])
    assert code == 1
    report = json.loads(out)
    assert report["is_consistent"] is False
    assert report["affine_dimension"] is None
    code, out, _ = run(capsys, ["solve", "--input", str(path)])
    assert code == 1
    assert "affine_dimension=None" in out


def test_solve_with_no_unknowns_has_the_zero_space(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {
                "V": {"rule": "canonical", "word": ""},
                "W": {"rule": "canonical", "word": "d"},
            }
        )
    )
    code, out, _ = run(
        capsys, ["solve", "--input", str(path), "--delta", "2", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["unknowns"] == 0
    assert report["affine_dimension"] == 0


@pytest.mark.parametrize(
    "desc, message",
    [
        (5, "must be an object"),
        ({**EVALUATION_PAIR, "V": {"rule": "induced"}}, "needs the key 'word'"),
        (
            {**EVALUATION_PAIR, "V": {"rule": "evaluation", "word": "u", "point": "1/0"}},
            "bad 'point'",
        ),
        (
            {**EVALUATION_PAIR, "V": {"rule": "evaluation", "word": "u", "point": None}},
            "bad 'point'",
        ),
        (
            {
                **EVALUATION_PAIR,
                "V": {
                    "rule": "extension",
                    "V": {"rule": "trivial", "word": ""},
                    "W": {"rule": "canonical", "word": "ud"},
                    "degree_bound": -1,
                },
            },
            "degree bound must be nonnegative",
        ),
    ],
)
def test_solve_rejects_malformed_descriptions(capsys, tmp_path, desc, message):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(desc))
    code, _, err = run(capsys, ["solve", "--input", str(path), "--delta", "2"])
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "current", "--degree-bound", "-1"],
        ["verify", "lie-axioms", "--degree-bound", "-1"],
        ["reproduce", "all", "--degree-bound", "-1"],
        ["solve", "--input", "{path}", "--delta", "2"],
    ],
)
def test_negative_degree_bound_is_an_input_error(capsys, tmp_path, argv):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({**EVALUATION_PAIR, "degree_bound": -3}))
    code, out, err = run(capsys, [a.format(path=path) for a in argv])
    assert code == 2
    assert out == ""
    assert "degree bound must be nonnegative" in err


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_single_id(capsys):
    code, out, _ = run(capsys, ["reproduce", "so-image"])
    assert code == 0
    assert "[so-image] pass" in out
    assert "1/1 reproductions passed" in out


def test_reproduce_json_report(capsys):
    argv = ["reproduce", "all", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert_frozen(code, out, argv)
    report = json.loads(out)
    assert report["status"] == "pass"
    keys = {check["key"] for rep in report["reproductions"] for check in rep["checks"]}
    assert "kernel10.kernel_dimension" in keys


def test_reproduce_rejects_unknown_id(capsys):
    code, _, err = run(capsys, ["reproduce", "bogus"])
    assert code == 2
    assert "unknown reproduction" in err


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "uuuu", "--format", "json"],
        ["verify", "equivariant", "--format", "json"],
        ["normalize", "asym(3)", "--format", "json"],
    ],
)
def test_repeated_runs_are_byte_identical(capsys, argv):
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
