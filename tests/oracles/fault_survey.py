"""Apply one-line faults to a copy of the repository and see whether tier-1
catches each one.

A fault replaces one piece of text in one source file with a wrong variant
that still runs. For each fault the script copies the repository into a
temporary directory, applies the fault there, runs the tier-1 tests with
``-x`` in the copy, and prints ``killed`` (a test failed), ``survived``
(every test passed) or ``error`` (pytest could not run). The repository
itself is never written to. pytest does not collect this file.

A surviving fault marks behaviour that no test pins. The fault whose name
ends in "equivalent" changes nothing observable: every closed loop of a
composite passes through at least two middle points, so starting the loop
count one point later still finds each loop. It is kept as a control.

Run:  python tests/oracles/fault_survey.py [fault name ...]
With no names, every fault runs. Each run takes up to the time of one
tier-1 pass, so the whole list takes several minutes.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

# (name, path, old text, new text); the old text occurs exactly once in the
# file, and differs from the new text on one line only.
FAULTS = [
    (
        "gram-loop-walk-marks-one-endpoint-too-few",
        "src/curcat/incarnate.py",
        "            y = p[x]\n            seen[y] = True\n",
        "            y = p[x]\n            pass\n",
    ),
    (
        "projector-uses-chi-for-chi-bar",
        "src/curcat/equivariant.py",
        "_promote_scalar(chi.inverse_value(g), ring)",
        "_promote_scalar(chi.value(g), ring)",
    ),
    (
        "truncated-rule-binomial",
        "src/curcat/currents.py",
        "coeff = Fraction(math.comb(n, i - j))",
        "coeff = Fraction(math.comb(n, i))",
    ),
    (
        "extension-rule-factor-n",
        "src/curcat/currents.py",
        "coeff = Fraction(n) * (a ** (n - 1)",
        "coeff = Fraction(1) * (a ** (n - 1)",
    ),
    (
        "extension-rule-point-power",
        "src/curcat/currents.py",
        "(a ** (n - 1) if n > 1 else Fraction(1))",
        "(a ** n if n > 1 else Fraction(1))",
    ),
    (
        "evaluation-point-power",
        "src/curcat/currents.py",
        "scale = Fraction(rule.point) ** n if n else Fraction(1)",
        "scale = Fraction(rule.point) ** (n - 1) if n else Fraction(1)",
    ),
    (
        "tensor-object-summand-order",
        "src/curcat/karoubi.py",
        "summands = tuple(x + y for x in a.summands for y in b.summands)",
        "summands = tuple(x + y for y in b.summands for x in a.summands)",
    ),
    (
        "evaluation-module-zero-scalar-branch",
        "src/curcat/equivariant.py",
        "if index is not None and scalar else zero",
        "if index is not None and not scalar else zero",
    ),
    (
        "compat-degree-range",
        "src/curcat/currents.py",
        "for n_deg in range(degree_bound + 1 - m_deg):",
        "for n_deg in range(degree_bound - m_deg):",
    ),
    (
        "compose-loop-count-skips-loops-on-the-first-two-middle-points",
        "src/curcat/diagrams.py",
        "    for m in range(a, end_mid):\n",
        "    for m in range(a + 2, end_mid):\n",
    ),
    (
        "compose-loop-count-starts-at-a-plus-one-equivalent",
        "src/curcat/diagrams.py",
        "    for m in range(a, end_mid):\n",
        "    for m in range(a + 1, end_mid):\n",
    ),
    (
        "morphism-rows-at-delta-plus-one",
        "src/curcat/currents.py",
        "col[index[(bi, bj, p)]] = c.evaluate(delta)",
        "col[index[(bi, bj, p)]] = c.evaluate(delta + 1)",
    ),
    (
        "morphism-system-drops-absorption-rows",
        "src/curcat/currents.py",
        "if not (_is_plain(V.carrier) and _is_plain(W.carrier)):",
        "if False:",
    ),
    (
        "morphism-system-skips-the-top-degree",
        "src/curcat/currents.py",
        "    for n in range(degree_bound + 1):\n        residuals = ",
        "    for n in range(degree_bound):\n        residuals = ",
    ),
    (
        "morphism-report-skips-the-top-degree",
        "src/curcat/currents.py",
        "for n in range(degree_bound + 1)\n    ]",
        "for n in range(degree_bound)\n    ]",
    ),
    (
        "stabilizer-compares-the-last-coordinate-only",
        "src/curcat/equivariant.py",
        "if all(x * ev[k] == moved[k] * e for x, e in zip(moved, ev)):",
        "if all(x * ev[k] == moved[k] * e for x, e in zip(moved[-1:], ev[-1:])):",
    ),
    (
        "so-image-bracket-checks-the-first-basis-matrix-only",
        "src/curcat/incarnate.py",
        "    for x in skew_basis:\n",
        "    for x in skew_basis[:1]:\n",
    ),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def apply_fault(root: Path, path: str, old: str, new: str) -> None:
    target = root / path
    text = target.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: the fault's old text occurs {text.count(old)} times")
    target.write_text(text.replace(old, new))


def run_fault(path: str, old: str, new: str) -> tuple[str, str, float]:
    """Status, the first failing test (if any), and seconds taken."""
    with tempfile.TemporaryDirectory(prefix="curcat-fault-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(
            REPO,
            root,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                          ".hypothesis", ".perfbench_out"),
        )
        apply_fault(root, path, old, new)
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    failed = next((line for line in lines if line.startswith(("FAILED", "ERROR"))), "")
    status = {0: "survived", 1: "killed"}.get(proc.returncode, f"error (exit {proc.returncode})")
    return status, failed, seconds


def main(names: list[str]) -> None:
    chosen = [f for f in FAULTS if not names or f[0] in names]
    for name, path, old, new in chosen:
        status, failed, seconds = run_fault(path, old, new)
        print(f"{status:9} {seconds:6.1f}s  {name}  {failed}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
