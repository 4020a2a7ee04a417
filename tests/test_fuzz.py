"""Fuzzing of the command-line input paths: every `normalize` expression and
every `solve` description ends in exit code 0, 1 or 2, never in an exception.

Words have at most two letters and numbers stay small, because `kernel` and
`solve` have no size guard yet and a large input is a long run, not an error.
"""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from curcat.cli import main

FUZZ = settings(max_examples=25, deadline=None, derandomize=True, database=None)

WORDS = st.text(alphabet="uds", max_size=2)
SMALL = st.integers(min_value=-1, max_value=3)
COEFFS = st.sampled_from(["2", "1/2", "0", "1/0", "-3", "2 *"])

ATOMS = st.one_of(
    st.just("delta"),
    WORDS.map(lambda w: f"id({w})"),
    st.tuples(st.sampled_from(["cap", "cup"]), WORDS).map(lambda t: f"{t[0]}({t[1]})"),
    st.tuples(st.sampled_from("udsq"), st.sampled_from("uds")).map(
        lambda t: f"x({t[0]},{t[1]})"
    ),
    SMALL.map(lambda k: f"asym({k})"),
    st.tuples(st.lists(SMALL, max_size=2), WORDS).map(
        lambda t: f"perm[{','.join(map(str, t[0]))}]({t[1]})"
    ),
)

EXPRESSIONS = st.one_of(
    st.recursive(
        ATOMS,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from([" @ ", " ; ", " + ", " - "]), inner).map(
                "".join
            ),
            inner.map(lambda e: f"({e})"),
            st.tuples(COEFFS, inner).map(" ".join),
        ),
        max_leaves=4,
    ),
    st.text(alphabet="uds()[],;@+-*/0123 capidelt", max_size=16),
)


@FUZZ
@given(EXPRESSIONS, st.sampled_from([[], ["--delta", "2"], ["--format", "json"]]))
def test_normalize_never_raises(expr, flags):
    assert main(["normalize", *flags, "--", expr]) in (0, 1, 2)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    SMALL,
    st.sampled_from(["1/2", "1/0", "x", "", "2"]),
    st.just(float("inf")),
    st.lists(SMALL, max_size=1),
)
VALUES = st.one_of(SCALARS, WORDS, EXPRESSIONS)
RULE_NAMES = st.sampled_from(
    [
        "trivial",
        "canonical",
        "evaluation",
        "induced",
        "truncated",
        "extension",
        "tensor",
        "dual",
        "explicit",
        "bogus",
    ]
)
RULE_KEYS = st.sampled_from(["word", "point", "endo", "k", "tau", "degree_bound"])
FLAT_RULES = st.one_of(
    st.tuples(RULE_NAMES, st.dictionaries(RULE_KEYS, VALUES, max_size=3)).map(
        lambda t: {"rule": t[0], **t[1]}
    ),
    st.fixed_dictionaries(
        {
            "rule": st.sampled_from(["canonical", "evaluation", "trivial"]),
            "word": WORDS,
            "point": st.sampled_from([0, 1, "1/2"]),
        }
    ),
    st.fixed_dictionaries(
        {
            "rule": st.just("explicit"),
            "word": WORDS,
            "actions": st.dictionaries(st.sampled_from(["0", "1", "x"]), VALUES, max_size=2),
        }
    ),
    SCALARS,
)
RULES = st.one_of(
    FLAT_RULES,
    st.tuples(
        st.sampled_from(["truncated", "extension", "tensor", "dual"]),
        FLAT_RULES,
        FLAT_RULES,
        st.sampled_from([1, 2]),
    ).map(lambda t: {"rule": t[0], "inner": t[1], "V": t[1], "W": t[2], "k": t[3]}),
)
DESCRIPTIONS = st.one_of(
    st.fixed_dictionaries(
        {"V": RULES, "W": RULES},
        optional={
            "lie": st.sampled_from(["oriented-gl", "unoriented-so", "bogus"]),
            "target": st.sampled_from(["identity", "zero", None]),
            "n": st.one_of(st.sampled_from([1, 2]), SCALARS),
            "degree_bound": st.one_of(st.sampled_from([0, 1]), SCALARS),
        },
    ),
    SCALARS,
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "pair.json"


@FUZZ
@given(DESCRIPTIONS, st.sampled_from([[], ["--delta", "2"], ["--n", "1"]]))
def test_solve_never_raises(input_path, desc, flags):
    input_path.write_text(json.dumps(desc))
    assert main(["solve", "--input", str(input_path), *flags]) in (0, 1, 2)
