"""Seeded input generators for the four workloads.

Every generator returns plain data only: word strings, expression strings,
rule dicts, and group and algebra parameters. The library never sees the
random generator. Each workload runs a fixed round-robin of size classes;
the seed picks the inputs inside each class, so it changes which inputs run
but not how much work they take. ``cycle(workload, rng)`` returns one full
round-robin, drawing fresh inputs for every op.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("compat", "realize", "solve", "equivariant")

# ---------------------------------------------------------------------------
# compat: build a current module over an oriented word of length <= 3 and
# check the compatibility identity at degree bound 4, generic delta.

COMPAT_KINDS = ("evaluation", "truncated2", "truncated3", "dual", "induced", "extension", "tensor")
COMPAT_LENGTHS = (1, 2, 3)
COMPAT_DEGREE_BOUND = 4
# Points other than 0 and +-1: at 0 every positive degree acts by zero and at
# +-1 every degree repeats degree 0 up to sign, which would make ops cheaper.
POINTS = ("2", "3", "-2", "-3", "1/2", "-1/3", "3/2", "-2/3")
TWIST_COEFFS = ("1", "2", "3", "-1", "1/2", "-3/2")


def oriented_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("ud") for _ in range(length))


def twist_expr(rng: random.Random, text: str) -> str:
    """A module endomorphism of the canonical module on ``text``: the
    identity plus a multiple of a crossing of two equal adjacent letters or
    of the trace projection cup ; cap on two opposite adjacent letters."""
    c = rng.choice(TWIST_COEFFS)
    if len(text) < 2:
        return f"{c} id({text})"
    i = rng.randrange(len(text) - 1)
    a, b = text[i], text[i + 1]
    prefix = f"id({text[:i]}) @ " if text[:i] else ""
    suffix = f" @ id({text[i + 2:]})" if text[i + 2:] else ""
    middle = f"x({a},{b})" if a == b else f"(cup({a}{b}) ; cap({a}{b}))"
    return plus_term(f"id({text})", c, f"({prefix}{middle}{suffix})")


def plus_term(base: str, coeff: str, expr: str) -> str:
    """``base + coeff expr`` in the expression language, which takes a sign
    only in front of a term."""
    if coeff.startswith("-"):
        return f"{base} - {coeff[1:]} {expr}"
    return f"{base} + {coeff} {expr}"


def compat_item(rng: random.Random, kind: str, length: int) -> dict:
    item = {"kind": kind, "length": length, "point": rng.choice(POINTS)}
    if kind == "tensor":
        if length == 1:
            item["V"] = oriented_word(rng, 1)
            item["W"] = oriented_word(rng, 1)
            item["W_trivial"] = True
        else:
            split = 1 if length == 2 else rng.choice((1, 2))
            item["V"] = oriented_word(rng, split)
            item["W"] = oriented_word(rng, length - split)
            item["W_trivial"] = False
        item["W_point"] = rng.choice(POINTS)
        return item
    item["word"] = oriented_word(rng, length)
    if kind == "induced":
        item["endo"] = twist_expr(rng, item["word"])
    return item


def compat_cycle(rng: random.Random) -> list[dict]:
    return [compat_item(rng, kind, length) for length in COMPAT_LENGTHS for kind in COMPAT_KINDS]


# ---------------------------------------------------------------------------
# realize: the realization kernel on an endomorphism space. Four size
# classes, 20 ops a cycle: oriented length 4 at n=2 (11 ops), oriented length
# 3 at n=3 (5), sss at n=3 (3) and ssss at n=2 (1). rref carries the bulk of
# the time. The shares put each reported quantile well inside one class,
# where its value does not hinge on a few tail ops: the median at 45% of the
# oriented-4 class (25%-80% of ops), the 0.9 quantile at 67% of the sss
# class (80%-95%).

_O4, _O3, _SSS, _SSSS = ("oriented4", 2), ("oriented3", 3), ("sss", 3), ("ssss", 2)
REALIZE_CYCLE = (
    _O4, _O3, _O4, _SSS, _O4, _O3, _O4, _SSSS, _O4, _O3,
    _O4, _SSS, _O4, _O3, _O4, _SSS, _O4, _O3, _O4, _O4,
)


def realize_item(rng: random.Random, cls: str, n: int) -> dict:
    if cls == "oriented4":
        text = oriented_word(rng, 4)
    elif cls == "oriented3":
        text = oriented_word(rng, 3)
    else:
        text = cls
    return {"class": cls, "word": text, "n": n}


def realize_cycle(rng: random.Random) -> list[dict]:
    return [realize_item(rng, cls, n) for cls, n in REALIZE_CYCLE]


# ---------------------------------------------------------------------------
# solve: morphism spaces between two induced modules whose twists come from
# the paper's families. uuu and uuuu run 3:1; modes alternate. Each cycle
# position fixes the word, the mode and the two twist families ("id" is the
# untwisted module); the seed picks the nonzero family coefficients. The
# positions include the paper's headline shapes (c-minus-1, dims-6-4), which
# the coefficient 1 turns into the headline instances, and pairs whose
# preimage systems are inconsistent.

SOLVE_DEGREE_BOUND = 2
SOLVE_N = 2
SOLVE_DELTA = "2"
SOLVE_COEFFS = ("1", "1", "1", "-1", "2", "1/2")

FAMILIES = {
    "id": "",
    "asym": "asym(3)",
    "cross-left": "(x(u,u) @ id(u))",
    "cross-right": "(id(u) @ x(u,u))",
    "first-three": "(asym(3) @ id(u))",
    "last-three": "(id(u) @ asym(3))",
    "crossed": "((asym(3) @ id(u)) ; (id(uu) @ x(u,u)))",
}

SOLVE_CYCLE = (
    ("uuu", "preimage", "id", "asym"),
    ("uuu", "morphism", "asym", "asym"),
    ("uuu", "preimage", "asym", "asym"),
    ("uuuu", "preimage", "first-three", "last-three"),
    ("uuu", "morphism", "cross-left", "asym"),
    ("uuu", "preimage", "cross-right", "cross-left"),
    ("uuu", "morphism", "id", "cross-right"),
    ("uuuu", "morphism", "first-three", "last-three"),
    ("uuu", "preimage", "asym", "cross-left"),
    ("uuu", "morphism", "cross-left", "cross-right"),
    ("uuu", "preimage", "cross-left", "asym"),
    ("uuuu", "preimage", "first-three", "crossed"),
    ("uuu", "morphism", "asym", "id"),
    ("uuu", "preimage", "cross-right", "cross-right"),
    ("uuu", "morphism", "cross-right", "asym"),
    ("uuuu", "morphism", "first-three", "crossed"),
)


def twist_from_family(text: str, family: str, coeff: str) -> str:
    if family == "id":
        return f"id({text})"
    if coeff == "1":
        return f"id({text}) + {FAMILIES[family]}"
    return plus_term(f"id({text})", coeff, FAMILIES[family])


def solve_item(rng: random.Random, text: str, mode: str, v_family: str, w_family: str) -> dict:
    coeffs = [rng.choice(SOLVE_COEFFS), rng.choice(SOLVE_COEFFS)]
    desc = {
        "lie": "oriented-gl",
        "V": {"rule": "induced", "word": text,
              "endo": twist_from_family(text, v_family, coeffs[0])},
        "W": {"rule": "induced", "word": text,
              "endo": twist_from_family(text, w_family, coeffs[1])},
        "degree_bound": SOLVE_DEGREE_BOUND,
    }
    if mode == "preimage":
        desc["target"] = "identity"
        desc["n"] = SOLVE_N
    else:
        desc["delta"] = SOLVE_DELTA
    return {
        "mode": mode,
        "word": text,
        "families": [v_family, w_family],
        "coeffs": coeffs,
        "description": desc,
    }


def solve_cycle(rng: random.Random) -> list[dict]:
    return [solve_item(rng, *position) for position in SOLVE_CYCLE]


# ---------------------------------------------------------------------------
# equivariant: Z_m acting on sl2 by e -> z^a e, f -> z^-a f and on
# Q(z)[t]/(t^d) by t -> z^b t. The size class is (m, d).

EQUIVARIANT_ORDERS = (2, 3, 4, 6)
EQUIVARIANT_DEGREES = (3, 4, 5)


def equivariant_item(rng: random.Random, m: int, d: int) -> dict:
    # a and b are units modulo m: for m in (2, 3, 4, 6) the units are +-1,
    # so every draw gives the same fixed-point dimension and the same work
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    return {
        "m": m,
        "d": d,
        "a": rng.choice(units),
        "b": rng.choice(units),
        "rho_scale": rng.choice((1, 2, 3, -1)),
    }


# Every (m, d) pair once, then the cheapest (2, 3) and the dearest (6, 5) a
# second time, so that each reported quantile sits well inside a group of
# classes and does not jump between groups from run to run: the median
# inside (3, 4), (6, 3), (4, 4), which take about the same time (36%-57% of
# ops), the 0.9 quantile at 30% of the (6, 5) class (86%-100%).
EQUIVARIANT_CYCLE = tuple(
    (EQUIVARIANT_ORDERS[i % 4], EQUIVARIANT_DEGREES[i % 3]) for i in range(12)
) + ((2, 3), (6, 5))


def equivariant_cycle(rng: random.Random) -> list[dict]:
    return [equivariant_item(rng, m, d) for m, d in EQUIVARIANT_CYCLE]


_CYCLES = {
    "compat": compat_cycle,
    "realize": realize_cycle,
    "solve": solve_cycle,
    "equivariant": equivariant_cycle,
}


def make_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def cycle(workload: str, rng: random.Random) -> list[dict]:
    return _CYCLES[workload](rng)


# The warm-up op of each workload is fixed, so set-up time does not depend
# on the seed.
def warmup_item(workload: str) -> dict:
    return cycle(workload, make_rng(workload, 0))[0]
