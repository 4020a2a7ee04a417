"""Independent oracle: ranks of realization maps from invariant theory.

With the stdlib only (no package imports), counts the dimension of the
commutant that the matchings of End(w) realize on (Q^n)^{tensor k}, k = len(w):

  - Oriented words (any mix of u and d): bending strands makes the rank
    independent of the letters, and Schur-Weyl duality for GL(n) gives
    sum over partitions lambda of k with at most n rows of (f^lambda)^2,
    where f^lambda counts standard Young tableaux (hook length formula).
    Equivalently, the permutations of k with no decreasing subsequence
    longer than n (Schensted 1961).
  - Unoriented words: Brauer's theorem for O(n) gives the number of walks of
    length 2k on Young's lattice from the empty partition back to itself,
    adding or removing one box a step, through partitions whose first two
    columns hold at most n boxes together (Brauer 1937; Lehrer-Zhang 2012).

Run:  python tests/oracles/oracle_invariant_rank.py
The printed JSON is frozen into tests/oracles/frozen_invariant_rank.json. It
covers every word length that `curcat kernel` admits (oriented k <= 6,
unoriented k <= 5) at n = 1..k.
"""
from __future__ import annotations

import json
import math


def partitions(k: int, largest: int | None = None):
    """The partitions of k as weakly decreasing tuples."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest or k), 0, -1):
        for rest in partitions(k - part, part):
            yield (part,) + rest


def standard_tableaux(shape: tuple[int, ...]) -> int:
    """f^shape by the hook length formula."""
    columns = shape[0] if shape else 0
    conjugate = [sum(1 for row in shape if row > j) for j in range(columns)]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conjugate[j] - i - 1) + 1
    return math.factorial(sum(shape)) // hooks


def oriented_rank(k: int, n: int) -> int:
    return sum(
        standard_tableaux(shape) ** 2 for shape in partitions(k) if len(shape) <= n
    )


def _orthogonal_ok(shape: tuple[int, ...], n: int) -> bool:
    """The first two columns hold at most n boxes together."""
    return sum(min(row, 2) for row in shape) <= n


def _neighbours(shape: tuple[int, ...]):
    """Partitions one box larger or smaller."""
    rows = list(shape)
    for i in range(len(rows) + 1):
        grown = rows + [0] if i == len(rows) else list(rows)
        if i == 0 or grown[i - 1] > grown[i]:
            grown[i] += 1
            yield tuple(grown)
    for i in range(len(rows)):
        if i == len(rows) - 1 or rows[i] > rows[i + 1]:
            shrunk = list(rows)
            shrunk[i] -= 1
            yield tuple(r for r in shrunk if r)


def unoriented_rank(k: int, n: int) -> int:
    walks = {(): 1}
    for _ in range(2 * k):
        step: dict[tuple[int, ...], int] = {}
        for shape, count in walks.items():
            for nxt in _neighbours(shape):
                if _orthogonal_ok(nxt, n):
                    step[nxt] = step.get(nxt, 0) + count
        walks = step
    return walks.get((), 0)


def main() -> None:
    out = {}
    for k in range(1, 7):
        for n in range(1, k + 1):
            out[f"oriented k={k} n={n}"] = oriented_rank(k, n)
    for k in range(1, 6):
        for n in range(1, k + 1):
            out[f"unoriented k={k} n={n}"] = unoriented_rank(k, n)
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
