"""Matrix realizations of the diagram categories.

For a chosen dimension n, every word maps to the n^len tensor-power space
and every matching maps to the 0/1 tensor whose entries are products of
Kronecker deltas over its pairs. Up and down strands both land on the base
space (the dual is identified through the standard basis), and the
unoriented pairing is the identity bilinear form. Loops evaluate to n, so
delta-polynomial coefficients specialize at n before entering a matrix.

Multi-index flattening is row-major with the leftmost tensor factor most
significant; hom spaces flatten codomain-major (row index first). A
morphism realizes in one pass: each term adds its coefficient at n to the
n^pairs entries of its matching in a single grid, at its block's offset
for an envelope morphism.

Kernels of the realization map never build those matrices. Let M be the
matrix whose columns are the flattened realizations of the matchings of a
hom space. Over Q, M and its Gram matrix G = M^T M have the same rank and
the same null space, and the entry of G at (i, j) is n raised to the number
of closed loops in the union of matchings i and j (Brauer's pairing): a
joint index assignment must be constant along each loop. The row spaces of
M and G agree, so their reduced echelon forms have the same nonzero rows,
and the kernel basis read off from G is the one M would give.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import accumulate, permutations, product as iproduct

from curcat.diagrams import (
    ORIENTED,
    UNORIENTED,
    DiagMorphism,
    DiagramTypeError,
    Matching,
    Word,
    all_matchings,
    antisymmetrizer,
    compose,
    permutation_diagram,
    tensor,
    word,
)
from curcat.exact import (
    RATIONAL_RING,
    ExactMatrix,
    _null_vectors,
    matrix_from_columns,
    rref,
)
from curcat.karoubi import KarMorphism, kar_diag
from curcat.lie import report_entry, unoriented_so_object


@dataclasses.dataclass(frozen=True)
class IncarnationConfig:
    """Target dimension and flavor for the matrix realization."""

    n: int
    flavor: str = ORIENTED

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if self.flavor not in (ORIENTED, UNORIENTED):
            raise ValueError(f"unknown flavor {self.flavor!r}")

    def space_dim(self, w: Word) -> int:
        return self.n ** len(w)


def hom_basis(w1: Word | str, w2: Word | str) -> list[Matching]:
    """All matchings from w1 to w2 in deterministic order."""
    w1 = w1 if isinstance(w1, Word) else word(w1)
    w2 = w2 if isinstance(w2, Word) else word(w2)
    return all_matchings(w1, w2)


def incarnate_matching(m: Matching, cfg: IncarnationConfig) -> ExactMatrix:
    """The 0/1 matrix of a single matching."""
    return incarnate(DiagMorphism.from_matching(m), cfg)


def incarnate(f: DiagMorphism | KarMorphism, cfg: IncarnationConfig) -> ExactMatrix:
    """Linearly extend the matching realization; loops become n.

    Envelope morphisms map to block matrices over the direct sum of the
    summand spaces, and a diagram morphism is the one block between its
    words; every term of every block is written into one grid.
    """
    if isinstance(f, DiagMorphism):
        f = kar_diag(f)
    row_offsets = list(accumulate(map(cfg.space_dim, f.target.summands), initial=0))
    col_offsets = list(accumulate(map(cfg.space_dim, f.source.summands), initial=0))
    grid = [[Fraction(0)] * col_offsets[-1] for _ in range(row_offsets[-1])]
    for row, r0 in zip(f.blocks, row_offsets):
        for block, c0 in zip(row, col_offsets):
            for partner, coeff in block.partner_terms:
                value = coeff.evaluate(Fraction(cfg.n))
                if value:
                    _add_matching(grid, partner, len(block.domain), cfg.n, value, r0, c0)
    return ExactMatrix(grid, RATIONAL_RING, cols=col_offsets[-1])


def _add_matching(grid, partner, k: int, n: int, value, r0: int, c0: int) -> None:
    """Add value at the n^pairs entries of one matching, offset by (r0, c0):
    both ends of a pair carry its one free index, and endpoint x is the digit
    of weight n^(k-1-x) of the column (bottom, x < k) or n^(last-x) of the row.
    """
    last = len(partner) - 1
    weights = []
    for x, y in enumerate(partner):
        if x < y:
            row = sum(n ** (last - e) for e in (x, y) if e >= k)
            col = sum(n ** (k - 1 - e) for e in (x, y) if e < k)
            weights.append((row, col))
    for assignment in iproduct(range(n), repeat=len(weights)):
        r, c = r0, c0
        for v, (wr, wc) in zip(assignment, weights):
            r += v * wr
            c += v * wc
        grid[r][c] += value


# ---------------------------------------------------------------------------
# kernels


@dataclasses.dataclass(frozen=True)
class KernelResult:
    """Exact kernel of the realization map on one hom space."""

    domain: Word
    codomain: Word
    n: int
    matchings: tuple[Matching, ...]
    hom_dimension: int
    rank: int
    kernel_dimension: int
    basis: tuple[tuple[Fraction, ...], ...]


def kernel_of_incarnation(
    w1: Word | str, w2: Word | str, cfg: IncarnationConfig
) -> KernelResult:
    """Kernel of (matching coefficients) -> (flattened matrices).

    Computed from the Gram matrix of the realizations (see the module
    docstring): rank, pivots and kernel basis come from one reduction of
    that hom x hom integer matrix, and equal those of the n^len x hom
    realization matrix, because both have the same row space over Q.
    """
    w1 = w1 if isinstance(w1, Word) else word(w1)
    w2 = w2 if isinstance(w2, Word) else word(w2)
    basis = hom_basis(w1, w2)
    if not basis:
        return KernelResult(w1, w2, cfg.n, (), 0, 0, 0, ())
    reduced, rank, pivots = rref(_gram_matrix(basis, cfg.n))
    vectors = _null_vectors(reduced, pivots, len(basis))
    return KernelResult(
        w1,
        w2,
        cfg.n,
        tuple(basis),
        len(basis),
        rank,
        len(vectors),
        tuple(vectors),
    )


def _loops(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    """Closed loops in the union of two matchings of the same endpoints.

    Every endpoint has one partner in each matching, so each component is a
    loop that alternates between p and q; walk each one once.
    """
    seen = [False] * len(p)
    loops = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = p[x]
            seen[y] = True
            x = q[y]
    return loops


def _gram_matrix(basis: list[Matching], n: int) -> ExactMatrix:
    """Entry (i, j) is the inner product of the realizations of matchings i
    and j, which is n ** loops(i, j); the matrix is symmetric."""
    partners = [m.partner for m in basis]
    powers = [Fraction(n**c) for c in range(len(partners[0]) + 1)]
    size = len(basis)
    gram = [[0] * size for _ in range(size)]
    for i, p in enumerate(partners):
        for j in range(i, size):
            gram[i][j] = gram[j][i] = powers[_loops(p, partners[j])]
    return ExactMatrix(gram, RATIONAL_RING)


def kernel_report_json(result: KernelResult) -> dict:
    return {
        "word": str(result.domain),
        "codomain": str(result.codomain),
        "n": result.n,
        "hom_dimension": result.hom_dimension,
        "rank": result.rank,
        "kernel_dimension": result.kernel_dimension,
        "basis": [[str(x) for x in v] for v in result.basis],
    }


# ---------------------------------------------------------------------------
# reports


def antisymmetrizer_kernel_check(
    cfg: IncarnationConfig, words: list[Word | str]
) -> list[dict]:
    """A_{n+1} dies in the realization and its two-sided permutation
    paddings span the whole kernel on the supplied endomorphism spaces."""
    if cfg.flavor != ORIENTED:
        raise DiagramTypeError("kernel ideal checks run in the oriented flavor")
    n = cfg.n
    report = []
    a_top = antisymmetrizer(n + 1)
    report.append(
        report_entry(
            f"vanishing(asym({n + 1}), n={n})",
            incarnate(a_top, cfg).is_zero(),
        )
    )
    report.append(
        report_entry(
            f"nonvanishing(asym({n}), n={n})",
            not incarnate(antisymmetrizer(n), cfg).is_zero(),
        )
    )
    for w in words:
        w = w if isinstance(w, Word) else word(w)
        if w.count("u") != len(w):
            raise DiagramTypeError("ideal-span words must be uniform in u")
        k = len(w)
        result = kernel_of_incarnation(w, w, cfg)
        if k < n + 1:
            ok = result.kernel_dimension == 0
            report.append(
                report_entry(
                    f"kernel-empty(End({w}), n={n})", ok, str(result.kernel_dimension)
                )
            )
            continue
        basis_index = {m.partner: i for i, m in enumerate(result.matchings)}
        pad = DiagMorphism.identity(word("u" * (k - n - 1)))
        seed = tensor(a_top, pad) if len(pad.domain) else a_top
        span_vectors: list[list[Fraction]] = []
        perms = [permutation_diagram(p, w) for p in permutations(range(k))]
        for left in perms:
            mid = compose(left, seed)
            for right in perms:
                element = compose(mid, right)
                coeffs = [Fraction(0)] * len(result.matchings)
                for p, c in element.partner_terms:
                    coeffs[basis_index[p]] = c.evaluate(Fraction(n))
                span_vectors.append(coeffs)
        span = matrix_from_columns(span_vectors, RATIONAL_RING)
        _, span_rank, _ = rref(span)
        ok = span_rank == result.kernel_dimension
        if ok and result.kernel_dimension:
            # same rank + containment of the union proves span = kernel
            combined = matrix_from_columns(
                span_vectors + [list(v) for v in result.basis], RATIONAL_RING
            )
            _, combined_rank, _ = rref(combined)
            ok = combined_rank == result.kernel_dimension
        report.append(
            report_entry(
                f"ideal-span(End({w}), n={n})",
                ok,
                f"span rank {span_rank} vs kernel {result.kernel_dimension}",
            )
        )
    return report


def _skew_projector(n: int) -> ExactMatrix:
    size = n * n
    entries = [[Fraction(0)] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            r = i * n + j
            entries[r][i * n + j] += Fraction(1, 2)
            entries[r][j * n + i] -= Fraction(1, 2)
    return ExactMatrix(entries, RATIONAL_RING)


def so_object_image_check(n: int) -> list[dict]:
    """The skew projector object realizes as projection onto antisymmetric
    matrices and its bracket realizes as the matrix commutator."""
    cfg = IncarnationConfig(n, UNORIENTED)
    so = unoriented_so_object()
    proj = incarnate(so.carrier.idempotent[0][0], cfg)
    report = []
    report.append(report_entry(f"projector-idempotent(n={n})", (proj @ proj) == proj))
    report.append(report_entry(f"projector-shape(n={n})", proj == _skew_projector(n)))
    _, rank, _ = rref(proj)
    expect = n * (n - 1) // 2
    report.append(
        report_entry(f"image-dimension(n={n})", rank == expect, f"{rank} vs {expect}")
    )
    bracket = incarnate(so.bracket.blocks[0][0], cfg)
    ok = True
    detail = None
    skew_basis = []
    for i in range(n):
        for j in range(i + 1, n):
            m = [[Fraction(0)] * n for _ in range(n)]
            m[i][j] = Fraction(1)
            m[j][i] = Fraction(-1)
            skew_basis.append(ExactMatrix(m, RATIONAL_RING))
    for x in skew_basis:
        vx = ExactMatrix.column(list(x.flatten()), RATIONAL_RING)
        for y in skew_basis:
            vy = ExactMatrix.column(list(y.flatten()), RATIONAL_RING)
            pair = vx.kron(vy)
            got = bracket @ pair
            comm = (x @ y) - (y @ x)
            want = ExactMatrix.column(list(comm.flatten()), RATIONAL_RING)
            if got != want:
                ok = False
                detail = "bracket disagrees with the commutator"
                break
        if not ok:
            break
    report.append(report_entry(f"bracket-is-commutator(n={n})", ok, detail))
    return report
