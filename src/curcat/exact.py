"""Exact scalars and dense exact linear algebra.

Three scalar kinds are used throughout the engine:

  - Rational: arbitrary-precision rationals (this is ``fractions.Fraction``,
    which already maintains the reduced-form invariants we need).
  - DeltaPoly: polynomials in the loop parameter delta with rational
    coefficients. Diagram coefficients live here generically.
  - CycloNumber: elements of Q[x]/(Phi_m(x)) for the m-th cyclotomic
    polynomial, used for character values of finite abelian groups.

Both polynomial kinds store a dense ascending tuple of Fraction coefficients
with no trailing zero, and share their ring arithmetic and text form
(``_DensePoly``); a CycloNumber additionally reduces modulo Phi_m.

Matrices are dense with one scalar kind per matrix. Row reduction, kernels and
affine solving work over the field kinds (Rational, CycloNumber) with
deterministic leftmost pivoting; DeltaPoly matrices refuse (specialize delta
first).
"""
from __future__ import annotations

import dataclasses
import functools
import math
import re
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

Rational = Fraction


class UnsupportedRingError(TypeError):
    """Raised when a field operation is requested over a non-field scalar kind."""


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction.

    >>> parse_rational("-3/4")
    Fraction(-3, 4)
    """
    return Fraction(text.strip())


# ---------------------------------------------------------------------------
# dense polynomials: coefficient lists, ascending, no trailing zero

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fractions(coeffs: Iterable) -> list[Fraction]:
    return [x if type(x) is Fraction else Fraction(x) for x in coeffs]


def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and not c[-1]:
        c.pop()
    return c


def _poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _poly_trim(out)


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(
    n: Sequence[Fraction], d: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    r = _poly_trim(list(n))
    d = _poly_trim(list(d))
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(0, len(r) - len(d) + 1)
    while r and len(r) >= len(d):
        f = r[-1] / d[-1]
        k = len(r) - len(d)
        q[k] = f
        for i, c in enumerate(d):
            r[k + i] -= f * c
        _poly_trim(r)
    return _poly_trim(q), r


def _poly_ext_gcd(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Return (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    s0, s1 = [_ONE], []
    t0, t1 = [], [_ONE]
    while r1:
        q, r = _poly_divmod(r0, r1)
        neg_q = [-c for c in q]
        r0, r1 = r1, r
        s0, s1 = s1, _poly_add(s0, _poly_mul(neg_q, s1))
        t0, t1 = t1, _poly_add(t0, _poly_mul(neg_q, t1))
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        s0 = [c / lead for c in s0]
        t0 = [c / lead for c in t0]
    return r0, s0, t0


class _DensePoly:
    """Ring arithmetic shared by the polynomial scalar kinds.

    ``coeffs`` is an ascending tuple of Fractions with no trailing zero, so
    the zero element has no coefficients. A subclass builds its results in
    ``_new`` and names its variable in ``_VAR`` for the text form.
    """

    __slots__ = ("coeffs",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _coerced(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self._new((other,))
        return None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._new(_poly_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._new([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._new(_poly_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        acc, base = self._new((_ONE,)), self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __str__(self) -> str:
        """Serialize as "c0 + c1*x + c2*x^2 + ..." (nonzero terms only)."""
        parts: list[str] = []
        for deg, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if deg == 0:
                body = str(mag)
            elif deg == 1:
                body = f"{mag}*{self._VAR}"
            else:
                body = f"{mag}*{self._VAR}^{deg}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts) or "0"


# ---------------------------------------------------------------------------
# polynomials in delta


class DeltaPoly(_DensePoly):
    """A polynomial in the loop parameter, with Fraction coefficients.

    Stored densely: ``coeffs[d]`` is the coefficient of delta^d, with no
    trailing zero. Instances are immutable and hashable.

    >>> p = DeltaPoly([1, Fraction(-1, 2)])
    >>> str(p), str(p * p)
    ('1 - 1/2*delta', '1 - 1*delta + 1/4*delta^2')
    """

    __slots__ = ()
    _VAR = "delta"

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", tuple(_poly_trim(_as_fractions(coeffs))))

    def _new(self, coeffs: Sequence[Fraction]) -> "DeltaPoly":
        return DeltaPoly(coeffs)

    @classmethod
    def _from_terms(cls, terms: Iterable[tuple[int, Fraction]]) -> "DeltaPoly":
        """The sum of c*delta^d over (d, c) pairs; repeated degrees add up."""
        coeffs: list[Fraction] = []
        for deg, c in terms:
            coeffs += [_ZERO] * (deg + 1 - len(coeffs))
            coeffs[deg] += c
        return cls(coeffs)

    @classmethod
    def zero(cls) -> "DeltaPoly":
        return cls()

    @classmethod
    def one(cls) -> "DeltaPoly":
        return cls((_ONE,))

    @classmethod
    def constant(cls, q) -> "DeltaPoly":
        return cls((q,))

    @classmethod
    def delta(cls, power: int = 1) -> "DeltaPoly":
        if power < 0:
            raise ValueError("negative degree")
        return cls([_ZERO] * power + [_ONE])

    def shifted(self, k: int) -> "DeltaPoly":
        """This polynomial times delta^k: k zeros prepended to the coefficients."""
        return DeltaPoly((_ZERO,) * k + self.coeffs) if k and self.coeffs else self

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeffs[0] if self.coeffs else _ZERO

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def evaluate(self, value) -> Fraction:
        value = Fraction(value)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other) -> bool:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        return hash(("DeltaPoly", self.coeffs))

    def __repr__(self) -> str:
        return f"DeltaPoly('{self}')"

    _TERM_RE = re.compile(
        r"^\s*(?P<coef>[+-]?\d+(?:/\d+)?)"
        r"(?:\s*\*\s*delta(?:\^(?P<pow>\d+))?)?\s*$|"
        r"^\s*(?P<sign>[+-]?)\s*delta(?:\^(?P<pow2>\d+))?\s*$"
    )

    @classmethod
    def parse(cls, text: str) -> "DeltaPoly":
        """Parse the serialization produced by __str__ (also accepts bare "delta")."""
        text = text.strip()
        if not text:
            raise ValueError("empty polynomial string")
        # Split into signed terms while keeping the signs.
        chunks = re.split(r"(?<=[^eE*^+\-\s])\s*([+-])\s*", text)
        terms: list[str] = []
        current = chunks[0]
        for i in range(1, len(chunks), 2):
            terms.append(current)
            current = chunks[i] + chunks[i + 1]
        terms.append(current)
        pairs: list[tuple[int, Fraction]] = []
        for t in terms:
            m = cls._TERM_RE.match(t)
            if not m:
                raise ValueError(f"bad polynomial term: {t!r}")
            if m.group("coef") is not None:
                c = Fraction(m.group("coef"))
                p = int(m.group("pow")) if m.group("pow") else (1 if "delta" in t else 0)
            else:
                c = Fraction(-1 if m.group("sign") == "-" else 1)
                p = int(m.group("pow2")) if m.group("pow2") else 1
            pairs.append((p, c))
        return cls._from_terms(pairs)


def specialize_delta(p: DeltaPoly, value) -> Fraction:
    """Evaluate a delta polynomial at a rational value of delta."""
    return p.evaluate(value)


# ---------------------------------------------------------------------------
# cyclotomic numbers


@functools.lru_cache(maxsize=None)
def cyclotomic_coeffs(m: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed by exact division of x^m - 1 by the lower cyclotomic factors.
    """
    if m < 1:
        raise ValueError("conductor must be positive")
    num: list[Fraction] = [Fraction(-1)] + [_ZERO] * (m - 1) + [_ONE]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_coeffs(d)))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return tuple(num)


class CycloNumber(_DensePoly):
    """An element of Q[x]/(Phi_m(x)), x mapping to a primitive m-th root of unity.

    The residue is stored with degree < phi(m); nonzero elements are invertible
    (extended gcd against the cyclotomic modulus, which is irreducible over Q).
    """

    __slots__ = ("conductor",)
    _VAR = "z"

    def __init__(self, conductor: int, coeffs: Iterable = ()):
        modulus = cyclotomic_coeffs(conductor)
        c = _as_fractions(coeffs)
        if len(c) >= len(modulus):
            _, c = _poly_divmod(c, modulus)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(_poly_trim(c)))

    def _new(self, coeffs: Sequence[Fraction]) -> "CycloNumber":
        return CycloNumber(self.conductor, coeffs)

    @classmethod
    def zero(cls, m: int) -> "CycloNumber":
        return cls(m)

    @classmethod
    def one(cls, m: int) -> "CycloNumber":
        return cls(m, (_ONE,))

    @classmethod
    def from_rational(cls, q, m: int) -> "CycloNumber":
        return cls(m, (q,))

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> "CycloNumber":
        """The primitive m-th root of unity, raised to the given power."""
        return cls(m, [_ZERO] * (power % m) + [_ONE])

    def _coerced(self, other) -> "CycloNumber | None":
        if isinstance(other, CycloNumber) and other.conductor != self.conductor:
            raise ValueError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}"
            )
        return super()._coerced(other)

    def inverse(self) -> "CycloNumber":
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = _poly_ext_gcd(self.coeffs, cyclotomic_coeffs(self.conductor))
        if len(g) != 1:
            raise AssertionError("modulus not coprime to nonzero residue")
        return CycloNumber(self.conductor, (c / g[0] for c in s))

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return super().__pow__(n)

    def is_rational(self) -> bool:
        return len(self.coeffs) <= 1

    def as_rational(self) -> Fraction:
        """Convert to a Fraction; valid whenever the residue is constant.

        Conductors 1 and 2 always qualify (their cyclotomic fields are Q).
        """
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        return self.coeffs[0] if self.coeffs else _ZERO

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other, self.conductor)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("CycloNumber", self.conductor, self.coeffs))

    def __repr__(self):
        return f"CycloNumber({self.conductor}, '{self}')"


# ---------------------------------------------------------------------------
# matrices


@dataclasses.dataclass(frozen=True)
class Ring:
    """Scalar-kind descriptor: sample zero/one, invertibility, field flag."""

    name: str
    zero: object
    one: object
    is_field: bool
    inv: Callable

    def __repr__(self):
        return f"Ring({self.name})"


RATIONAL_RING = Ring("rational", Fraction(0), Fraction(1), True, lambda x: 1 / x)
DELTA_RING = Ring("delta", DeltaPoly.zero(), DeltaPoly.one(), False, None)


@functools.lru_cache(maxsize=None)
def cyclo_ring(m: int) -> Ring:
    return Ring(
        f"cyclo({m})",
        CycloNumber.zero(m),
        CycloNumber.one(m),
        True,
        lambda x: x.inverse(),
    )


def ring_of(scalar) -> Ring:
    if isinstance(scalar, (Fraction, int)):
        return RATIONAL_RING
    if isinstance(scalar, DeltaPoly):
        return DELTA_RING
    if isinstance(scalar, CycloNumber):
        return cyclo_ring(scalar.conductor)
    raise TypeError(f"unknown scalar kind: {type(scalar).__name__}")


Scalar = Union[Fraction, DeltaPoly, CycloNumber]


class ExactMatrix:
    """A dense matrix with one exact scalar kind.

    Immutable. Rows are tuples; the ring descriptor travels with the matrix so
    empty shapes stay well-typed.
    """

    __slots__ = ("rows", "cols", "entries", "ring")

    def __init__(
        self,
        entries: Sequence[Sequence[Scalar]],
        ring: Ring | None = None,
        cols: int | None = None,
    ):
        rows = tuple(tuple(r) for r in entries)
        ncols = len(rows[0]) if rows else (cols or 0)
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        if ring is None:
            sample = next((x for r in rows for x in r), None)
            if sample is None:
                raise ValueError("cannot infer the scalar kind of an empty matrix")
            ring = ring_of(sample)
        if ring is RATIONAL_RING:
            rows = tuple(tuple(_as_fractions(r)) for r in rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, ring: Ring = RATIONAL_RING) -> "ExactMatrix":
        return cls([[ring.zero] * cols for _ in range(rows)], ring, cols=cols)

    @classmethod
    def identity(cls, n: int, ring: Ring = RATIONAL_RING) -> "ExactMatrix":
        return cls(
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)],
            ring,
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], ring: Ring | None = None):
        return cls(rows, ring)

    @classmethod
    def column(cls, vec: Sequence[Scalar], ring: Ring | None = None) -> "ExactMatrix":
        return cls([[x] for x in vec], ring)

    # basic algebra ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.ring.name == other.ring.name
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring.name, self.entries))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._expect_same_shape(other)
        return ExactMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            self.ring,
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._expect_same_shape(other)
        return ExactMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            self.ring,
        )

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        return ExactMatrix(
            [[x * c for x in r] for r in self.entries], self.ring
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: ({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})"
            )
        zero = self.ring.zero
        ot = other.transpose()
        return ExactMatrix(
            [
                [
                    sum((a * b for a, b in zip(row, col) if a and b), zero)
                    for col in ot.entries
                ]
                for row in self.entries
            ],
            self.ring,
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [
                [self.entries[i][j] for i in range(self.rows)]
                for j in range(self.cols)
            ],
            self.ring,
        )

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product, leftmost factor most significant."""
        out = []
        for r1 in self.entries:
            for r2 in other.entries:
                out.append([a * b for a in r1 for b in r2])
        return ExactMatrix(out, self.ring)

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)

    def map_entries(self, fn: Callable, ring: Ring | None = None) -> "ExactMatrix":
        return ExactMatrix([[fn(x) for x in r] for r in self.entries], ring)

    def flatten(self) -> tuple:
        """Row-major vectorization."""
        return tuple(x for r in self.entries for x in r)

    def _expect_same_shape(self, other: "ExactMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, {self.ring.name})"

    def pretty(self) -> str:
        return "\n".join("[" + "  ".join(str(x) for x in r) + "]" for r in self.entries)


@dataclasses.dataclass(frozen=True)
class AffineSolutionSpace:
    """Solutions of A x = b: a particular solution plus a homogeneous basis.

    particular is None exactly when the system is inconsistent (then basis is
    empty). The affine dimension is the number of basis vectors.
    """

    particular: tuple | None
    basis: tuple[tuple, ...]

    @property
    def is_consistent(self) -> bool:
        return self.particular is not None

    @property
    def affine_dimension(self) -> int:
        if not self.is_consistent:
            raise ValueError("inconsistent system has no dimension")
        return len(self.basis)


def _require_field(m: ExactMatrix) -> None:
    if not m.ring.is_field:
        raise UnsupportedRingError(
            f"row reduction needs a field scalar kind, got {m.ring.name} "
            "(specialize delta first)"
        )


def rref(m: ExactMatrix) -> tuple[ExactMatrix, int, tuple[int, ...]]:
    """Reduced row-echelon form with deterministic leftmost pivoting.

    Returns (reduced matrix, rank, pivot column indices). Rational matrices
    are eliminated fraction-free (``_rational_rref``); cyclotomic ones by
    Gauss-Jordan over the field. Both give the same pivots and the same
    reduced matrix, since each integer row stays a nonzero multiple of the
    row the field loop would hold.
    """
    _require_field(m)
    if m.ring is RATIONAL_RING:
        rows, pivots = _rational_rref(m.entries, m.cols)
    else:
        rows, pivots = _field_rref(m.entries, m.cols, m.ring.inv)
    return ExactMatrix(rows, m.ring, cols=m.cols), len(pivots), tuple(pivots)


def _field_rref(entries, ncols: int, inv: Callable) -> tuple[list[list], list[int]]:
    rows = [list(r) for r in entries]
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        scale = inv(rows[r][c])
        rows[r] = [x * scale for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _primitive(row: list[int]) -> list[int]:
    """The row divided by its content (the gcd of its entries)."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _rational_rref(
    entries: Sequence[Sequence[Fraction]], ncols: int
) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan in Python ints: rows are scaled to primitive integer rows,
    eliminated with ``a*row_i - f*row_r`` and divided by their pivots only at
    the end, so no Fraction is normalized inside the loop."""
    rows = []
    for row in entries:
        lcm = math.lcm(*(x.denominator for x in row))
        rows.append(_primitive([x.numerator * (lcm // x.denominator) for x in row]))
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        a = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = _primitive([a * x - f * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = Fraction(0)
    reduced = [
        [Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(rows, pivots)
    ]
    reduced += [[zero] * ncols for _ in range(nrows - len(pivots))]
    return reduced, pivots


def rank(m: ExactMatrix) -> int:
    return rref(m)[1]


def _null_vectors(reduced: ExactMatrix, pivots: Sequence[int], cols: int) -> list[tuple]:
    """Null space basis read off a reduced echelon form: one vector per free
    column among the first ``cols``, with entry one there and the negated
    reduced entries at the pivot columns."""
    pivot_set = set(pivots)
    zero, one = reduced.ring.zero, reduced.ring.one
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        vec = [zero] * cols
        vec[fc] = one
        for r_idx, pc in enumerate(pivots):
            vec[pc] = -reduced.entries[r_idx][fc]
        basis.append(tuple(vec))
    return basis


def kernel_basis(m: ExactMatrix) -> list[tuple]:
    """Basis of the right null space, in reduced echelon convention.

    Each vector has entry one at its free column and the negated reduced
    entries at the pivot columns.
    """
    reduced, _, pivots = rref(m)
    return _null_vectors(reduced, pivots, m.cols)


def solve_affine(a: ExactMatrix, b: Sequence) -> AffineSolutionSpace:
    """Solve A x = b exactly, returning the full affine solution space."""
    return solve_each(a, [b])[0]


def solve_each(a: ExactMatrix, rhs: Sequence[Sequence]) -> list[AffineSolutionSpace]:
    """Solve A x = b for every b in rhs with one elimination of [A | B].

    Leftmost pivoting puts A's pivots first, so the pivots left of column
    ``a.cols`` are those of A and their count r is A's rank; the first
    ``a.cols`` columns of the top r rows are A's reduced form. Row operations
    keep every linear relation among columns, so b_j lies in A's column space
    exactly when its reduced column is a combination of A's, that is, zero
    in the rows below r. A pivot in another column b_k sits in a row at or
    below r; the eliminations it causes subtract multiples of that row, which
    is zero in every consistent column, so they change only columns that
    already fail. A consistent b_j therefore reads its particular solution
    from the top r rows as if it were reduced alone, and every consistent
    b_j shares A's null basis.
    """
    _require_field(a)
    for b in rhs:
        if len(b) != a.rows:
            raise ValueError(f"right-hand side has length {len(b)}, expected {a.rows}")
    aug = ExactMatrix(
        [list(row) + [b[i] for b in rhs] for i, row in enumerate(a.entries)],
        a.ring,
        cols=a.cols + len(rhs),
    )
    reduced, _, pivots = rref(aug)
    pivots = [c for c in pivots if c < a.cols]
    basis = tuple(_null_vectors(reduced, pivots, a.cols))
    out = []
    for j in range(a.cols, aug.cols):
        if any(row[j] for row in reduced.entries[len(pivots):]):
            out.append(AffineSolutionSpace(particular=None, basis=()))
            continue
        particular = [a.ring.zero] * a.cols
        for row, pc in zip(reduced.entries, pivots):
            particular[pc] = row[j]
        out.append(AffineSolutionSpace(particular=tuple(particular), basis=basis))
    return out


def matrix_from_columns(columns: Sequence[Sequence[Scalar]], ring: Ring | None = None) -> ExactMatrix:
    """Assemble a matrix whose j-th column is columns[j]."""
    if not columns:
        raise ValueError("need at least one column")
    nrows = len(columns[0])
    return ExactMatrix(
        [[columns[j][i] for j in range(len(columns))] for i in range(nrows)], ring
    )
