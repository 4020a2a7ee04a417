"""Strand-diagram morphisms in normal form.

A morphism between orientation words is an exact linear combination of
matchings (perfect pairings of the boundary points), with coefficients in the
delta-polynomial ring. Composition glues two matchings, follows paths, and
shifts the coefficient by one degree of delta for each closed loop; tensoring
relabels endpoints. Equality of morphisms is equality of term lists, so every
identity that holds here holds on the nose, not up to rewriting.

Boundary points: bottom points 0..k-1 carry the domain word, top points 0..l-1
the codomain word. Inside a matching they are numbered on one line, bottom
point i as i and top point j as k + j, and the matching is stored as the
fixed-point-free involution partner on 0..k+l-1. A DiagMorphism stores its
boundary once and each term as a (partner tuple, coefficient) pair; the
Matching objects of its `terms` view, and the endpoint tuples ("bot", i) and
("top", j) of `Matching.pairs` and of the JSON format, are derived from it.

Terms sorted by partner are sorted by pairs (each pair smaller endpoint
first, in order of that endpoint). Let x be the first index where involutions
p and q of one boundary differ. Were p[x] < x, then q[p[x]] = p[p[x]] = x
would force q[x] = p[x]; so x opens a pair in both, all pairs opened before x
agree, and the pair lists first differ at (x, p[x]) against (x, q[x]).

The oriented flavor has letters u/d (strand directions); a pair must be either
a through strand with equal letters or a turn-back connecting opposite letters
on the same boundary. The unoriented flavor has the single letter s and no
pairing constraints.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from curcat.exact import DeltaPoly

Endpoint = tuple[str, int]

ORIENTED = "oriented"
UNORIENTED = "unoriented"

_FLIP = {"u": "d", "d": "u", "s": "s"}
_LETTERS = {ORIENTED: frozenset("ud"), UNORIENTED: frozenset("s")}


class DiagramTypeError(ValueError):
    """A boundary, orientation, or flavor mismatch."""


@dataclasses.dataclass(frozen=True, order=True)
class Word:
    """A finite sequence of strand letters with a flavor tag."""

    flavor: str
    letters: tuple[str, ...]

    def __post_init__(self):
        if self.flavor not in _LETTERS:
            raise DiagramTypeError(f"unknown flavor {self.flavor!r}")
        bad = set(self.letters) - _LETTERS[self.flavor]
        if bad:
            raise DiagramTypeError(
                f"letters {sorted(bad)} not allowed in {self.flavor} words"
            )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)

    def __add__(self, other: "Word") -> "Word":
        if self.flavor != other.flavor:
            raise DiagramTypeError(
                f"cannot concatenate {self.flavor} and {other.flavor} words"
            )
        return Word(self.flavor, self.letters + other.letters)

    def dual(self) -> "Word":
        """Reverse the word and flip each letter (u <-> d; s fixed)."""
        return Word(self.flavor, tuple(_FLIP[x] for x in reversed(self.letters)))

    def count(self, letter: str) -> int:
        return self.letters.count(letter)

    def is_uniform(self) -> bool:
        return len(set(self.letters)) <= 1


def word(text: str, flavor: str | None = None) -> Word:
    """Build a Word from a letter string like "uud" or "sss".

    The flavor is inferred from the letters when not given; an empty string
    defaults to oriented.

    >>> str(word("uud"))
    'uud'
    >>> word("ss").flavor
    'unoriented'
    """
    letters = tuple(text)
    if flavor is None:
        if "s" in letters:
            if set(letters) != {"s"}:
                raise DiagramTypeError(f"mixed-flavor letters in {text!r}")
            flavor = UNORIENTED
        else:
            flavor = ORIENTED
    return Word(flavor, letters)


def empty_word(flavor: str = ORIENTED) -> Word:
    return Word(flavor, ())


def _endpoint(x: int, k: int) -> Endpoint:
    """The endpoint tuple of number x on a boundary with k bottom points."""
    return ("bot", x) if x < k else ("top", x - k)


def _endpoint_number(point: Endpoint, k: int, l: int) -> int:
    """The number of ("bot", i) or ("top", j) with k bottom and l top points."""
    side, idx = point
    if side not in ("bot", "top") or isinstance(idx, bool) or not isinstance(idx, int):
        raise DiagramTypeError(f"malformed endpoint {point}")
    if not 0 <= idx < (k if side == "bot" else l):
        raise DiagramTypeError(f"endpoint {point} out of range")
    return idx if side == "bot" else k + idx


def _pairable(letters: tuple[str, ...], k: int, a: int, b: int) -> bool:
    """Whether endpoints a and b may be paired, where letters is the domain
    word followed by the codomain word and k is the domain length.

    Unoriented points pair freely; an oriented through strand joins equal
    letters and an oriented turn-back joins opposite ones.
    """
    if letters[a] == "s":
        return True
    return (letters[a] == letters[b]) != ((a < k) == (b < k))


@dataclasses.dataclass(frozen=True, order=True)
class Matching:
    """A perfect pairing of the boundary points of a (domain, codomain) pair.

    Stored as the involution partner: with k = len(domain), bottom point i
    is endpoint i, top point j is endpoint k + j, and partner[x] is the
    endpoint paired with x. Matching.make validates endpoint pairs and is
    the entry for generators, the parser and JSON; composites, tensors and
    enumerations are valid by construction and call the constructor.

    The derived `pairs` lists each pair smaller endpoint first, sorted by
    that endpoint; ordering matchings of one boundary by partner orders them
    by pairs (see the module docstring).
    """

    domain: Word
    codomain: Word
    partner: tuple[int, ...]

    @staticmethod
    def make(
        domain: Word,
        codomain: Word,
        pairs: Iterable[tuple[Endpoint, Endpoint]],
    ) -> "Matching":
        if domain.flavor != codomain.flavor:
            raise DiagramTypeError("domain and codomain flavors differ")
        k = len(domain)
        letters = domain.letters + codomain.letters
        canon = sorted(
            tuple(sorted(_endpoint_number(p, k, len(codomain)) for p in pair))
            for pair in pairs
        )
        partner = [-1] * len(letters)
        for a, b in canon:
            if a == b:
                raise DiagramTypeError(f"endpoint {_endpoint(a, k)} paired with itself")
            for x in (a, b):
                if partner[x] >= 0:
                    raise DiagramTypeError(f"endpoint {_endpoint(x, k)} used twice")
            if not _pairable(letters, k, a, b):
                turn_back = (a < k) == (b < k)
                raise DiagramTypeError(
                    f"{'turn-back' if turn_back else 'through strand'} "
                    f"{_endpoint(a, k)}-{_endpoint(b, k)} needs "
                    f"{'opposite' if turn_back else 'equal'} orientations"
                )
            partner[a], partner[b] = b, a
        if 2 * len(canon) != len(letters):
            raise DiagramTypeError(
                f"matching covers {2 * len(canon)} of {len(letters)} points"
            )
        return Matching(domain, codomain, tuple(partner))

    @property
    def pairs(self) -> tuple[tuple[Endpoint, Endpoint], ...]:
        k = len(self.domain)
        return tuple(
            (_endpoint(a, k), _endpoint(b, k))
            for a, b in enumerate(self.partner)
            if a < b
        )

    def pair_text(self) -> str:
        return "".join(f"({a[0][0]}{a[1]}-{b[0][0]}{b[1]})" for a, b in self.pairs)


def _compose_matchings(f: tuple, g: tuple, a: int, b: int) -> tuple[tuple, int]:
    """Glue partner tuple g (a bottom, b top points) under partner tuple f.

    Both matchings act on one line of endpoints: g's bottom points 0..a-1,
    the glued middle points a..a+b-1, then f's top points (g keeps its
    numbers, f's are shifted by a). Returns the composite's partner tuple
    and the number of closed loops, which run through middle points only.
    """
    fp = [0] * a + [x + a for x in f]
    end_mid = a + b
    seen = [False] * end_mid
    partner = [-1] * (len(fp) - b)
    for start in range(len(partner)):
        if partner[start] >= 0:
            continue
        x, in_g = (start, True) if start < a else (start + b, False)
        while True:
            x = g[x] if in_g else fp[x]
            if not a <= x < end_mid:
                break
            seen[x] = True
            in_g = not in_g
        end = x if x < a else x - b
        partner[start], partner[end] = end, start
    loops = 0
    for m in range(a, end_mid):
        if seen[m]:
            continue
        loops += 1
        x = m
        while not seen[x]:
            seen[x] = True
            x = fp[x]
            seen[x] = True
            x = g[x]
    return tuple(partner), loops


def _as_coeff(c) -> DeltaPoly:
    if isinstance(c, DeltaPoly):
        return c
    return DeltaPoly.constant(Fraction(c))


class DiagMorphism:
    """An exact linear combination of matchings with delta-polynomial coefficients.

    Stored as the boundary once and `partner_terms`, the (partner tuple,
    coefficient) pairs sorted by partner, which is the order of their pairs
    (module docstring); zero coefficients are dropped, so two morphisms are
    equal exactly when their term lists coincide. The constructor validates
    (Matching, coefficient) items; the operations below build their results
    from partner tuples valid by construction. `terms` is the (Matching,
    coefficient) view of the same list, built on access.
    """

    __slots__ = ("domain", "codomain", "partner_terms")

    def __init__(
        self,
        domain: Word,
        codomain: Word,
        terms: Mapping[Matching, DeltaPoly] | Iterable[tuple[Matching, DeltaPoly]] = (),
    ):
        if domain.flavor != codomain.flavor:
            raise DiagramTypeError("domain and codomain flavors differ")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], DeltaPoly] = {}
        for m, c in items:
            if m.domain != domain or m.codomain != codomain:
                raise DiagramTypeError("term boundary differs from morphism boundary")
            p, c = m.partner, _as_coeff(c)
            acc[p] = acc[p] + c if p in acc else c
        self._fill(domain, codomain, acc)

    def _fill(self, domain: Word, codomain: Word, acc: dict) -> None:
        """Store the boundary and acc's nonzero (partner, coeff) items, sorted."""
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(
            self, "partner_terms", tuple(sorted(t for t in acc.items() if t[1]))
        )

    @staticmethod
    def _of(domain: Word, codomain: Word, acc: dict) -> "DiagMorphism":
        """The morphism of partner-keyed terms that are valid by construction."""
        f = object.__new__(DiagMorphism)
        f._fill(domain, codomain, acc)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("DiagMorphism is immutable")

    @property
    def flavor(self) -> str:
        return self.domain.flavor

    @property
    def terms(self) -> tuple[tuple[Matching, DeltaPoly], ...]:
        dom, cod = self.domain, self.codomain
        return tuple((Matching(dom, cod, p), c) for p, c in self.partner_terms)

    # constructors ----------------------------------------------------------

    @staticmethod
    def zero(domain: Word, codomain: Word) -> "DiagMorphism":
        return DiagMorphism(domain, codomain)

    @staticmethod
    def from_matching(m: Matching, coeff=1) -> "DiagMorphism":
        return DiagMorphism(m.domain, m.codomain, [(m, coeff)])

    @staticmethod
    def identity(w: Word) -> "DiagMorphism":
        m = Matching.make(w, w, [(("bot", i), ("top", i)) for i in range(len(w))])
        return DiagMorphism.from_matching(m)

    @staticmethod
    def scalar(value, flavor: str = ORIENTED) -> "DiagMorphism":
        """The endomorphism of the unit object with the given coefficient."""
        e = empty_word(flavor)
        return DiagMorphism._of(e, e, {(): _as_coeff(value)})

    # linear structure -------------------------------------------------------

    def __add__(self, other: "DiagMorphism") -> "DiagMorphism":
        if not isinstance(other, DiagMorphism):
            return NotImplemented
        if self.domain != other.domain or self.codomain != other.codomain:
            raise DiagramTypeError(
                f"boundary mismatch: {self.domain}->{self.codomain} vs "
                f"{other.domain}->{other.codomain}"
            )
        acc = dict(self.partner_terms)
        for p, c in other.partner_terms:
            acc[p] = acc[p] + c if p in acc else c
        return DiagMorphism._of(self.domain, self.codomain, acc)

    def __sub__(self, other: "DiagMorphism") -> "DiagMorphism":
        return self + (-other)

    def __neg__(self) -> "DiagMorphism":
        return self._mapped(lambda c: -c)

    def scale(self, c) -> "DiagMorphism":
        c = _as_coeff(c)
        return self._mapped(lambda k: k * c)

    def _mapped(self, fn) -> "DiagMorphism":
        """The same boundary and matchings with each coefficient c as fn(c)."""
        acc = {p: fn(c) for p, c in self.partner_terms}
        return DiagMorphism._of(self.domain, self.codomain, acc)

    def __mul__(self, other):
        """f * g composes (g applied first); f * scalar rescales."""
        if isinstance(other, DiagMorphism):
            return compose(self, other)
        if isinstance(other, (int, Fraction, DeltaPoly)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, DeltaPoly)):
            return self.scale(other)
        return NotImplemented

    def __matmul__(self, other: "DiagMorphism") -> "DiagMorphism":
        return tensor(self, other)

    # inspection -------------------------------------------------------------

    def coeff(self, m: Matching) -> DeltaPoly:
        return dict(self.terms).get(m, DeltaPoly.zero())

    def is_zero(self) -> bool:
        return not self.partner_terms

    def __bool__(self) -> bool:
        return bool(self.partner_terms)

    def scalar_value(self) -> DeltaPoly:
        """Coefficient of an endomorphism of the unit object."""
        if len(self.domain) or len(self.codomain):
            raise DiagramTypeError("not a scalar morphism")
        return self.partner_terms[0][1] if self.partner_terms else DeltaPoly.zero()

    def specialize(self, delta_value) -> "DiagMorphism":
        """Evaluate every coefficient at delta = value (kept as constants)."""
        return self._mapped(lambda c: DeltaPoly.constant(c.evaluate(delta_value)))

    def __eq__(self, other):
        if not isinstance(other, DiagMorphism):
            return NotImplemented
        return (self.domain, self.codomain, self.partner_terms) == (
            other.domain, other.codomain, other.partner_terms
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.partner_terms))

    def __repr__(self):
        return (
            f"DiagMorphism({self.domain}->{self.codomain}, "
            f"{len(self.partner_terms)} terms)"
        )


# ---------------------------------------------------------------------------
# composition / tensor


def _retag_scalar(f: DiagMorphism, flavor: str) -> DiagMorphism:
    """Move a unit-object endomorphism to the other flavor's unit object."""
    e = empty_word(flavor)
    return DiagMorphism._of(e, e, dict(f.partner_terms))


def _match_flavors(
    f: DiagMorphism, g: DiagMorphism
) -> tuple[DiagMorphism, DiagMorphism]:
    if f.flavor == g.flavor:
        return f, g
    if not len(f.domain) and not len(f.codomain):
        return _retag_scalar(f, g.flavor), g
    if not len(g.domain) and not len(g.codomain):
        return f, _retag_scalar(g, f.flavor)
    raise DiagramTypeError(f"flavor mismatch: {f.flavor} vs {g.flavor}")


def compose(f: DiagMorphism, g: DiagMorphism) -> DiagMorphism:
    """The composite f after g (g's codomain glued to f's domain)."""
    f, g = _match_flavors(f, g)
    if g.codomain != f.domain:
        raise DiagramTypeError(
            f"cannot compose: inner boundaries {g.codomain} vs {f.domain} differ"
        )
    a, b = len(g.domain), len(g.codomain)
    acc: dict[tuple[int, ...], DeltaPoly] = {}
    for pf, cf in f.partner_terms:
        for pg, cg in g.partner_terms:
            p, loops = _compose_matchings(pf, pg, a, b)
            c = (cf * cg).shifted(loops)
            acc[p] = acc[p] + c if p in acc else c
    return DiagMorphism._of(g.domain, f.codomain, acc)


def tensor(f: DiagMorphism, g: DiagMorphism) -> DiagMorphism:
    """Horizontal juxtaposition, f on the left."""
    f, g = _match_flavors(f, g)
    dom = f.domain + g.domain
    cod = f.codomain + g.codomain
    k1, l1, k = len(f.domain), len(f.codomain), len(dom)
    # Endpoint x of f, or endpoint x - k1 - l1 of g, lands on at[x] of the
    # juxtaposition; jf and jg hold a term's partners moved there, and src
    # inverts at.
    at = [*range(k1), *range(k, k + l1), *range(k1, k), *range(k + l1, k + len(cod))]
    src = sorted(range(len(at)), key=at.__getitem__)
    gs = [([at[x + k1 + l1] for x in pg], cg) for pg, cg in g.partner_terms]
    acc: dict[tuple[int, ...], DeltaPoly] = {}
    for pf, cf in f.partner_terms:
        jf = [at[x] for x in pf]
        for jg, cg in gs:
            p, c = tuple(map((jf + jg).__getitem__, src)), cf * cg
            acc[p] = acc[p] + c if p in acc else c
    return DiagMorphism._of(dom, cod, acc)


# ---------------------------------------------------------------------------
# generators


def generator(kind: str, signature) -> DiagMorphism:
    """One of the elementary single-matching morphisms.

    kind "id": identity of a word. kind "crossing": swap two letters, given as
    a 2-letter word or a pair. kind "cap": a 2-letter word folded down to the
    unit (oriented caps need opposite letters). kind "cup": the unit opened up
    to a 2-letter word.
    """
    if kind == "id":
        return DiagMorphism.identity(_as_word(signature))
    if kind == "crossing":
        w = _as_word(signature)
        if len(w) != 2:
            raise DiagramTypeError("crossing takes exactly two letters")
        m = Matching.make(
            w,
            Word(w.flavor, (w.letters[1], w.letters[0])),
            [(("bot", 0), ("top", 1)), (("bot", 1), ("top", 0))],
        )
        return DiagMorphism.from_matching(m)
    if kind == "cap":
        w = _as_word(signature)
        if len(w) != 2:
            raise DiagramTypeError("cap takes a two-letter word")
        m = Matching.make(w, empty_word(w.flavor), [(("bot", 0), ("bot", 1))])
        return DiagMorphism.from_matching(m)
    if kind == "cup":
        w = _as_word(signature)
        if len(w) != 2:
            raise DiagramTypeError("cup takes a two-letter word")
        m = Matching.make(empty_word(w.flavor), w, [(("top", 0), ("top", 1))])
        return DiagMorphism.from_matching(m)
    raise DiagramTypeError(f"unknown generator kind {kind!r}")


def _as_word(signature) -> Word:
    if isinstance(signature, Word):
        return signature
    if isinstance(signature, str):
        return word(signature)
    if isinstance(signature, (tuple, list)):
        return word("".join(signature))
    raise DiagramTypeError(f"cannot read a word from {signature!r}")


def identity(w) -> DiagMorphism:
    return DiagMorphism.identity(_as_word(w))


def crossing(a: str, b: str) -> DiagMorphism:
    return generator("crossing", a + b)


def cap(w) -> DiagMorphism:
    return generator("cap", w)


def cup(w) -> DiagMorphism:
    return generator("cup", w)


def delta_scalar(flavor: str = ORIENTED) -> DiagMorphism:
    return DiagMorphism.scalar(DeltaPoly.delta(), flavor)


def swap_words(w1, w2) -> DiagMorphism:
    """The symmetric braiding w1 (x) w2 -> w2 (x) w1 as a single matching."""
    w1, w2 = _as_word(w1), _as_word(w2)
    if w1.flavor != w2.flavor:
        raise DiagramTypeError("flavor mismatch in braiding")
    n1, n2 = len(w1), len(w2)
    pairs = [(("bot", i), ("top", n2 + i)) for i in range(n1)]
    pairs += [(("bot", n1 + j), ("top", j)) for j in range(n2)]
    m = Matching.make(w1 + w2, w2 + w1, pairs)
    return DiagMorphism.from_matching(m)


def permutation_diagram(sigma: Sequence[int], w) -> DiagMorphism:
    """The matching sending bottom i to top sigma[i], on a uniform word."""
    w = _as_word(w)
    if not w.is_uniform():
        raise DiagramTypeError("permutation diagrams need a uniform word")
    if sorted(sigma) != list(range(len(w))):
        raise DiagramTypeError(f"not a permutation of 0..{len(w) - 1}: {sigma}")
    m = Matching.make(
        w, w, [(("bot", i), ("top", sigma[i])) for i in range(len(w))]
    )
    return DiagMorphism.from_matching(m)


def permutation_sign(sigma: Sequence[int]) -> int:
    inversions = sum(
        1
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    )
    return -1 if inversions % 2 else 1


@functools.lru_cache(maxsize=None)
def _antisymmetrizer_cached(k: int, flavor: str) -> DiagMorphism:
    w = Word(flavor, ("u" if flavor == ORIENTED else "s",) * k)
    coeff = Fraction(1)
    for i in range(2, k + 1):
        coeff /= i
    acc: dict[Matching, DeltaPoly] = {}
    for sigma in itertools.permutations(range(k)):
        m = Matching.make(
            w, w, [(("bot", i), ("top", sigma[i])) for i in range(k)]
        )
        acc[m] = DeltaPoly.constant(permutation_sign(sigma) * coeff)
    return DiagMorphism(w, w, acc)


def antisymmetrizer(k: int, flavor: str = ORIENTED) -> DiagMorphism:
    """(1/k!) sum of signed permutations of k parallel strands; idempotent."""
    if k < 1:
        raise DiagramTypeError("need at least one strand")
    return _antisymmetrizer_cached(k, flavor)


# ---------------------------------------------------------------------------
# matching enumeration


def all_matchings(domain: Word, codomain: Word) -> list[Matching]:
    """Every valid matching from domain to codomain, in increasing order.

    The smallest free endpoint is paired first, with each admissible partner
    in increasing order, so the partner tuples come out sorted.
    """
    if domain.flavor != codomain.flavor:
        raise DiagramTypeError("flavor mismatch")
    k = len(domain)
    letters = domain.letters + codomain.letters
    if len(letters) % 2:
        return []
    out: list[Matching] = []
    partner = [0] * len(letters)

    def recurse(free: list[int]):
        if not free:
            out.append(Matching(domain, codomain, tuple(partner)))
            return
        a = free[0]
        for idx in range(1, len(free)):
            b = free[idx]
            if _pairable(letters, k, a, b):
                partner[a], partner[b] = b, a
                recurse(free[1:idx] + free[idx + 1 :])

    recurse(list(range(len(letters))))
    return out


# ---------------------------------------------------------------------------
# parser


class ParseError(ValueError):
    """Syntax error, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:/\d+)?)|(?P<name>[a-z]+)|(?P<punct>[][();,@+\-*])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("num"):
            tokens.append(("num", m.group("num"), pos))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), pos))
        else:
            tokens.append(("punct", m.group("punct"), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# asym(k) expands to k! permutation terms; asym(7) parses in about half a
# second and every step up multiplies the time by about k.
ASYM_LIMIT = 7
# A ";" or "@" visits every pair of operand terms, about 45 microseconds a
# pair on a 2-core VM: asym(5) ; asym(5) has 14,400 pairs, asym(6) ; asym(6)
# has 518,400.
TERM_PAIR_LIMIT = 50_000


class _Parser:
    """Recursive descent over: expr := term (("+"|"-") term)*;
    term := [coeff] tens (";" tens)*; tens := atom ("@" atom)*.

    "@" is tensor and binds tighter than ";"; "a ; b" is the composite with b
    applied first (read the chain from its end upward, like function
    composition)."""

    def __init__(self, text: str, flavor: str | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.flavor = flavor

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", pos)

    def parse(self) -> DiagMorphism:
        result = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return result

    def expr(self) -> DiagMorphism:
        sign = 1
        if self.peek()[1] in ("+", "-"):
            sign = -1 if self.next()[1] == "-" else 1
        result = self.term().scale(sign)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            t = self.term()
            try:
                result = result + (t if op == "+" else -t)
            except DiagramTypeError as e:
                raise ParseError(str(e), self.peek()[2]) from e
        return result

    def term(self) -> DiagMorphism:
        coeff = Fraction(1)
        if self.peek()[0] == "num":
            _, val, pos = self.next()
            try:
                coeff = Fraction(val)
            except ZeroDivisionError as e:
                raise ParseError(f"zero denominator in {val!r}", pos) from e
            if self.peek()[1] == "*":
                self.next()
        return self.chain(";", self.tens, compose).scale(coeff)

    def tens(self) -> DiagMorphism:
        return self.chain("@", self.atom, tensor)

    def chain(self, op: str, operand, combine) -> DiagMorphism:
        """operand (op operand)*, folded left with combine."""
        result = operand()
        while self.peek()[1] == op:
            self.next()
            pos = self.peek()[2]
            rhs = operand()
            left, right = len(result.partner_terms), len(rhs.partner_terms)
            if left * right > TERM_PAIR_LIMIT:
                raise ParseError(
                    f"{op!r} joins {left} x {right} = {left * right} "
                    f"term pairs; the parser admits at most {TERM_PAIR_LIMIT}",
                    pos,
                )
            try:
                result = combine(result, rhs)
            except DiagramTypeError as e:
                raise ParseError(str(e), pos) from e
        return result

    def atom(self) -> DiagMorphism:
        kind, val, pos = self.next()
        if val == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind != "name":
            raise ParseError(f"expected an atom, found {val!r}", pos)
        try:
            return self.named_atom(val, pos)
        except DiagramTypeError as e:
            raise ParseError(str(e), pos) from e

    def named_atom(self, name: str, pos: int) -> DiagMorphism:
        if name == "delta":
            return delta_scalar(self.flavor or ORIENTED)
        if name == "id":
            return identity(self.word_arg(allow_empty=True))
        if name in ("cap", "cup"):
            return generator(name, self.word_arg())
        if name == "x":
            self.expect("(")
            a = self.letter_arg()
            self.expect(",")
            b = self.letter_arg()
            self.expect(")")
            return crossing(a, b)
        if name == "asym":
            self.expect("(")
            k_tok = self.next()
            if k_tok[0] != "num" or "/" in k_tok[1]:
                raise ParseError("asym takes an integer", k_tok[2])
            k = int(k_tok[1])
            if k > ASYM_LIMIT:
                raise ParseError(
                    f"asym({k}) has {k}! terms; the parser admits k <= {ASYM_LIMIT}",
                    k_tok[2],
                )
            self.expect(")")
            return antisymmetrizer(k, self.flavor or ORIENTED)
        if name == "perm":
            self.expect("[")
            images = [self.int_arg()]
            while self.peek()[1] == ",":
                self.next()
                images.append(self.int_arg())
            self.expect("]")
            return permutation_diagram(images, self.word_arg())
        raise ParseError(f"unknown atom {name!r}", pos)

    def word_arg(self, allow_empty: bool = False) -> Word:
        self.expect("(")
        kind, val, pos = self.peek()
        text = ""
        if kind == "name":
            text = self.next()[1]
        elif not allow_empty:
            raise ParseError("expected a word", pos)
        self.expect(")")
        w = word(text, self.flavor if text == "" else None)
        if self.flavor and w.flavor != self.flavor:
            raise ParseError(f"{w.flavor} word in {self.flavor} context", pos)
        return w

    def letter_arg(self) -> str:
        kind, val, pos = self.next()
        if kind != "name" or len(val) != 1:
            raise ParseError(f"expected a single letter, found {val!r}", pos)
        return val

    def int_arg(self) -> int:
        kind, val, pos = self.next()
        if kind != "num" or "/" in val:
            raise ParseError(f"expected an integer, found {val!r}", pos)
        return int(val)


def parse_expr(text: str, flavor: str | None = None) -> DiagMorphism:
    """Parse the diagram expression language into a normal-form morphism.

    >>> parse_expr("cap(ud) ; cup(ud)").scalar_value()
    DeltaPoly('1*delta')
    >>> parse_expr("x(u,u) ; x(u,u)") == identity("uu")
    True
    """
    return _Parser(text, flavor).parse()


# ---------------------------------------------------------------------------
# rendering


def diag_to_json_dict(f: DiagMorphism) -> dict:
    return {
        "flavor": f.flavor,
        "domain": str(f.domain),
        "codomain": str(f.codomain),
        "terms": [
            {"pairs": [[*a, *b] for a, b in m.pairs], "coeff": str(c)}
            for m, c in f.terms
        ],
    }


def _json_field(obj, key: str, kind: type):
    if not isinstance(obj, dict) or not isinstance(obj.get(key), kind):
        raise DiagramTypeError(
            f"diagram JSON needs an object with {kind.__name__} {key!r}"
        )
    return obj[key]


def diag_from_json_dict(obj: dict) -> DiagMorphism:
    """Read the JSON form of ``render``; malformed input raises DiagramTypeError."""
    flavor = _json_field(obj, "flavor", str)
    dom = word(_json_field(obj, "domain", str), flavor)
    cod = word(_json_field(obj, "codomain", str), flavor)
    terms = []
    for t in _json_field(obj, "terms", list):
        pairs = []
        for p in _json_field(t, "pairs", list):
            if not isinstance(p, list) or len(p) != 4:
                raise DiagramTypeError(f"a pair lists four entries, got {p!r}")
            pairs.append(((p[0], p[1]), (p[2], p[3])))
        text = _json_field(t, "coeff", str)
        try:
            coeff = DeltaPoly.parse(text)
        except ValueError as exc:
            raise DiagramTypeError(f"bad coefficient {text!r}: {exc}") from exc
        terms.append((Matching.make(dom, cod, pairs), coeff))
    return DiagMorphism(dom, cod, terms)


def _render_text(f: DiagMorphism) -> str:
    if f.is_zero():
        return "0"
    lines = []
    for m, c in f.terms:
        pairs = m.pair_text()
        lines.append(f"{c} {pairs}".strip() if pairs else str(c))
    return "\n".join(lines)


def _tikz_point(x: int, k: int) -> tuple[float, float]:
    return (0.5 * x, 0.0) if x < k else (0.5 * (x - k), 1.0)


def _render_tikz(f: DiagMorphism) -> str:
    chunks = []
    for m, c in f.terms:
        lines = [f"% coeff {c}", r"\begin{tikzpicture}"]
        k = len(m.domain)
        letters = m.domain.letters + m.codomain.letters
        for a, b in enumerate(m.partner):
            if b < a:
                continue
            xa, ya = _tikz_point(a, k)
            xb, yb = _tikz_point(b, k)
            style = {"s": "-", "u": "->", "d": "<-"}[letters[a]]
            if (a < k) == (b < k):
                bend = 0.5 if a < k else -0.5
                lines.append(
                    f"  \\draw[{style}] ({xa},{ya}) .. controls ({xa},{ya + bend}) "
                    f"and ({xb},{yb + bend}) .. ({xb},{yb});"
                )
            else:
                lines.append(f"  \\draw[{style}] ({xa},{ya}) -- ({xb},{yb});")
        lines.append(r"\end{tikzpicture}")
        chunks.append("\n".join(lines))
    return "\n".join(chunks) if chunks else "% zero morphism"


def render(f: DiagMorphism, format: str = "text") -> str:
    """Serialize deterministically as text, tikz, or round-trippable json."""
    if format == "text":
        return _render_text(f)
    if format == "tikz":
        return _render_tikz(f)
    if format == "json":
        return json.dumps(diag_to_json_dict(f), indent=2, sort_keys=True)
    raise ValueError(f"unknown render format {format!r}")


def parse_json(text: str) -> DiagMorphism:
    return diag_from_json_dict(json.loads(text))
