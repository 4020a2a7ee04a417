"""Additive idempotent completion of the diagram category.

Objects are formal direct sums of words together with an idempotent block
matrix; morphisms are block matrices of diagram morphisms absorbed by the
idempotents on both sides (g . h = h = h . f). Constructors validate these
conditions eagerly; internal hot paths that produce already-valid data use
check=False.

Block convention: block (i, j) of a morphism from X to Y maps X.summands[j]
to Y.summands[i]; matrices multiply in the usual row-by-column way with
diagram composition as the entry product.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Iterable, Sequence

from curcat.diagrams import (
    DiagMorphism,
    DiagramTypeError,
    Word,
    _json_field,
    compose,
    diag_from_json_dict,
    diag_to_json_dict,
    empty_word,
    swap_words,
    tensor,
    word,
)
from curcat.exact import DeltaPoly

Blocks = tuple[tuple[DiagMorphism, ...], ...]


def _freeze_blocks(blocks: Sequence[Sequence[DiagMorphism]]) -> Blocks:
    return tuple(tuple(row) for row in blocks)


def _check_block_shape(
    blocks: Blocks, rows: Sequence[Word], cols: Sequence[Word]
) -> None:
    if len(blocks) != len(rows):
        raise DiagramTypeError(f"expected {len(rows)} block rows, got {len(blocks)}")
    for i, row in enumerate(blocks):
        if len(row) != len(cols):
            raise DiagramTypeError(
                f"row {i}: expected {len(cols)} blocks, got {len(row)}"
            )
        for j, b in enumerate(row):
            if b.domain != cols[j] or b.codomain != rows[i]:
                raise DiagramTypeError(
                    f"block ({i},{j}) has boundary {b.domain}->{b.codomain}, "
                    f"expected {cols[j]}->{rows[i]}"
                )


def _placed(
    sources: Sequence[Word],
    targets: Sequence[Word],
    entries: Iterable[tuple[int, int, DiagMorphism]],
) -> Blocks:
    """The block matrix from sources to targets holding each (row, column,
    block) entry and zero blocks everywhere else."""
    given = {(i, j): b for i, j, b in entries}
    return tuple(
        tuple(
            given[i, j] if (i, j) in given else DiagMorphism.zero(sw, tw)
            for j, sw in enumerate(sources)
        )
        for i, tw in enumerate(targets)
    )


def _shifted(
    blocks: Blocks, row_off: int, col_off: int
) -> Iterable[tuple[int, int, DiagMorphism]]:
    """The entries of a block matrix moved down by row_off and right by
    col_off, for _placed."""
    for i, row in enumerate(blocks):
        for j, b in enumerate(row):
            yield row_off + i, col_off + j, b


def _mat_compose(a: Blocks, b: Blocks) -> Blocks:
    """Blockwise product: entry (i,j) = sum_k a[i][k] after b[k][j]."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = None
            for k in range(len(b)):
                term = compose(a[i][k], b[k][j])
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_add(a: Blocks, b: Blocks) -> Blocks:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def _mat_eq(a: Blocks, b: Blocks) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


@dataclasses.dataclass(frozen=True)
class KarObject:
    """A list of word summands with an idempotent block matrix."""

    summands: tuple[Word, ...]
    idempotent: Blocks

    def __post_init__(self):
        _check_block_shape(self.idempotent, self.summands, self.summands)

    @property
    def flavor(self) -> str:
        return self.summands[0].flavor if self.summands else "oriented"

    def __repr__(self):
        parts = "+".join(str(w) if len(w) else "1" for w in self.summands)
        return f"KarObject({parts or '0'})"


@dataclasses.dataclass(frozen=True)
class KarMorphism:
    """A block matrix of diagram morphisms between two envelope objects."""

    source: KarObject
    target: KarObject
    blocks: Blocks

    def __post_init__(self):
        _check_block_shape(self.blocks, self.target.summands, self.source.summands)

    def is_zero(self) -> bool:
        return all(b.is_zero() for row in self.blocks for b in row)

    def __add__(self, other: "KarMorphism") -> "KarMorphism":
        return kar_add(self, other)

    def __sub__(self, other: "KarMorphism") -> "KarMorphism":
        return kar_add(self, -other)

    def __neg__(self) -> "KarMorphism":
        return KarMorphism(
            self.source, self.target, tuple(tuple(-b for b in row) for row in self.blocks)
        )

    def __mul__(self, other):
        if isinstance(other, KarMorphism):
            return kar_compose(self, other)
        if isinstance(other, (int, Fraction, DeltaPoly)):
            return kar_scale(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, DeltaPoly)):
            return kar_scale(self, other)
        return NotImplemented

    def __matmul__(self, other: "KarMorphism") -> "KarMorphism":
        return kar_tensor(self, other)

    def specialize(self, delta_value) -> "KarMorphism":
        return KarMorphism(
            self.source,
            self.target,
            tuple(
                tuple(b.specialize(delta_value) for b in row) for row in self.blocks
            ),
        )

    def __repr__(self):
        return f"KarMorphism({self.source!r} -> {self.target!r})"


class NotIdempotentError(DiagramTypeError):
    """The proposed idempotent fails e . e = e."""


class NotAbsorbedError(DiagramTypeError):
    """The proposed blocks fail the absorption condition g . h = h = h . f."""


def kar_object(
    summands: Sequence[Word | str],
    idempotent: Sequence[Sequence[DiagMorphism]],
    check: bool = True,
) -> KarObject:
    """Build and (by default) validate an envelope object."""
    ws = tuple(w if isinstance(w, Word) else word(w) for w in summands)
    e = _freeze_blocks(idempotent)
    obj = KarObject(ws, e)
    if check and not _mat_eq(_mat_compose(e, e), e):
        raise NotIdempotentError("block matrix is not idempotent")
    return obj


def kar_word(w: Word | str) -> KarObject:
    """The plain word as an envelope object (identity idempotent)."""
    w = w if isinstance(w, Word) else word(w)
    return KarObject((w,), ((DiagMorphism.identity(w),),))


def kar_unit(flavor: str = "oriented") -> KarObject:
    return kar_word(empty_word(flavor))


def kar_morphism(
    source: KarObject,
    target: KarObject,
    blocks: Sequence[Sequence[DiagMorphism]],
    check: bool = True,
) -> KarMorphism:
    """Build a morphism; by default verify it is absorbed by both idempotents."""
    h = KarMorphism(source, target, _freeze_blocks(blocks))
    if check:
        left = _mat_compose(target.idempotent, h.blocks)
        right = _mat_compose(h.blocks, source.idempotent)
        if not _mat_eq(left, h.blocks) or not _mat_eq(right, h.blocks):
            raise NotAbsorbedError(
                "blocks are not absorbed by the source/target idempotents"
            )
    return h


def kar_sandwich(
    source: KarObject, target: KarObject, blocks: Sequence[Sequence[DiagMorphism]]
) -> KarMorphism:
    """Project raw blocks onto a valid morphism: target.e . blocks . source.e."""
    raw = _freeze_blocks(blocks)
    _check_block_shape(raw, target.summands, source.summands)
    absorbed = _mat_compose(
        target.idempotent, _mat_compose(raw, source.idempotent)
    )
    return KarMorphism(source, target, absorbed)


def kar_diag(f: DiagMorphism) -> KarMorphism:
    """A plain diagram morphism as a map between plain word objects."""
    return KarMorphism(kar_word(f.domain), kar_word(f.codomain), ((f,),))


def kar_identity(obj: KarObject) -> KarMorphism:
    """The identity of (X, e) is e itself."""
    return KarMorphism(obj, obj, obj.idempotent)


def kar_zero(source: KarObject, target: KarObject) -> KarMorphism:
    return KarMorphism(source, target, _placed(source.summands, target.summands, ()))


def kar_compose(f: KarMorphism, g: KarMorphism) -> KarMorphism:
    """The composite f after g."""
    if g.target != f.source:
        raise DiagramTypeError("cannot compose: middle objects differ")
    return KarMorphism(g.source, f.target, _mat_compose(f.blocks, g.blocks))


def kar_add(f: KarMorphism, g: KarMorphism) -> KarMorphism:
    if f.source != g.source or f.target != g.target:
        raise DiagramTypeError("cannot add: boundaries differ")
    return KarMorphism(f.source, f.target, _mat_add(f.blocks, g.blocks))


def kar_scale(f: KarMorphism, c) -> KarMorphism:
    return KarMorphism(
        f.source,
        f.target,
        tuple(tuple(b.scale(c) for b in row) for row in f.blocks),
    )


def _tensor_blocks(a: Blocks, b: Blocks) -> Blocks:
    """Kronecker product of block matrices, left factor major on both axes."""
    return tuple(
        tuple(tensor(x, y) for x in row_a for y in row_b)
        for row_a in a
        for row_b in b
    )


def kar_tensor_objects(a: KarObject, b: KarObject) -> KarObject:
    """Tensor of objects: summand pairs in left-major order."""
    summands = tuple(x + y for x in a.summands for y in b.summands)
    return KarObject(summands, _tensor_blocks(a.idempotent, b.idempotent))


def kar_tensor(f: KarMorphism, g: KarMorphism) -> KarMorphism:
    source = kar_tensor_objects(f.source, g.source)
    target = kar_tensor_objects(f.target, g.target)
    return KarMorphism(source, target, _tensor_blocks(f.blocks, g.blocks))


def kar_direct_sum(objects: Sequence[KarObject]) -> KarObject:
    """Block-diagonal direct sum."""
    summands = tuple(w for obj in objects for w in obj.summands)
    entries = []
    off = 0
    for obj in objects:
        entries.extend(_shifted(obj.idempotent, off, off))
        off += len(obj.summands)
    return KarObject(summands, _placed(summands, summands, entries))


def kar_inclusion(
    parts: Sequence[KarObject], total: KarObject, index: int
) -> KarMorphism:
    """The inclusion of parts[index] into their direct sum."""
    part = parts[index]
    off = sum(len(p.summands) for p in parts[:index])
    blocks = _placed(part.summands, total.summands, _shifted(part.idempotent, off, 0))
    return KarMorphism(part, total, blocks)


def kar_projection(
    parts: Sequence[KarObject], total: KarObject, index: int
) -> KarMorphism:
    """The projection of the direct sum onto parts[index]."""
    part = parts[index]
    off = sum(len(p.summands) for p in parts[:index])
    blocks = _placed(total.summands, part.summands, _shifted(part.idempotent, 0, off))
    return KarMorphism(total, part, blocks)


def kar_braiding(a: KarObject, b: KarObject) -> KarMorphism:
    """The symmetric braiding (A, e) tensor (B, f) -> (B, f) tensor (A, e)."""
    source = kar_tensor_objects(a, b)
    target = kar_tensor_objects(b, a)
    na, nb = len(a.summands), len(b.summands)
    swaps = (
        (j * na + i, i * nb + j, swap_words(wa, wb))
        for i, wa in enumerate(a.summands)
        for j, wb in enumerate(b.summands)
    )
    raw = _placed(source.summands, target.summands, swaps)
    return kar_sandwich(source, target, raw)


# ---------------------------------------------------------------------------
# serialization


def kar_object_to_json_dict(obj: KarObject) -> dict:
    return {
        "summands": [str(w) for w in obj.summands],
        "flavor": obj.flavor,
        "idempotent": [
            [diag_to_json_dict(b) for b in row] for row in obj.idempotent
        ],
    }


def kar_morphism_to_json_dict(f: KarMorphism) -> dict:
    return {
        "source": kar_object_to_json_dict(f.source),
        "target": kar_object_to_json_dict(f.target),
        "blocks": [[diag_to_json_dict(b) for b in row] for row in f.blocks],
    }


def _blocks_from_json(obj, key: str) -> list[list[DiagMorphism]]:
    rows = _json_field(obj, key, list)
    if not all(isinstance(row, list) for row in rows):
        raise DiagramTypeError(f"{key!r} must be a list of block rows")
    return [[diag_from_json_dict(b) for b in row] for row in rows]


def kar_object_from_json_dict(obj: dict) -> KarObject:
    """Read kar_object_to_json_dict's form; malformed input raises
    DiagramTypeError."""
    flavor = _json_field(obj, "flavor", str)
    summands = _json_field(obj, "summands", list)
    if not all(isinstance(s, str) for s in summands):
        raise DiagramTypeError("'summands' must be a list of words")
    e = _blocks_from_json(obj, "idempotent")
    return kar_object([word(s, flavor) for s in summands], e)


def kar_morphism_from_json_dict(obj: dict) -> KarMorphism:
    """Read kar_morphism_to_json_dict's form; malformed input raises
    DiagramTypeError."""
    source = kar_object_from_json_dict(_json_field(obj, "source", dict))
    target = kar_object_from_json_dict(_json_field(obj, "target", dict))
    return kar_morphism(source, target, _blocks_from_json(obj, "blocks"))
