"""The signed-partition lattice of type B and its D-type subposets.

Elements are mirror-symmetric partitions of {-n, ..., n}: the block through
0 (the zero block) is self-mirrored, every other block B comes paired with
-B.  The rank of a partition with 2p + 1 blocks is n - p.  The lattice of
dns(n, s), type D at s = 0 and type B at s = n, is the part of B_n with
no zero block {k, 0, -k}, k > s: `enumerate_lattice(n, s)` filters it
from B_n, enumerated once for the last n asked.  A filtered lattice
records where in B_n its elements and covers come from, and reads its
edge labels through the `LabelMemo` kept with B_n: one slot per cover of
B_n for the last labeler asked.

A block is an int mask in absolute-value order: bit 0 is 0, bit 2r-1 is +r
and bit 2r is -r.  A non-zero block's representative, its least absolute
value, is then (b & -b).bit_length() >> 1, and the block is normalized (it
holds its representative with positive sign) when its lowest set bit is
odd.  A fold or a merge is an or of masks.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .lattice import GradedLattice


class NotACoverError(ValueError):
    """Raised when an edge operation is applied to a non-cover pair.  Given
    the pair as x and y, it renders them only when its message is read."""

    def __init__(self, *args, x=None, y=None):
        super().__init__(*args)
        self.x, self.y = x, y

    def __str__(self) -> str:
        if self.x is None:
            return super().__str__()
        return f"{render(self.x)} is not covered by {render(self.y)}"


class EdgeClass(Enum):
    SIGNED = "signed"
    COHERENT = "coherent"
    NON_COHERENT = "non-coherent"


# The members under module-level names: a cover's class is read from a
# global, not looked up on the enum once per call.
_SIGNED, _COHERENT, _NON_COHERENT = EdgeClass.SIGNED, EdgeClass.COHERENT, EdgeClass.NON_COHERENT


class NotCanonicalError(ValueError):
    """Raised when a valid signed partition breaks the canonical layout."""


class SignedPartition:
    """A signed partition of {-n..n}, stored as one int mask per block.

    The canonical layout, relied on by `_cover_masks` and `decode_cover`:
    masks[0] is the zero block; for k = 0, 1, ... the mask at 2k+1 is the
    normalized block of the k-th mirror pair and the mask at 2k+2 its
    mirror, with the pairs' representatives strictly increasing.

    Block tuples exist only at the boundary.  The raw constructor takes
    sorted tuples already in this layout and rejects only what a mask
    cannot hold, an unsorted block or a repeated element; `validate` checks
    the rest.  `from_blocks` takes blocks in any order, and `blocks` and
    `render` give them back."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, blocks):
        masks = []
        for b in map(tuple, blocks):
            masks.append(_mask(b))
            if list(b) != sorted(b):
                raise NotCanonicalError("blocks must be sorted tuples")
        self.n = n
        self.masks = tuple(masks)

    @classmethod
    def _from_masks(cls, n: int, masks: tuple[int, ...]) -> SignedPartition:
        """The partition of masks already in the layout; nothing is checked."""
        p = object.__new__(cls)
        p.n = n
        p.masks = masks
        return p

    @classmethod
    def from_blocks(cls, n: int, blocks) -> SignedPartition:
        """Canonicalize and validate an iterable of iterables."""
        zero = None
        rest = []
        for b in blocks:
            m = _mask(b)
            if m & 1:
                if zero is not None:
                    raise ValueError("two blocks contain 0")
                zero = m
            else:
                rest.append(m)
        if zero is None:
            raise ValueError("no zero block")
        # the lowest set bit orders by representative, normalized first
        rest.sort(key=lambda m: m & -m)
        part = cls._from_masks(n, (zero, *rest))
        part.validate()
        return part

    def validate(self) -> None:
        """ValueError unless the blocks are a mirror-symmetric partition of
        {-n..n}; NotCanonicalError unless they are in the canonical layout."""
        masks = self.masks
        full = (1 << 2 * self.n + 1) - 1
        odd = (full >> 1) // 3 << 1          # the bits of +1..+n
        seen = 0
        for b in masks:
            if not b:
                raise ValueError("empty block")
            bad = b & (seen | ~full)
            if bad:
                raise ValueError(f"bad partition element {_elements(bad)[0]}")
            seen |= b
        if seen != full:
            raise ValueError("not a partition of {-n..n}")
        mirrors = [(b & 1) | ((b & odd) << 1) | ((b >> 1) & odd) for b in masks]
        present = set(masks)
        for b, nb in zip(masks, mirrors):
            if nb not in present:
                raise ValueError(f"mirror of {_elements(b)} missing")
            if not b & 1 and b & nb:
                raise ValueError(f"self-paired elements outside zero block: {_elements(b)}")
        if not masks[0] & 1:
            raise NotCanonicalError("the zero block must come first")
        prev = 0
        for k in range(1, len(masks), 2):
            b = masks[k]
            low = (b & -b).bit_length()
            if low & 1:
                raise NotCanonicalError(f"block {k} is not normalized: {_elements(b)}")
            if masks[k + 1] != mirrors[k]:
                raise NotCanonicalError(f"block {k + 1} is not the mirror of block {k}")
            if low >> 1 <= prev:
                raise NotCanonicalError("representatives must increase")
            prev = low >> 1

    @classmethod
    def bottom(cls, n: int) -> SignedPartition:
        blocks = [(0,)]
        for k in range(1, n + 1):
            blocks.append((k,))
            blocks.append((-k,))
        return cls.from_blocks(n, blocks)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as sorted tuples, in the layout's order."""
        return tuple(map(_elements, self.masks))

    @property
    def rank(self) -> int:
        return self.n - (len(self.masks) - 1) // 2

    def refines(self, other: SignedPartition) -> bool:
        return all(any(b | c == c for c in other.masks) for b in self.masks)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SignedPartition)
                and self.n == other.n and self.masks == other.masks)

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"SignedPartition({render(self)!r})"


def _mask(block) -> int:
    """The mask of an iterable of elements of {-n..n}."""
    m = 0
    for x in block:
        bit = 1 << (2 * x - 1 if x > 0 else -2 * x)
        if m & bit:
            raise ValueError(f"bad partition element {x}")
        m |= bit
    return m


def _elements(m: int) -> tuple[int, ...]:
    """The elements of a block mask, ascending."""
    down = [0] if m & 1 else []          # 0, -1, -2, ... as found
    up = []
    r = 1
    m >>= 1
    while m:
        if m & 1:
            up.append(r)
        if m & 2:
            down.append(-r)
        m >>= 2
        r += 1
    return tuple(down[::-1] + up)


def render(p: SignedPartition) -> str:
    """Figure-style text: blocks joined by '|', each block written as
    positives ascending, then 0, then negatives by absolute value."""
    return "|".join("".join(str(x) for x in b if x > 0) + "0" * (0 in b)
                    + "".join(str(x) for x in reversed(b) if x < 0)
                    for b in p.blocks)


def _cover_masks(masks: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The canonical masks of all covers in the full type-B lattice: one
    mirror pair folds into the zero block, or two mirror classes merge (in
    two inequivalent ways, keeping the mirror symmetry).

    The layout fixes where every block goes: a fold of pair k drops the
    masks at 2k+1 and 2k+2 and ors them into the zero block; a merge of
    pairs i < j puts the two merged masks at i's positions (the smaller
    representative stays normalized) and drops j's pair."""
    zero = masks[0]
    m = len(masks)
    out = [(zero | masks[k] | masks[k + 1],) + masks[1:k] + masks[k + 2:]
           for k in range(1, m, 2)]
    for i in range(1, m, 2):
        b, nb = masks[i], masks[i + 1]
        head = masks[:i]
        for j in range(i + 2, m, 2):
            c, nc = masks[j], masks[j + 1]
            rest = masks[i + 2:j] + masks[j + 2:]
            out.append(head + (b | c, nb | nc) + rest)
            out.append(head + (b | nc, nb | c) + rest)
    return out


def decode_cover(x: SignedPartition, y: SignedPartition) -> tuple[EdgeClass, int, int]:
    """Read the cover x < y once: its edge class and the representatives
    i <= j of the two merged x-classes, (r, r) when the pair of r folds into
    the zero block.  A merge is coherent when j lies in the new normalized
    block, the y-block of i.

    Both partitions must be in the canonical layout, as `from_blocks` and
    `enumerate_lattice` make them: the first mirror pair k where the masks
    differ is folded when the zero block changed, and otherwise merged with
    the next differing pair l.  y must then equal the one mask tuple that
    `_cover_masks` builds for that fold or merge, else NotACoverError.
    NotCanonicalError when a block read from x lacks its representative
    (a pair stored mirror first); other layout faults are not detected."""
    xb, yb = x.masks, y.masks
    m = len(xb)
    if x.n != y.n or len(yb) != m - 2:
        raise NotACoverError(x=x, y=y)
    k = 1
    while k < m - 2 and xb[k] == yb[k]:
        k += 2
    b, nb = xb[k], xb[k + 1]
    low = (b & -b).bit_length()
    if low & 1:
        raise NotCanonicalError(f"block {k} is not normalized: {_elements(b)}")
    i = low >> 1
    if xb[0] != yb[0]:
        if yb == (xb[0] | b | nb,) + xb[1:k] + xb[k + 2:]:
            return _SIGNED, i, i
        raise NotACoverError(x=x, y=y)
    l = k + 2
    while l < m - 2 and xb[l] == yb[l]:
        l += 2
    if l >= m:
        raise NotACoverError(x=x, y=y)
    c, nc = xb[l], xb[l + 1]
    low = c & -c
    if low.bit_length() & 1:
        raise NotCanonicalError(f"block {l} is not normalized: {_elements(c)}")
    # low is the bit of +j
    if yb[k] & low:
        cls, merged = _COHERENT, (b | c, nb | nc)
    else:
        cls, merged = _NON_COHERENT, (b | nc, nb | c)
    if yb == xb[:k] + merged + xb[k + 2:l] + xb[l + 2:]:
        return cls, i, low.bit_length() >> 1
    raise NotACoverError(x=x, y=y)


def _admitted(p: SignedPartition, s: int) -> bool:
    """Whether p is a flat of dns(n, s): its zero block is not {k, 0, -k}
    with k > s."""
    z = p.masks[0]
    # a zero block {-k, 0, k} has three bits, the highest at 2k
    return z.bit_count() != 3 or z.bit_length() >> 1 <= s


class LabelMemo:
    """The labels of B_n's covers for one labeler, kept with B_n.

    rows[i] is None until some lattice filtered from B_n asks for a label
    of a cover of element i; then it is a list parallel to covers[i] that
    holds each label asked for, and None in the other places.  The labeler
    is held by reference and compared with `is`, so its id is never reused
    while its labels are kept; another labeler empties every row.  The memo
    is exact because a labeler is a function of the two partitions, and
    every filtered lattice shares B_n's element objects."""

    __slots__ = ("covers", "labeler", "rows")

    def __init__(self, covers):
        self.covers = covers
        self.labeler = None
        self.rows: list = []

    def rows_for(self, labeler) -> list:
        """The rows of labeler, emptied first if it is not the last one asked."""
        if labeler is not self.labeler:
            self.labeler = labeler
            self.rows = [None] * len(self.covers)
        return self.rows


class FilteredLattice(GradedLattice):
    """A lattice filtered from B_n, which shares B_n's elements and label
    memo: element i is element source[i] of B_n, and its covers are those
    at positions kept[i] of that element's cover list in B_n, or all of
    them when kept[i] is None."""

    __slots__ = ("memo", "source", "kept")

    def __init__(self, elements, rank, covers, memo, source, kept):
        super().__init__(elements, rank, covers)
        self.memo = memo
        self.source = source
        self.kept = kept

    def edge_labels(self, labeler):
        """As `GradedLattice.edge_labels`, calling the labeler only for a cover
        of B_n not yet in its memo.  A row may be the memo's own: read only."""
        elements, memo = self.elements, self.memo
        rows = memo.rows_for(labeler)
        out = []
        for x, ups, b, kept in zip(elements, self.covers, self.source, self.kept):
            row = rows[b]
            if row is None:
                row = rows[b] = [None] * len(memo.covers[b])
            if kept is None:                # every cover of b is kept
                if None in row:
                    _fill(row, range(len(ups)), x, ups, elements, labeler)
            else:
                _fill(row, kept, x, ups, elements, labeler)
                row = [row[k] for k in kept]
            out.append(row)
        return out


def _fill(row, at, x, ups, elements, labeler) -> None:
    """Label each cover x < elements[ups[p]] whose place at[p] in row is empty."""
    for k, j in zip(at, ups):
        if row[k] is None:
            row[k] = labeler(x, elements[j])


@lru_cache(maxsize=1)
def _type_b_lattice(n: int):
    """B_n as (elements, ranks, covers, memo) for the last n asked, memo its
    `LabelMemo`, dropped with it.

    Rank-synchronous generation from the bottom: each distinct cover
    candidate, a mask tuple, becomes a single SignedPartition.  Each rank is
    numbered in the sorted order of its block tuples and parents are
    visited in id order, so every cover list comes out sorted."""
    elements: list[SignedPartition] = [SignedPartition.bottom(n)]
    cover_lists: list[list[int]] = [[]]
    layer = [(0, elements[0].masks)]
    tuples: dict[int, tuple[int, ...]] = {}     # block mask -> sorted block tuple
    while layer:
        parents: dict[tuple[int, ...], list[int]] = {}
        for pid, masks in layer:
            for q in _cover_masks(masks):
                parents.setdefault(q, []).append(pid)
        tuples.update((b, _elements(b)) for q in parents for b in q if b not in tuples)
        layer = []
        for q in sorted(parents, key=lambda q: tuple(map(tuples.__getitem__, q))):
            qid = len(elements)
            elements.append(SignedPartition._from_masks(n, q))
            cover_lists.append([])
            for pid in parents[q]:
                cover_lists[pid].append(qid)
            layer.append((qid, q))
    covers = tuple(map(tuple, cover_lists))
    return tuple(elements), tuple(p.rank for p in elements), covers, LabelMemo(covers)


def enumerate_lattice(n: int, s: int) -> FilteredLattice:
    """The lattice of dns(n, s), B_n when s = n: the partitions of B_n with
    no zero block {k, 0, -k}, k > s, renumbered in order, recording where
    in B_n each element and cover comes from.  They are the flats of a
    subarrangement of B_n, so each one above the bottom covers a kept one
    and the filter misses none."""
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got n={n}, s={s}")
    elements, ranks, covers, memo = _type_b_lattice(n)
    source = [i for i, p in enumerate(elements) if _admitted(p, s)]
    new_id = {i: k for k, i in enumerate(source)}
    rows = [[new_id[j] for j in covers[i] if j in new_id] for i in source]
    # the positions of the kept covers in B_n's cover list, None for all
    kept = [None if len(row) == len(covers[i])
            else [k for k, j in enumerate(covers[i]) if j in new_id]
            for i, row in zip(source, rows)]
    return FilteredLattice([elements[i] for i in source], [ranks[i] for i in source],
                           rows, memo, tuple(source), kept)
