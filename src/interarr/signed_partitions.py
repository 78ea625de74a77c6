"""The signed-partition lattice of type B and its D-type subposets.

Elements are mirror-symmetric partitions of {-n, ..., n}: the block through
0 (the zero block) is self-mirrored, every other block B comes paired with
-B.  The rank of a partition with 2p + 1 blocks is n - p.  Subposets are
cut out by restricting which {k, 0, -k} zero blocks may appear, which
models the lattices of the intermediate arrangements between type D and
type B.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


class ZeroBlockError(ValueError):
    """Raised when a representative is requested for the zero block."""


class EdgeClass(Enum):
    SIGNED = "signed"
    COHERENT = "coherent"
    NON_COHERENT = "non-coherent"


def representative(block) -> int:
    """Least absolute value in a non-zero block."""
    if 0 in block:
        raise ZeroBlockError("the zero block has no representative")
    return min(abs(x) for x in block)


def is_normalized(block) -> bool:
    """A non-zero block is normalized when it contains its representative
    with positive sign."""
    return representative(block) in block


class NotCanonicalError(ValueError):
    """Raised when a valid signed partition breaks the canonical layout."""


class SignedPartition:
    """Canonical encoding, relied on by `_cover_blocks`: every block is a sorted
    tuple; blocks[0] is the zero block; for k = 0, 1, ... the block at 2k+1
    is the normalized block of the k-th mirror pair and the block at 2k+2
    its mirror, with the pairs' representatives strictly increasing."""

    __slots__ = ("n", "blocks", "_hash")

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]):
        self.n = n
        self.blocks = blocks
        self._hash = hash((n, blocks))

    @classmethod
    def from_blocks(cls, n: int, blocks) -> SignedPartition:
        """Canonicalize and validate an iterable of iterables."""
        zero = None
        rest = []
        for b in blocks:
            tb = tuple(sorted(b))
            if 0 in tb:
                if zero is not None:
                    raise ValueError("two blocks contain 0")
                zero = tb
            else:
                rest.append(tb)
        if zero is None:
            raise ValueError("no zero block")
        rest.sort(key=lambda b: (representative(b), not is_normalized(b)))
        part = cls(n, (zero,) + tuple(rest))
        part.validate()
        return part

    def validate(self) -> None:
        """ValueError unless the blocks are a mirror-symmetric partition of
        {-n..n}; NotCanonicalError unless they are in the canonical layout."""
        blocks = self.blocks
        seen = set()
        for b in blocks:
            for x in b:
                if not -self.n <= x <= self.n or x in seen:
                    raise ValueError(f"bad partition element {x}")
                seen.add(x)
        if len(seen) != 2 * self.n + 1:
            raise ValueError("not a partition of {-n..n}")
        block_set = {frozenset(b) for b in blocks}
        for b in blocks:
            if frozenset(-x for x in b) not in block_set:
                raise ValueError(f"mirror of {b} missing")
            if 0 not in b and any(-x in b for x in b):
                raise ValueError(f"self-paired elements outside zero block: {b}")
        if any(list(b) != sorted(b) for b in blocks):
            raise NotCanonicalError("blocks must be sorted tuples")
        if 0 not in blocks[0]:
            raise NotCanonicalError("the zero block must come first")
        prev = 0
        for k in range(1, len(blocks), 2):
            b, mirror = blocks[k], blocks[k + 1]
            rep = representative(b)
            if rep not in b:
                raise NotCanonicalError(f"block {k} is not normalized: {b}")
            if mirror != tuple(sorted(-x for x in b)):
                raise NotCanonicalError(f"block {k + 1} is not the mirror of block {k}")
            if rep <= prev:
                raise NotCanonicalError("representatives must increase")
            prev = rep

    @classmethod
    def bottom(cls, n: int) -> SignedPartition:
        blocks = [(0,)]
        for k in range(1, n + 1):
            blocks.append((k,))
            blocks.append((-k,))
        return cls.from_blocks(n, blocks)

    @property
    def zero_block(self) -> tuple[int, ...]:
        return self.blocks[0]

    @property
    def rank(self) -> int:
        return self.n - (len(self.blocks) - 1) // 2

    def refines(self, other: SignedPartition) -> bool:
        lookup = {}
        for bi, b in enumerate(other.blocks):
            for x in b:
                lookup[x] = bi
        for b in self.blocks:
            if len({lookup[x] for x in b}) != 1:
                return False
        return True

    def __eq__(self, other) -> bool:
        return (isinstance(other, SignedPartition)
                and self.n == other.n and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        return self.blocks < other.blocks

    def __repr__(self) -> str:
        return f"SignedPartition({render(self)!r})"


def render(p: SignedPartition) -> str:
    """Figure-style text: blocks joined by '|', each block written as
    positives ascending, then 0, then negatives by absolute value."""
    parts = []
    for b in p.blocks:
        pos = sorted(x for x in b if x > 0)
        neg = sorted((x for x in b if x < 0), key=abs)
        body = "".join(str(x) for x in pos)
        if 0 in b:
            body += "0"
        body += "".join(str(x) for x in neg)
        parts.append(body)
    return "|".join(parts)


def _cover_blocks(blocks: tuple[tuple[int, ...], ...]) -> list[tuple[tuple[int, ...], ...]]:
    """The canonical block tuples of all covers in the full type-B lattice:
    one mirror pair folds into the zero block, or two mirror classes merge
    (in two inequivalent ways, keeping the mirror symmetry).

    The layout fixes where every block goes: a fold of pair k drops the
    blocks at 2k+1 and 2k+2 and sorts only the new zero block; a merge of
    pairs i < j puts the two merged blocks at i's positions (the smaller
    representative stays normalized) and drops j's pair."""
    zero = blocks[0]
    m = len(blocks)
    out = [(tuple(sorted(zero + blocks[k] + blocks[k + 1])),) + blocks[1:k] + blocks[k + 2:]
           for k in range(1, m, 2)]
    for i in range(1, m, 2):
        b, nb = blocks[i], blocks[i + 1]
        head = blocks[:i]
        for j in range(i + 2, m, 2):
            c, nc = blocks[j], blocks[j + 1]
            rest = blocks[i + 2:j] + blocks[j + 2:]
            out.append(head + (tuple(sorted(b + c)), tuple(sorted(nb + nc))) + rest)
            out.append(head + (tuple(sorted(b + nc)), tuple(sorted(nb + c))) + rest)
    return out


def decode_cover(x: SignedPartition, y: SignedPartition) -> tuple[EdgeClass, int, int]:
    """Read the cover x < y once: its edge class and the representatives
    i <= j of the two merged x-classes, (r, r) when the pair of r folds into
    the zero block.  A merge is coherent when j lies in the new normalized
    block, the y-block of i.

    Both partitions must be in the canonical layout, as `from_blocks` and
    `enumerate_lattice` make them: the first mirror pair k where the blocks differ is
    folded when the zero block changed, and otherwise merged with the next
    differing pair l.  y must then equal the one block tuple that
    `_cover_blocks` builds for that fold or merge, else NotACoverError.
    NotCanonicalError when a block read from x lacks its representative
    (a pair stored mirror first); other layout faults are not detected."""
    xb, yb = x.blocks, y.blocks
    m = len(xb)
    if x.n != y.n or len(yb) != m - 2:
        raise NotACoverError(x=x, y=y)
    k = 1
    while k < m - 2 and xb[k] == yb[k]:
        k += 2
    b, nb = xb[k], xb[k + 1]
    i = min(map(abs, b))
    if i not in b:
        raise NotCanonicalError(f"block {k} is not normalized: {b}")
    if xb[0] != yb[0]:
        if yb == (tuple(sorted(xb[0] + b + nb)),) + xb[1:k] + xb[k + 2:]:
            return EdgeClass.SIGNED, i, i
        raise NotACoverError(x=x, y=y)
    l = k + 2
    while l < m - 2 and xb[l] == yb[l]:
        l += 2
    if l >= m:
        raise NotACoverError(x=x, y=y)
    c, nc = xb[l], xb[l + 1]
    j = min(map(abs, c))
    if j not in c:
        raise NotCanonicalError(f"block {l} is not normalized: {c}")
    rest = xb[k + 2:l] + xb[l + 2:]
    if j in yb[k]:
        cls, merged = EdgeClass.COHERENT, (tuple(sorted(b + c)), tuple(sorted(nb + nc)))
    else:
        cls, merged = EdgeClass.NON_COHERENT, (tuple(sorted(b + nc)), tuple(sorted(nb + c)))
    if yb == xb[:k] + merged + rest:
        return cls, i, j
    raise NotACoverError(x=x, y=y)


@dataclass(frozen=True)
class LatticeVariant:
    """Which {k, 0, -k} zero blocks are admitted: all of them for the full
    type-B lattice, none for type D, {1..s} for the intermediate family."""

    n: int
    allowed: frozenset[int]

    def admits(self, p: SignedPartition) -> bool:
        z = p.zero_block
        if len(z) == 3:
            return z[2] in self.allowed
        return True


def variant_b(n: int) -> LatticeVariant:
    return LatticeVariant(n, frozenset(range(1, n + 1)))


def variant_dns(n: int, s: int) -> LatticeVariant:
    if not 0 <= s <= n:
        raise ValueError(f"s={s} out of range")
    return LatticeVariant(n, frozenset(range(1, s + 1)))


def enumerate_lattice(v: LatticeVariant) -> GradedLattice:
    """All partitions of the variant, graded by rank, with cover adjacency.

    Rank-synchronous generation from the bottom.  Cover candidates are
    block tuples; each distinct one becomes a single SignedPartition, which
    `v.admits` keeps or drops.  Each rank is numbered in sorted order and
    parents are visited in id order, so every cover list comes out sorted.
    """
    bottom = SignedPartition.bottom(v.n)
    elements: list[SignedPartition] = [bottom]
    cover_lists: list[list[int]] = [[]]
    layer = [(0, bottom.blocks)]
    top = 0
    while layer:
        parents: dict[tuple, list[int]] = {}
        for pid, blocks in layer:
            for q in _cover_blocks(blocks):
                ups = parents.get(q)
                if ups is None:
                    parents[q] = [pid]
                else:
                    ups.append(pid)
        layer = []
        for q in sorted(parents):
            p = SignedPartition(v.n, q)
            if v.admits(p):
                qid = len(elements)
                elements.append(p)
                cover_lists.append([])
                for pid in parents[q]:
                    cover_lists[pid].append(qid)
                layer.append((qid, q))
        if layer:
            top = layer[0][0]
    return GradedLattice(elements, [p.rank for p in elements], cover_lists, 0, top)
