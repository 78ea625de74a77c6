import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interarr.arrangement import intersection_lattice, make_family
from interarr.labeling import label_set
from interarr.lattice import GradedLattice, NotComparableError, lattice_isomorphic
from interarr.signed_partitions import (EdgeClass, NotACoverError, NotCanonicalError,
                                        SignedPartition, _admitted, _cover_masks,
                                        _mask, _type_b_lattice, decode_cover,
                                        enumerate_lattice, render)
from test_arrangement import check_graded


# The tuple representation that the block masks replaced: every block a
# sorted tuple of elements, so a fold or a merge concatenates blocks and
# sorts them again.  Kept as oracles for the mask code.

class ZeroBlockError(ValueError):
    """Raised when a representative is requested for the zero block."""


def representative(block) -> int:
    """Least absolute value in a non-zero block."""
    if 0 in block:
        raise ZeroBlockError("the zero block has no representative")
    return min(abs(x) for x in block)


def is_normalized(block) -> bool:
    """A non-zero block is normalized when it contains its representative
    with positive sign."""
    return representative(block) in block


def _cover_blocks(blocks):
    """The canonical block tuples of all covers in the full type-B lattice,
    in the order `_cover_masks` gives them."""
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


def decode_cover_by_tuples(x, y):
    """`decode_cover` on block tuples: the same reading of the layout, with
    each fold or merge rebuilt by sorting."""
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


def _refines_by_tuples(x, y):
    lookup = {e: bi for bi, b in enumerate(y.blocks) for e in b}
    return all(len({lookup[e] for e in b}) == 1 for b in x.blocks)


def _label_set_by_tuples(x, y):
    if not (x.rank <= y.rank and _refines_by_tuples(x, y)):
        raise NotComparableError("label_set requires x <= y")
    out = set()
    for yb in y.blocks:
        yset = set(yb)
        mins = sorted(0 if 0 in b else representative(b)
                      for b in x.blocks if set(b) <= yset)
        out.update(mins[1:])
    return frozenset(out)


def _admits_by_tuples(p, s):
    z = p.blocks[0]
    return z[2] <= s if len(z) == 3 else True


def _render_by_tuples(p):
    parts = []
    for b in p.blocks:
        pos = sorted(x for x in b if x > 0)
        neg = sorted((x for x in b if x < 0), key=abs)
        parts.append("".join(map(str, pos)) + ("0" if 0 in b else "") + "".join(map(str, neg)))
    return "|".join(parts)

PI_B_SIZES = {1: 2, 2: 6, 3: 24, 4: 116, 5: 648}


def test_lattice_sizes():
    for n, size in PI_B_SIZES.items():
        assert len(enumerate_lattice(n, n)) == size


def test_b2_shape():
    lat = enumerate_lattice(2, 2)
    assert sorted(lat.rank) == [0, 1, 1, 1, 1, 2]
    check_graded(lat)


def test_d3_matches_figure_node_count():
    assert len(enumerate_lattice(3, 0)) == 15


def test_variant_coincidences():
    # B_n is dns(n, n): the filter keeps every element and every cover
    for n in (2, 3, 4):
        elements, _, covers, _ = _type_b_lattice(n)
        lat = enumerate_lattice(n, n)
        assert lat.elements == elements and lat.covers == covers
        assert lat.kept == [None] * len(elements)


@pytest.mark.parametrize("n, s", [(3, 4), (3, -1), (-1, 0)])
def test_enumerate_lattice_rejects_s_outside_0_to_n(n, s):
    with pytest.raises(ValueError, match=f"n={n}, s={s}"):
        enumerate_lattice(n, s)


def test_element_invariants_exhaustive():
    for n in range(1, 6):
        lat = enumerate_lattice(n, n)
        for p in lat.elements:
            p.validate()
            assert p.rank == n - (len(p.blocks) - 1) // 2
            assert 0 in p.blocks[0]


def test_bottom_covers_and_coatom():
    bottom = SignedPartition.bottom(2)
    assert len(_cover_blocks(bottom.blocks)) == 4
    assert len(_cover_masks(bottom.masks)) == 4
    coatoms = [p for p in enumerate_lattice(3, 3).elements
               if len(p.blocks) == 3]
    for c in coatoms:
        assert _cover_blocks(c.blocks) == [(tuple(range(-3, 4)),)]
        assert _cover_masks(c.masks) == [(2 ** 7 - 1,)]


def test_covers_raise_rank_by_one():
    for n in (2, 3, 4):
        lat = enumerate_lattice(n, n)
        for i, ups in enumerate(lat.covers):
            for j in ups:
                assert lat.rank[j] == lat.rank[i] + 1


def test_maximal_chain_count_is_factorial_squared():
    for n in (2, 3, 4):
        lat = enumerate_lattice(n, n)
        count = sum(1 for _ in lat.maximal_chains(lat.bottom, lat.top))
        assert count == math.factorial(n) ** 2


def test_representative():
    assert representative((2, -4, 5)) == 2 and is_normalized((2, -4, 5))
    assert representative((-2, 4, -5)) == 2 and not is_normalized((-2, 4, -5))
    assert representative((7,)) == 7 and is_normalized((7,))
    with pytest.raises(ZeroBlockError):
        representative((-1, 0, 1))
    # the mask rules: the lowest set bit gives the representative, and its
    # position is odd exactly on a normalized block
    for block in [(2, -4, 5), (-2, 4, -5), (7,), (-7,), (-3, 1), (-1, 3)]:
        low = (_mask(block) & -_mask(block)).bit_length()
        assert low >> 1 == representative(block)
        assert low % 2 == 0 if is_normalized(block) else low % 2 == 1


def test_classify_edge_examples():
    x = SignedPartition.bottom(2)
    signed = SignedPartition.from_blocks(2, [(-1, 0, 1), (2,), (-2,)])
    coherent = SignedPartition.from_blocks(2, [(0,), (1, 2), (-1, -2)])
    non_coherent = SignedPartition.from_blocks(2, [(0,), (1, -2), (-1, 2)])
    assert decode_cover(x, signed)[0] == EdgeClass.SIGNED
    assert decode_cover(x, coherent)[0] == EdgeClass.COHERENT
    assert decode_cover(x, non_coherent)[0] == EdgeClass.NON_COHERENT
    with pytest.raises(NotACoverError) as exc:
        decode_cover(x, SignedPartition.from_blocks(2, [range(-2, 3)]))
    assert str(exc.value) == "0|1|-1|2|-2 is not covered by 120-1-2"


def test_render_style():
    p = SignedPartition.from_blocks(3, [(-1, 0, 1, 3, -3), (2,), (-2,)])
    assert render(p) == "130-1-3|2|-2"
    assert render(SignedPartition.bottom(2)) == "0|1|-1|2|-2"


def _zero_size(p):
    return len(p.blocks[0])


def test_subposet_edge_laws():
    # crossing between the D-part and its complement always uses a signed edge
    for n in (2, 3, 4):
        lat = enumerate_lattice(n, n)
        for i, ups in enumerate(lat.covers):
            x = lat.elements[i]
            for j in ups:
                y = lat.elements[j]
                x_in_d = _zero_size(x) != 3
                y_in_d = _zero_size(y) != 3
                if x_in_d != y_in_d:
                    assert decode_cover(x, y)[0] == EdgeClass.SIGNED, (render(x), render(y))


def test_no_edge_between_different_singleton_zero_blocks():
    for n in (2, 3, 4):
        lat = enumerate_lattice(n, n)
        for i, ups in enumerate(lat.covers):
            x = lat.elements[i]
            if _zero_size(x) != 3:
                continue
            for j in ups:
                y = lat.elements[j]
                if _zero_size(y) == 3:
                    assert x.blocks[0] == y.blocks[0]


def test_one_jump_law():
    # a maximal chain either avoids the new elements of the s-th step or
    # passes through them in one contiguous stretch entered and left once
    for n in (2, 3, 4):
        for s in range(1, n + 1):
            lat = enumerate_lattice(n, s)
            marker = tuple(sorted((-s, 0, s)))
            for chain in lat.maximal_chains(lat.bottom, lat.top):
                flags = [lat.elements[v].blocks[0] == marker for v in chain]
                jumps = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
                assert jumps in (0, 2)


def test_lattice_isomorphic_to_arrangement_side():
    for n in (2, 3, 4, 5):
        assert lattice_isomorphic(enumerate_lattice(n, n),
                                  intersection_lattice(make_family("b", n)))
    for n in (2, 3, 4):
        for s in range(n + 1):
            assert lattice_isomorphic(enumerate_lattice(n, s),
                                      intersection_lattice(make_family("dns", n, s)))


def test_lattice_isomorphic_negative_and_reflexive():
    b3 = enumerate_lattice(3, 3)
    d3 = enumerate_lattice(3, 0)
    assert not lattice_isomorphic(b3, d3)
    assert lattice_isomorphic(b3, b3)


def test_from_blocks_validation():
    with pytest.raises(ValueError):
        SignedPartition.from_blocks(2, [(0,), (1, -1), (2,), (-2,)])
    with pytest.raises(ValueError):
        SignedPartition.from_blocks(2, [(0,), (1, 2), (-1,), (-2,)])
    with pytest.raises(ValueError):
        SignedPartition.from_blocks(2, [(0, 1), (-1,), (2,), (-2,)])


def test_validate_rejects_non_canonical_layout():
    def raw(*blocks):
        return SignedPartition(3, tuple(blocks))

    # the canonical form of 0|12|-1-2|3|-3 passes
    raw((0,), (1, 2), (-2, -1), (3,), (-3,)).validate()
    with pytest.raises(NotCanonicalError, match="not the mirror"):
        raw((0,), (1, 2), (3,), (-2, -1), (-3,)).validate()
    with pytest.raises(NotCanonicalError, match="representatives must increase"):
        raw((0,), (3,), (-3,), (1, 2), (-2, -1)).validate()
    with pytest.raises(NotCanonicalError, match="not normalized"):
        raw((0,), (-2, -1), (1, 2), (3,), (-3,)).validate()
    with pytest.raises(NotCanonicalError, match="zero block must come first"):
        raw((1, 2), (-2, -1), (0,), (3,), (-3,)).validate()
    with pytest.raises(NotCanonicalError, match="sorted"):
        raw((0,), (2, 1), (-2, -1), (3,), (-3,)).validate()
    # a broken partition is still a plain ValueError, not a layout error
    with pytest.raises(ValueError) as err:
        raw((0,), (1, 2), (-1,), (-2,), (3,), (-3,)).validate()
    assert not isinstance(err.value, NotCanonicalError)


def test_raw_constructor_rejects_what_a_mask_cannot_hold():
    # an unsorted block or an element repeated inside a block has no mask,
    # so the raw constructor rejects it at once instead of leaving it to
    # validate; everything else a mask can hold still waits for validate
    with pytest.raises(NotCanonicalError, match="blocks must be sorted tuples"):
        SignedPartition(3, ((0,), (2, 1), (-2, -1), (3,), (-3,)))
    with pytest.raises(ValueError, match="bad partition element 1") as err:
        SignedPartition(3, ((0,), (1, 1, 2), (-2, -1), (3,), (-3,)))
    assert not isinstance(err.value, NotCanonicalError)
    for blocks, message in [
        (((0,), (1, 2), (-2, -1), (3,), (-3,), (3,)), "bad partition element 3"),
        (((0,), (1, 2), (-2, -1), (4,), (-4,)), "bad partition element 4"),
        (((0,), (1, 2), (-2, -1)), "not a partition"),
        (((0,), (1, 2), (-2, -1), ()), "empty block"),
        (((0,), (1, 2), (-2, -1), (-3, 3)), "self-paired"),
    ]:
        p = SignedPartition(3, blocks)
        assert p.blocks == blocks
        with pytest.raises(ValueError, match=message) as err:
            p.validate()
        assert not isinstance(err.value, NotCanonicalError)


# The sort-based generator that `_cover_blocks` and `enumerate_lattice` replaced:
# every cover is re-sorted by (representative, mirrored-last) and the
# lattice deduplicates SignedPartition objects.  Kept as an oracle.

def _canon_key(block):
    rep = min(abs(x) for x in block)
    return (rep, 0 if rep in block else 1)


def _merge_sorted(*blocks):
    return tuple(sorted(x for b in blocks for x in b))


def _covers_by_sorting(p):
    zero = p.blocks[0]
    classes = [b for b in p.blocks[1:] if is_normalized(b)]
    neg = {b: tuple(sorted(-x for x in b)) for b in classes}
    others = list(p.blocks[1:])

    def build(removed, new_blocks):
        rest = [b for b in others if b not in removed] + list(new_blocks[1:])
        rest.sort(key=_canon_key)
        return SignedPartition(p.n, (new_blocks[0],) + tuple(rest))

    out = [build({b, neg[b]}, (_merge_sorted(zero, b, neg[b]),)) for b in classes]
    for i, b in enumerate(classes):
        for c in classes[i + 1:]:
            removed = {b, c, neg[b], neg[c]}
            out.append(build(removed, (zero, _merge_sorted(b, c), _merge_sorted(neg[b], neg[c]))))
            out.append(build(removed, (zero, _merge_sorted(b, neg[c]), _merge_sorted(neg[b], c))))
    return out


def _enumerate_by_sorting(n, s):
    bottom = SignedPartition.bottom(n)
    elements = [bottom]
    ids = {bottom: 0}
    cover_lists = [[]]
    layer = [bottom]
    while layer:
        pending = []
        nxt = set()
        for p in layer:
            for q in _covers_by_sorting(p):
                if _admits_by_tuples(q, s):
                    pending.append((ids[p], q))
                    nxt.add(q)
        layer = sorted(nxt, key=lambda q: q.blocks)
        for q in layer:
            ids[q] = len(elements)
            elements.append(q)
            cover_lists.append([])
        for pid, q in pending:
            cover_lists[pid].append(ids[q])
    for lst in cover_lists:
        lst.sort()
    return GradedLattice(elements, [p.rank for p in elements], cover_lists)


def _same_lattice(a, b):
    assert a.elements == b.elements
    assert a.rank == b.rank
    assert a.covers == b.covers
    assert (a.bottom, a.top) == (b.bottom, b.top)


def test_covers_match_sorting_oracle_on_b1_to_b6():
    for n in range(1, 7):
        lat = _enumerate_by_sorting(n, n)
        for p in lat.elements:
            got = _cover_blocks(p.blocks)
            assert got == [q.blocks for q in _covers_by_sorting(p)], render(p)
            ups = [SignedPartition(p.n, q) for q in got]
            for q in ups:
                q.validate()
            assert [q.masks for q in ups] == _cover_masks(p.masks)


def test_lattices_match_sorting_oracle():
    for n in range(1, 7):
        _same_lattice(enumerate_lattice(n, n), _enumerate_by_sorting(n, n))


def test_filtered_lattices_match_sorting_oracle_for_every_s():
    # the filter of B_n is exact only because every kept partition above
    # the bottom covers a kept one; the oracle reaches elements through
    # kept covers alone, so an s where that fails would give two
    # different lattices here
    for n in range(1, 6):
        for s in range(n + 1):
            _same_lattice(enumerate_lattice(n, s), _enumerate_by_sorting(n, s))


def test_type_b_cache_keeps_one_n_and_shares_only_elements():
    a, b = enumerate_lattice(4, 2), enumerate_lattice(4, 2)
    assert a is not b
    assert all(x is y for x, y in zip(a.elements, b.elements, strict=True))
    assert a.leq(a.bottom, a.top)
    assert a._down_masks is not None and b._down_masks is None
    assert a.memo is b.memo is enumerate_lattice(4, 4).memo
    enumerate_lattice(3, 3)
    enumerate_lattice(5, 1)
    assert _type_b_lattice.cache_info().currsize <= 1
    # switching n dropped B_4 and its label memo with it
    assert enumerate_lattice(4, 2).memo is not a.memo
    lat = enumerate_lattice(1, 0)
    assert len(lat) == 1 and lat.top == lat.bottom


def test_dns6_sizes_grow_linearly_in_s():
    for s in range(7):
        lat = enumerate_lattice(6, s)
        assert (len(lat), sum(map(len, lat.covers))) == (2546 + 257 * s, 16396 + 1998 * s)


def test_decode_cover_matches_tuple_decoder_on_every_ordered_pair():
    # every ordered pair of elements, covers or not, including x == y and
    # pairs going down: the same value or the same exception class
    variants = [(n, n) for n in range(1, 5)] + [(4, s) for s in range(5)]
    pairs = covers = 0
    for v in variants:
        elements = enumerate_lattice(*v).elements
        for x in elements:
            for y in elements:
                pairs += 1
                try:
                    want = decode_cover_by_tuples(x, y)
                except ValueError as exc:
                    with pytest.raises(type(exc)):
                        decode_cover(x, y)
                    continue
                covers += 1
                assert decode_cover(x, y) == want
    assert pairs == 59462 and covers > 0


@st.composite
def signed_partitions(draw, n=None):
    """A signed partition of {-n..n}, n <= 7: each r joins the zero block
    or one of up to n mirror classes, with a sign."""
    n = draw(st.integers(1, 7)) if n is None else n
    classes = {}
    zero = [0]
    for r in range(1, n + 1):
        cls = draw(st.integers(0, n))
        if cls == 0:
            zero += [r, -r]
        else:
            classes.setdefault(cls, []).append(r * draw(st.sampled_from((1, -1))))
    blocks = [zero] + list(classes.values()) + [[-x for x in b] for b in classes.values()]
    order = draw(st.permutations(range(len(blocks))))
    return SignedPartition.from_blocks(n, [blocks[i] for i in order])


@st.composite
def comparable_pairs(draw):
    """(x, y) of one n: y is x after a few covers read from the tuple
    oracle, or an independent draw."""
    x = draw(signed_partitions())
    if draw(st.booleans()):
        return x, draw(signed_partitions(x.n))
    y = x
    for _ in range(draw(st.integers(0, x.n))):
        ups = _cover_blocks(y.blocks)
        if not ups:
            break
        y = SignedPartition(x.n, draw(st.sampled_from(ups)))
    return x, y


@settings(max_examples=300, deadline=None)
@given(comparable_pairs(), st.data())
def test_masks_round_trip_and_agree_with_tuple_bodies(pair, data):
    x, y = pair
    for p in pair:
        assert SignedPartition.from_blocks(p.n, p.blocks) == p
        assert hash(SignedPartition.from_blocks(p.n, p.blocks)) == hash(p)
        assert SignedPartition(p.n, p.blocks) == p
        assert render(p) == _render_by_tuples(p)
        assert p.rank == p.n - (len(p.blocks) - 1) // 2
        s = data.draw(st.integers(0, p.n))
        assert _admitted(p, s) == _admits_by_tuples(p, s)
    assert x.refines(y) == _refines_by_tuples(x, y)
    assert y.refines(x) == _refines_by_tuples(y, x)
    for lo, hi in (pair, pair[::-1]):
        try:
            want = _label_set_by_tuples(lo, hi)
        except NotComparableError:
            with pytest.raises(NotComparableError):
                label_set(lo, hi)
            continue
        assert label_set(lo, hi) == want
