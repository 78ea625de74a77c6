import math

import pytest

from interarr.arrangement import intersection_lattice, make_family
from interarr.lattice import lattice_isomorphic
from interarr.lattice import GradedLattice
from interarr.signed_partitions import (EdgeClass, LatticeVariant, NotACoverError,
                                        NotCanonicalError, SignedPartition,
                                        ZeroBlockError, _cover_blocks, decode_cover,
                                        enumerate_lattice, is_normalized,
                                        render, representative, variant_b,
                                        variant_dns)
from test_arrangement import check_graded

PI_B_SIZES = {1: 2, 2: 6, 3: 24, 4: 116, 5: 648}


def test_lattice_sizes():
    for n, size in PI_B_SIZES.items():
        assert len(enumerate_lattice(variant_b(n))) == size


def test_b2_shape():
    lat = enumerate_lattice(variant_b(2))
    assert sorted(lat.rank) == [0, 1, 1, 1, 1, 2]
    check_graded(lat)


def test_d3_matches_figure_node_count():
    assert len(enumerate_lattice(variant_dns(3, 0))) == 15


def test_variant_coincidences():
    for n in (2, 3, 4):
        assert len(enumerate_lattice(variant_dns(n, n))) == len(enumerate_lattice(variant_b(n)))
        assert len(enumerate_lattice(LatticeVariant(n, frozenset(range(1, n + 1))))) == \
            len(enumerate_lattice(variant_b(n)))


def test_element_invariants_exhaustive():
    for n in range(1, 6):
        lat = enumerate_lattice(variant_b(n))
        for p in lat.elements:
            p.validate()
            assert p.rank == n - (len(p.blocks) - 1) // 2
            assert 0 in p.blocks[0]


def test_bottom_covers_and_coatom():
    bottom = SignedPartition.bottom(2)
    assert len(_cover_blocks(bottom.blocks)) == 4
    coatoms = [p for p in enumerate_lattice(variant_b(3)).elements
               if len(p.blocks) == 3]
    for c in coatoms:
        assert _cover_blocks(c.blocks) == [(tuple(range(-3, 4)),)]


def test_covers_raise_rank_by_one():
    for n in (2, 3, 4):
        lat = enumerate_lattice(variant_b(n))
        for i, ups in enumerate(lat.covers):
            for j in ups:
                assert lat.rank[j] == lat.rank[i] + 1


def test_maximal_chain_count_is_factorial_squared():
    for n in (2, 3, 4):
        lat = enumerate_lattice(variant_b(n))
        count = sum(1 for _ in lat.maximal_chains(lat.bottom, lat.top))
        assert count == math.factorial(n) ** 2


def test_representative():
    assert representative((2, -4, 5)) == 2 and is_normalized((2, -4, 5))
    assert representative((-2, 4, -5)) == 2 and not is_normalized((-2, 4, -5))
    assert representative((7,)) == 7 and is_normalized((7,))
    with pytest.raises(ZeroBlockError):
        representative((-1, 0, 1))


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
    return len(p.zero_block)


def test_subposet_edge_laws():
    # crossing between the D-part and its complement always uses a signed edge
    for n in (2, 3, 4):
        lat = enumerate_lattice(variant_b(n))
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
        lat = enumerate_lattice(variant_b(n))
        for i, ups in enumerate(lat.covers):
            x = lat.elements[i]
            if _zero_size(x) != 3:
                continue
            for j in ups:
                y = lat.elements[j]
                if _zero_size(y) == 3:
                    assert x.zero_block == y.zero_block


def test_one_jump_law():
    # a maximal chain either avoids the new elements of the s-th step or
    # passes through them in one contiguous stretch entered and left once
    for n in (2, 3, 4):
        for s in range(1, n + 1):
            lat = enumerate_lattice(variant_dns(n, s))
            marker = tuple(sorted((-s, 0, s)))
            for chain in lat.maximal_chains(lat.bottom, lat.top):
                flags = [lat.elements[v].zero_block == marker for v in chain]
                jumps = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
                assert jumps in (0, 2)


def test_lattice_isomorphic_to_arrangement_side():
    for n in (2, 3, 4, 5):
        assert lattice_isomorphic(enumerate_lattice(variant_b(n)),
                                  intersection_lattice(make_family("b", n)))
    for n in (2, 3, 4):
        for s in range(n + 1):
            assert lattice_isomorphic(enumerate_lattice(variant_dns(n, s)),
                                      intersection_lattice(make_family("dns", n, s)))


def test_lattice_isomorphic_negative_and_reflexive():
    b3 = enumerate_lattice(variant_b(3))
    d3 = enumerate_lattice(variant_dns(3, 0))
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


def _enumerate_by_sorting(v):
    bottom = SignedPartition.bottom(v.n)
    elements = [bottom]
    ids = {bottom: 0}
    cover_lists = [[]]
    layer = [bottom]
    while layer:
        pending = []
        nxt = set()
        for p in layer:
            for q in _covers_by_sorting(p):
                if v.admits(q):
                    pending.append((ids[p], q))
                    nxt.add(q)
        layer = sorted(nxt)
        for q in layer:
            ids[q] = len(elements)
            elements.append(q)
            cover_lists.append([])
        for pid, q in pending:
            cover_lists[pid].append(ids[q])
    for lst in cover_lists:
        lst.sort()
    top = max(ids.values(), key=lambda i: elements[i].rank)
    return GradedLattice(elements, [p.rank for p in elements], cover_lists, ids[bottom], top)


def _same_lattice(a, b):
    assert a.elements == b.elements
    assert a.rank == b.rank
    assert a.covers == b.covers
    assert (a.bottom, a.top) == (b.bottom, b.top)


def test_covers_match_sorting_oracle_on_b1_to_b6():
    for n in range(1, 7):
        lat = _enumerate_by_sorting(variant_b(n))
        for p in lat.elements:
            got = _cover_blocks(p.blocks)
            assert got == [q.blocks for q in _covers_by_sorting(p)], render(p)
            for q in got:
                SignedPartition(p.n, q).validate()


def test_lattices_match_sorting_oracle():
    variants = [variant_b(n) for n in range(1, 7)]
    variants += [variant_dns(n, s) for n in range(1, 6) for s in range(n + 1)]
    variants.append(LatticeVariant(5, frozenset({2, 4})))
    for v in variants:
        _same_lattice(enumerate_lattice(v), _enumerate_by_sorting(v))
