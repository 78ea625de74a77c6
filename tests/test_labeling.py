import math
import random
from collections import Counter
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interarr.labeling import (_FIRST, _WEAK, _edge_labels, _interval_words,
                               _step_mode, count_chains_with_word,
                               dump_chain_line, el_label,
                               enumerate_filtered_chains,
                               filtered_descent_counts, label_set,
                               min_atom_label, r_label, verify_el)
from interarr.lattice import GradedLattice, NotComparableError
from interarr.signed_partitions import (EdgeClass, NotACoverError,
                                        NotCanonicalError, SignedPartition,
                                        decode_cover, enumerate_lattice,
                                        variant_b, variant_dns)
from interarr.arrangement import intersection_lattice, make_family
from test_signed_partitions import _cover_blocks, representative


def verify_r_labeling(lat, labeler) -> list[tuple[int, int, str]]:
    """Check the R-labeling property on every interval, weak convention:
    exactly one weakly increasing maximal chain."""
    report = []
    for lo, hi, words in _interval_words(lat, labeler):
        increasing = sum(all(word[k] <= word[k + 1] for k in range(len(word) - 1))
                         for word in words)
        if increasing != 1:
            report.append((lo, hi, f"{increasing} weakly increasing chains"))
    return report


def test_r_label_examples():
    x = SignedPartition.bottom(2)
    merged12 = SignedPartition.from_blocks(2, [(0,), (1, 2), (-1, -2)])
    signed1 = SignedPartition.from_blocks(2, [(-1, 0, 1), (2,), (-2,)])
    assert r_label(x, merged12) == 2
    assert r_label(x, signed1) == 1
    x3 = SignedPartition.bottom(3)
    signed3 = SignedPartition.from_blocks(3, [(-3, 0, 3), (1,), (-1,), (2,), (-2,)])
    assert r_label(x3, signed3) == 3
    with pytest.raises(NotACoverError):
        r_label(x, SignedPartition.from_blocks(2, [range(-2, 3)]))


def test_el_label_figure_edges():
    bottom = SignedPartition.bottom(3)
    coh = SignedPartition.from_blocks(3, [(0,), (2, 3), (-2, -3), (1,), (-1,)])
    noncoh = SignedPartition.from_blocks(3, [(0,), (2, -3), (-2, 3), (1,), (-1,)])
    assert el_label(bottom, coh) == (0, 3)
    assert el_label(bottom, noncoh) == (2, 2)
    coatom = SignedPartition.from_blocks(3, [(-1, 0, 1, 2, -2), (3,), (-3,)])
    assert el_label(coatom, SignedPartition.from_blocks(3, [range(-3, 4)])) == (1, 1)


def _oracle_cover(x, y):
    """The cover reading before decode_cover: a refinement test, then a
    search for the first new block of y and the x-blocks inside it."""
    if not (y.rank == x.rank + 1 and x.refines(y)):
        raise NotACoverError("not a cover")
    xb, yb = x.blocks, y.blocks
    if len(yb[0]) > len(xb[0]):
        folded = [b for b in xb[1::2] if set(b) <= set(yb[0])]
        r = representative(folded[0])
        return EdgeClass.SIGNED, r, r
    x_blocks = set(xb)
    target = set(next(b for b in yb[1:] if b not in x_blocks))
    reps = sorted(representative(b) for b in xb[1:] if set(b) <= target)
    i, j = reps[0], reps[-1]
    same_sign = (i in target) == (j in target)
    return (EdgeClass.COHERENT if same_sign else EdgeClass.NON_COHERENT), i, j


def _oracle_el_label(x, y):
    cls, i, j = _oracle_cover(x, y)
    if cls is EdgeClass.SIGNED:
        return (1, 1)
    return (0, max(i, j)) if cls is EdgeClass.COHERENT else (2, min(i, j))


def test_cover_readers_match_oracle_on_every_cover():
    variants = [variant_b(n) for n in range(1, 6)] + [variant_dns(5, s) for s in range(6)]
    for v in variants:
        lat = enumerate_lattice(v)
        for a, ups in enumerate(lat.covers):
            x = lat.elements[a]
            for b in ups:
                y = lat.elements[b]
                cls, i, j = _oracle_cover(x, y)
                assert decode_cover(x, y) == (cls, i, j)
                assert r_label(x, y) == max(i, j)
                assert el_label(x, y) == _oracle_el_label(x, y)


NOT_COVERS = [
    # two ranks apart
    (SignedPartition.bottom(2), SignedPartition.from_blocks(2, [range(-2, 3)])),
    # one rank up, but the block 12 is split between 10-1 and 23
    (SignedPartition.from_blocks(3, [(0,), (1, 2), (-1, -2), (3,), (-3,)]),
     SignedPartition.from_blocks(3, [(-1, 0, 1), (2, 3), (-2, -3)])),
    # one rank up, but partitions of different ground sets
    (SignedPartition.bottom(2),
     SignedPartition(3, _cover_blocks(SignedPartition.bottom(3).blocks)[2])),
]


@pytest.mark.parametrize("reader", [el_label, r_label, decode_cover])
@pytest.mark.parametrize("x, y", NOT_COVERS, ids=["two-ranks", "not-refining", "cross-n"])
def test_cover_readers_reject_non_covers(reader, x, y):
    with pytest.raises(NotACoverError):
        reader(x, y)


def test_cover_readers_match_oracle_on_every_rank_adjacent_pair():
    # every pair one rank apart, covers or not: the readers agree with the
    # oracle on covers and raise NotACoverError exactly where it does
    variants = [variant_b(n) for n in range(1, 5)] + [variant_dns(4, s) for s in range(5)]
    pairs = hits = 0
    for v in variants:
        lat = enumerate_lattice(v)
        layers = {}
        for p, r in zip(lat.elements, lat.rank):
            layers.setdefault(r, []).append(p)
        for r in range(max(layers)):
            for x in layers[r]:
                for y in layers[r + 1]:
                    pairs += 1
                    try:
                        cls, i, j = _oracle_cover(x, y)
                    except NotACoverError:
                        for reader in (decode_cover, r_label, el_label):
                            with pytest.raises(NotACoverError):
                                reader(x, y)
                        continue
                    hits += 1
                    assert decode_cover(x, y) == (cls, i, j)
                    assert r_label(x, y) == max(i, j)
                    assert el_label(x, y) == _oracle_el_label(x, y)
    assert (pairs, hits) == (14562, 2179)


# one mirror pair of x stored mirror first, which the raw SignedPartition
# constructor allows: it skips the layout check
_MIRROR_FIRST = [
    # at the second pair read, l; the merge is non-coherent, a layout
    # reader that trusts x would read it as coherent
    (SignedPartition(2, ((0,), (1,), (-1,), (-2,), (2,))),
     SignedPartition.from_blocks(2, [(0,), (1, -2), (-1, 2)])),
    # at the first pair read, k
    (SignedPartition(2, ((0,), (-1,), (1,), (2,), (-2,))),
     SignedPartition.from_blocks(2, [(0,), (1, 2), (-1, -2)])),
    # at the folded pair
    (SignedPartition(2, ((0,), (-1,), (1,), (2,), (-2,))),
     SignedPartition.from_blocks(2, [(-1, 0, 1), (2,), (-2,)])),
]


@pytest.mark.parametrize("reader", [el_label, r_label, decode_cover])
@pytest.mark.parametrize("x, y", _MIRROR_FIRST, ids=["merge-l", "merge-k", "fold"])
def test_cover_readers_reject_mirror_first_pairs(reader, x, y):
    with pytest.raises(NotCanonicalError, match="not normalized"):
        reader(x, y)
    # the same cover from the canonical x is read as the oracle reads it
    canon = SignedPartition.from_blocks(2, x.blocks)
    assert decode_cover(canon, y) == _oracle_cover(x, y)


def test_label_set_examples(pi_b):
    lat = pi_b[3]
    bottom, top = lat.elements[lat.bottom], lat.elements[lat.top]
    assert label_set(bottom, bottom) == frozenset()
    assert label_set(bottom, top) == frozenset({1, 2, 3})
    with pytest.raises(NotComparableError):
        x = SignedPartition.from_blocks(3, [(0,), (1, 2), (-1, -2), (3,), (-3,)])
        y = SignedPartition.from_blocks(3, [(0,), (1, 3), (-1, -3), (2,), (-2,)])
        label_set(y, x)


def test_label_set_matches_chain_labels_random_intervals(pi_b):
    lat = pi_b[4]
    rng = random.Random(9)
    masks = lat._ensure_down_masks()
    tried = 0
    while tried < 100:
        lo = rng.randrange(len(lat))
        hi = rng.randrange(len(lat))
        if lo == hi or not (masks[hi] >> lo & 1):
            continue
        tried += 1
        expected = label_set(lat.elements[lo], lat.elements[hi])
        chain = next(lat.maximal_chains(lo, hi))
        got = {r_label(lat.elements[chain[k]], lat.elements[chain[k + 1]])
               for k in range(len(chain) - 1)}
        assert got == expected


def _inv(sigma):
    k = len(sigma)
    return [sum(1 for j in range(i, k) if sigma[j] <= sigma[i]) for i in range(k)]


def test_chain_count_formula_small(pi_b):
    lat = pi_b[2]
    assert count_chains_with_word(lat, lat.bottom, lat.top, (1, 2)) == 1
    assert count_chains_with_word(lat, lat.bottom, lat.top, (2, 1)) == 3
    lat3 = pi_b[3]
    total = 0
    for sigma in permutations(range(1, 4)):
        cnt = count_chains_with_word(lat3, lat3.bottom, lat3.top, sigma)
        assert cnt == math.prod(2 * a - 1 for a in _inv(sigma))
        total += cnt
    assert total == 36


def test_chain_count_formula_on_upper_intervals(pi_b):
    # the product formula counts chains into the top element; on proper
    # intervals only the identity word (the unique increasing chain) obeys
    # it, because merges with in-set labels can leave the interval
    for n in (2, 3):
        lat = pi_b[n]
        for lo in range(len(lat)):
            if lo == lat.top:
                continue
            k = lat.rank[lat.top] - lat.rank[lo]
            for sigma in permutations(range(1, k + 1)):
                cnt = count_chains_with_word(lat, lo, lat.top, sigma)
                assert cnt == math.prod(2 * a - 1 for a in _inv(sigma))


def test_unique_increasing_chain_on_proper_intervals(pi_b):
    lat = pi_b[3]
    rng = random.Random(4)
    masks = lat._ensure_down_masks()
    checked = 0
    while checked < 60:
        lo, hi = rng.randrange(len(lat)), rng.randrange(len(lat))
        if lo == hi or not (masks[hi] >> lo & 1):
            continue
        checked += 1
        k = lat.rank[hi] - lat.rank[lo]
        identity = tuple(range(1, k + 1))
        assert count_chains_with_word(lat, lo, hi, identity) == 1


def test_unique_increasing_chain_is_identity_word(pi_b):
    lat = pi_b[3]
    assert count_chains_with_word(lat, lat.bottom, lat.top, (1, 2, 3)) == 1


def test_filtered_chains_pi2(pi_b):
    lat = pi_b[2]
    chains = list(enumerate_filtered_chains(lat, el_label))
    assert len(chains) == 1
    assert chains[0].word == ((0, 2), (1, 1))
    assert chains[0].descent_count == 0


def test_filtered_chain_counts_match_dfs(pi_b, dns_lattices):
    for lat in [pi_b[2], pi_b[3], pi_b[4], dns_lattices[(4, 1)], dns_lattices[(3, 0)]]:
        dfs = Counter(c.descent_count for c in enumerate_filtered_chains(lat, el_label))
        assert dict(dfs) == filtered_descent_counts(lat, el_label)


def test_descent_count_is_the_number_of_non_rises(pi_b, dns_lattices):
    for lat in [pi_b[4]] + [dns_lattices[(4, s)] for s in range(5)]:
        for chain in enumerate_filtered_chains(lat, el_label):
            word = chain.word
            assert chain.descent_count == sum(a >= b for a, b in zip(word, word[1:]))


def _sweep_by_states(lat, labeler) -> dict[int, int]:
    """The layered sweep before prefix sums: every element keeps a
    {(last label, mode): descent histogram} map, and each cover steps every
    state through _step_mode.  The reference the prefix-sum sweep must
    reproduce."""
    if lat.height == 0:
        return {0: 1}
    labels = _edge_labels(lat, labeler)
    order = sorted(range(len(lat)), key=lambda i: lat.rank[i])
    states: dict[int, dict] = {lat.bottom: {(None, _FIRST): [1]}}
    for v in order:
        st_v = states.pop(v, None)
        if st_v is None or v == lat.top:
            if st_v is not None:
                states[v] = st_v
            continue
        for w, lab in zip(lat.covers[v], labels[v]):
            tgt = states.setdefault(w, {})
            for (last, mode), hist in st_v.items():
                if last is None:
                    nmode, shift = _FIRST, 0
                else:
                    nmode = _step_mode(last, mode, lab)
                    if nmode is None:
                        continue
                    shift = 1 if nmode is _WEAK else 0
                dst = tgt.setdefault((lab, nmode), [])
                if len(dst) < len(hist) + shift:
                    dst.extend([0] * (len(hist) + shift - len(dst)))
                for d, c in enumerate(hist):
                    dst[d + shift] += c
    out: dict[int, int] = {}
    for hist in states.get(lat.top, {}).values():
        for d, c in enumerate(hist):
            if c:
                out[d] = out.get(d, 0) + c
    return out


def _table_labeler(lat, labels):
    """A labeler reading one label per cover, listed in cover order."""
    idx = {e: i for i, e in enumerate(lat.elements)}
    table = dict(zip(((i, j) for i in range(len(lat)) for j in lat.covers[i]), labels))
    return lambda x, y: table[idx[x], idx[y]]


@pytest.mark.parametrize("n", range(1, 7))
def test_sweep_matches_state_oracle_on_dns(n):
    # s = 0 is D_n and s = n is B_n; both sweeps share one labelling
    for s in range(n + 1):
        lat = enumerate_lattice(variant_dns(n, s))
        labels = [lab for row in _edge_labels(lat, el_label) for lab in row]
        labeler = _table_labeler(lat, labels)
        assert filtered_descent_counts(lat, labeler) == _sweep_by_states(lat, labeler), (n, s)


@pytest.mark.parametrize("family, n", [("a", 4), ("b", 3), ("d", 4)])
def test_sweep_matches_state_oracle_on_flats(family, n):
    lat = intersection_lattice(make_family(family, n))
    labeler = min_atom_label(lat)
    assert filtered_descent_counts(lat, labeler) == _sweep_by_states(lat, labeler)


@lru_cache(maxsize=None)
def _tie_lattice(name):
    if name == "a4 flats":
        return intersection_lattice(make_family("a", 4))
    n, s = {"b3": (3, 3), "d4": (4, 0), "dns31": (3, 1)}[name]
    return enumerate_lattice(variant_dns(n, s))


@pytest.mark.parametrize("name", ["b3", "d4", "dns31", "a4 flats"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_sweep_with_tied_labels_matches_oracles(name, data):
    # labels from 0..3 tie often, so equal labels sit at the bisect boundary
    lat = _tie_lattice(name)
    n_covers = sum(map(len, lat.covers))
    labeler = _table_labeler(lat, data.draw(st.lists(
        st.integers(0, 3), min_size=n_covers, max_size=n_covers)))
    dfs = dict(Counter(c.descent_count for c in enumerate_filtered_chains(lat, labeler)))
    assert filtered_descent_counts(lat, labeler) == _sweep_by_states(lat, labeler) == dfs


@pytest.mark.parametrize("k", [2 ** j - e for j in range(1, 7) for e in (1, 0)])
def test_one_digit_holding_every_chain_does_not_carry(k):
    # rank 2 with k atoms and ascending labels: all k chains have no
    # descent, so digit 0 holds k, which needs every bit of bit_length(k)
    lat = GradedLattice(range(k + 2), [0] + [1] * k + [2],
                        [list(range(1, k + 1))] + [[k + 1]] * k + [[]], 0, k + 1)
    assert filtered_descent_counts(lat, lambda x, y: int(y == k + 1)) == {0: k}


def test_sweep_labels_each_cover_once():
    lat = enumerate_lattice(variant_dns(4, 2))
    calls = Counter()

    def counting(x, y):
        calls[x, y] += 1
        return el_label(x, y)

    filtered_descent_counts(lat, counting)
    assert sum(calls.values()) == sum(map(len, lat.covers))
    assert set(calls.values()) == {1}


def test_rank1_lattice_single_chain():
    lat = enumerate_lattice(variant_b(1))
    chains = list(enumerate_filtered_chains(lat, el_label))
    assert len(chains) == 1 and chains[0].descent_count == 0


def test_verify_el_pi_and_dns(pi_b, dns_lattices):
    for n in (2, 3):
        assert verify_el(pi_b[n], el_label) == []
    for s in range(4):
        assert verify_el(dns_lattices[(3, s)], el_label) == []


def test_verify_el_negative_control(pi_b):
    def corrupted(x, y):
        lab = el_label(x, y)
        return (2, 9) if lab == (1, 1) else lab

    assert verify_el(pi_b[2], corrupted) != []


def test_verify_r_labeling(pi_b):
    for n in (2, 3, 4):
        assert verify_r_labeling(pi_b[n], r_label) == []


def test_label_set_equals_every_chain_label_set(pi_b):
    lat = pi_b[3]
    for lo in range(len(lat)):
        for hi in lat.up_set(lo):
            if hi == lo:
                continue
            expected = label_set(lat.elements[lo], lat.elements[hi])
            for chain in lat.maximal_chains(lo, hi):
                got = {r_label(lat.elements[chain[k]], lat.elements[chain[k + 1]])
                       for k in range(len(chain) - 1)}
                assert got == expected


def test_el_restriction_law(pi_b, dns_lattices):
    # the increasing chain of any ambient interval stays inside the subposet
    for n in (2, 3, 4):
        ambient = pi_b[n]
        amb_id = {ambient.elements[i]: i for i in range(len(ambient))}
        labels = {}
        for s in range(n):
            sub = dns_lattices[(n, s)]
            members = set(sub.elements)
            for lo_s in range(len(sub)):
                for hi_s in sub.up_set(lo_s):
                    if hi_s == lo_s:
                        continue
                    lo, hi = amb_id[sub.elements[lo_s]], amb_id[sub.elements[hi_s]]
                    found = None
                    for chain in ambient.maximal_chains(lo, hi):
                        word = [el_label(ambient.elements[chain[k]],
                                         ambient.elements[chain[k + 1]])
                                for k in range(len(chain) - 1)]
                        if all(word[k] < word[k + 1] for k in range(len(word) - 1)):
                            found = chain
                            break
                    assert found is not None
                    assert all(ambient.elements[v] in members for v in found)


def test_descent_preservation_across_s(pi_b, dns_lattices):
    # chains through the new elements at step u and step s carry descents at
    # identical positions, as multisets
    for n in (2, 3, 4):
        profiles = {}
        for s in range(1, n + 1):
            lat = dns_lattices[(n, s)]
            marker = tuple(sorted((-s, 0, s)))
            profile = Counter()
            for chain in lat.maximal_chains(lat.bottom, lat.top):
                if not any(lat.elements[v].blocks[0] == marker for v in chain):
                    continue
                word = [el_label(lat.elements[chain[k]], lat.elements[chain[k + 1]])
                        for k in range(len(chain) - 1)]
                descents = tuple(k + 1 for k in range(len(word) - 1)
                                 if word[k] >= word[k + 1])
                profile[descents] += 1
            profiles[s] = profile
        assert len(set(map(frozenset, (p.items() for p in profiles.values())))) == 1


def test_min_atom_label_is_el_on_arrangement_lattices():
    for fam, n in [("b", 2), ("a", 2), ("a", 3), ("d", 3)]:
        lat = intersection_lattice(make_family(fam, n))
        assert verify_el(lat, min_atom_label(lat)) == [], (fam, n)


def test_dump_chain_line(pi_b):
    chain = next(iter(enumerate_filtered_chains(pi_b[2], el_label)))
    assert dump_chain_line(chain) == "(0,2),(1,1) ; des=0"
