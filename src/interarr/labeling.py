"""Edge labelings of the signed-partition lattices and labeled-chain tools.

Two labeling regimes coexist and are not interchangeable:

- the scalar max-of-min labeling (an R-labeling): a chain is increasing
  when its word is weakly increasing, decreasing when strictly decreasing;
- the pair-valued lexicographic labeling (an EL-labeling): increasing means
  strictly increasing.

Chain filtering for the Chow-polynomial formula uses the strict reading:
the first step must strictly ascend and every descent must be immediately
preceded by a strict ascent.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .lattice import GradedLattice, NotComparableError
from .signed_partitions import (_COHERENT, _SIGNED, NotACoverError, SignedPartition,
                                decode_cover)


def r_label(x: SignedPartition, y: SignedPartition) -> int:
    """Scalar label of a cover: the larger of the two absolute minima of the
    non-zero blocks merged along the edge."""
    return decode_cover(x, y)[2]


def el_label(x: SignedPartition, y: SignedPartition) -> tuple[int, int]:
    """Pair label: (0, max) on coherent, (1, 1) on signed, (2, min) on
    non-coherent edges; pairs compare lexicographically."""
    cls, i, j = decode_cover(x, y)
    if cls is _SIGNED:
        return (1, 1)
    if cls is _COHERENT:
        return (0, j)
    return (2, i)


def label_set(x: SignedPartition, y: SignedPartition) -> frozenset[int]:
    """Chain-independent scalar label set of the interval [x, y]: union over
    blocks of y of the absolute minima of merged x-blocks, dropping each
    block's overall minimum."""
    if not (x.rank <= y.rank and x.refines(y)):
        raise NotComparableError("label_set requires x <= y")
    out = set()
    for c in y.masks:
        # (b & -b).bit_length() >> 1 is a block's representative, 0 for the zero block
        mins = sorted((b & -b).bit_length() >> 1 for b in x.masks if b | c == c)
        out.update(mins[1:])
    return frozenset(out)


@dataclass(frozen=True)
class LabeledChain:
    """A maximal chain with its label word and its number of descents, the
    index of the gamma-basis element t^des (1+t)^(n-1-2des) it contributes
    to the Chow polynomial.

    Descents are the positions where the word does not strictly rise
    (word_i >= word_{i+1}).  With injective labels along a chain, as for the
    scalar labeling, this coincides with the strict reading; with repeated
    labels, as for the pair labeling whose strictly increasing chains are
    unique, the non-rise reading is the one under which the chain formula
    reproduces the Chow polynomial.
    """

    elements: tuple[int, ...]          # element ids, bottom to top
    word: tuple                        # one label per cover
    descent_count: int                 # number of i with word_i >= word_{i+1}


def _edge_labels(lat: GradedLattice, labeler):
    """labels[i][k] = label of the cover from i to lat.covers[i][k]."""
    return [
        [labeler(lat.elements[i], lat.elements[j]) for j in lat.covers[i]]
        for i in range(len(lat))
    ]


def count_chains_with_word(lat: GradedLattice, lo: int, hi: int, sigma) -> int:
    """Number of saturated chains lo -> hi whose scalar label word is the
    sorted label set permuted by sigma (1-based permutation of [k]).

    Exhaustive DFS: this is the brute-force side of the chain-count formula,
    so no closed form is consulted here.
    """
    labels = sorted(label_set(lat.elements[lo], lat.elements[hi]))
    k = len(labels)
    if sorted(sigma) != list(range(1, k + 1)):
        raise ValueError("sigma must be a permutation of 1..k")
    target = tuple(labels[s - 1] for s in sigma)
    count = 0
    stack = [(lo, 0)]
    while stack:
        v, depth = stack.pop()
        if depth == k:
            count += v == hi
            continue
        for w in lat.covers[v]:
            if lat.leq(w, hi):
                if r_label(lat.elements[v], lat.elements[w]) == target[depth]:
                    stack.append((w, depth + 1))
    return count


_FIRST, _ASC, _WEAK = 0, 1, 2


def _step_mode(last, mode, lab):
    """Next filter mode after appending lab, or None if the prefix dies.

    A step that does not strictly rise is a descent; it is allowed only
    immediately after a strict ascent.  In particular the first pair must
    strictly ascend."""
    if lab > last:
        return _ASC
    return _WEAK if mode is _ASC else None


def enumerate_filtered_chains(lat: GradedLattice, labeler):
    """Maximal chains surviving the Chow chain conditions, by pruned DFS.

    A prefix dies as soon as it violates (i) strict ascent at the first
    step, (ii) no descent immediately preceded by a non-strict-ascent.
    Every surviving non-rise is a step into `_WEAK`, so the descents are
    counted as the prefix grows.
    """
    labels = _edge_labels(lat, labeler)
    if lat.height == 0:
        yield LabeledChain((lat.bottom,), (), 0)
        return
    top = lat.top
    stack = [(lat.bottom, (lat.bottom,), (), _FIRST, 0)]
    while stack:
        v, chain, word, mode, des = stack.pop()
        for w, lab in zip(lat.covers[v], labels[v]):
            if word:
                nmode = _step_mode(word[-1], mode, lab)
                if nmode is None:
                    continue
            else:
                nmode = _FIRST
            nchain = chain + (w,)
            nword = word + (lab,)
            ndes = des + (nmode is _WEAK)
            if w == top:
                yield LabeledChain(nchain, nword, ndes)
            else:
                stack.append((w, nchain, nword, nmode, ndes))


def filtered_descent_counts(lat: GradedLattice, labeler) -> dict[int, int]:
    """Multiset of descent counts over surviving maximal chains, aggregated
    by a rank-order sweep over the same pruned prefix tree as
    enumerate_filtered_chains.

    A prefix's future depends only on whether the next label strictly
    exceeds its last one: a strict rise always survives, and a non-rise
    survives, as a descent, only right after a strict rise.  So each
    element keeps two maps from last label to histogram, one over every
    surviving prefix and one over those whose last step rose (the first
    step out of the bottom does not count as a rise).  With the element's
    labels sorted, a cover labelled l takes the prefix sum of every
    histogram below l as rises, and the suffix sum of the rising ones at l
    or above, moved up one descent; one bisect finds the split.

    A histogram is one int whose W-bit digits count prefixes by descents,
    W = bit_length(number of maximal chains).  Every sum the sweep forms
    counts distinct prefixes of one element, and they extend to distinct
    maximal chains, so no digit exceeds that number and none carries:
    adding histograms is int addition and a descent is a shift by W.  The
    labeler runs once per cover, as each element is expanded.
    """
    if lat.height == 0:
        return {0: 1}
    covers, elements, bottom, top = lat.covers, lat.elements, lat.bottom, lat.top
    order = sorted(range(len(lat)), key=lat.rank.__getitem__)
    chains = [0] * len(lat)
    chains[bottom] = 1
    for v in order:
        for w in covers[v]:
            chains[w] += chains[v]
    width = chains[top].bit_length()
    # per element: last label -> histogram, over every surviving prefix
    # and over those whose last step rose
    every = [{} for _ in order]
    rising = [{} for _ in order]
    x = elements[bottom]
    for w in covers[bottom]:
        every[w][labeler(x, elements[w])] = 1
    for v in order:
        if v == bottom or v == top:
            continue
        x = elements[v]
        # labelled before the dead-element check: one labeler call per cover
        labels = [labeler(x, elements[w]) for w in covers[v]]
        hists, rose = every[v], rising[v]
        every[v] = rising[v] = None
        if not hists:
            continue
        keys = sorted(hists)
        below = list(accumulate(map(hists.__getitem__, keys), initial=0))
        above = list(accumulate((rose.get(k, 0) for k in reversed(keys)), initial=0))
        above.reverse()
        for w, lab in zip(covers[v], labels):
            i = bisect_left(keys, lab)
            rise, fall = below[i], above[i] << width
            if rise:
                tgt = rising[w]
                tgt[lab] = tgt.get(lab, 0) + rise
            if rise or fall:
                tgt = every[w]
                tgt[lab] = tgt.get(lab, 0) + rise + fall
    total = sum(every[top].values())
    mask = (1 << width) - 1
    out: dict[int, int] = {}
    d = 0
    while total:
        if total & mask:
            out[d] = total & mask
        total >>= width
        d += 1
    return out


def _interval_words(lat: GradedLattice, labeler):
    """(lo, hi, words) for every interval lo < hi, where words lists the
    label word of each maximal chain from lo to hi."""
    labels = _edge_labels(lat, labeler)
    for lo in range(len(lat)):
        for hi in lat.up_set(lo):
            if hi != lo:
                yield lo, hi, [tuple(labels[c[k]][lat.covers[c[k]].index(c[k + 1])]
                                     for k in range(len(c) - 1))
                               for c in lat.maximal_chains(lo, hi)]


def verify_el(lat: GradedLattice, labeler) -> list[tuple[int, int, str]]:
    """Check the EL-labeling property on every interval, strict convention:
    exactly one strictly increasing maximal chain, lexicographically first
    among all maximal chain words.  Returns violations; empty means verified.
    """
    report = []
    for lo, hi, words in _interval_words(lat, labeler):
        rising = [w for w in words if all(w[k] < w[k + 1] for k in range(len(w) - 1))]
        if len(rising) != 1:
            report.append((lo, hi, f"{len(rising)} increasing chains"))
        elif rising[0] != min(words):
            report.append((lo, hi, "increasing chain is not lex-first"))
    return report


def min_atom_label(lat: GradedLattice):
    """The least-atom EL-labeling of a geometric lattice: a cover x < y is
    labeled by the smallest atom below y and not below x (atom order = id
    order).  Used for arrangement-side lattices of flats."""
    atom_ids = lat.atoms()
    idx = {lat.elements[i]: i for i in range(len(lat))}

    def labeler(xp, yp) -> int:
        x, y = idx[xp], idx[yp]
        for pos, a in enumerate(atom_ids):
            if lat.leq(a, y) and not lat.leq(a, x):
                return pos
        raise NotACoverError("no atom distinguishes the cover")

    return labeler


def dump_chain_line(chain: LabeledChain) -> str:
    """CLI chain-dump rendering: "label,label,... ; des=k"."""
    rendered = ",".join(
        f"({lab[0]},{lab[1]})" if isinstance(lab, tuple) else str(lab)
        for lab in chain.word)
    return f"{rendered} ; des={chain.descent_count}"
