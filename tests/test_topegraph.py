import random

import pytest

from interarr.arrangement import (chamber_complex, make_arrangement,
                                  make_family)
from interarr.poly import IntPolynomial, f_to_h, is_palindromic
from interarr.arrangement import f_polynomial, f_vector, chamber_count
from interarr.topegraph import (BaseNotAChamberError, NotSimplicialError,
                                build_tope_graph, dump_tope_graph,
                                h_via_indegree, h_via_separation, in_degrees)


def edge_degrees(g):
    """Chamber degrees counted from the edge list, independent of facets."""
    deg = [0] * len(g.masks)
    for i, j, _ in g.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def test_single_hyperplane_graph():
    g = build_tope_graph(make_arrangement(1, [(1,)]))
    assert len(g.vertices) == 2 and len(g.edges) == 1
    assert in_degrees(g, "+") == [int(v == "-") for v in g.sign_strings()]
    assert h_via_indegree(g) == IntPolynomial((1, 1))


def test_b2_is_an_octagon():
    g = build_tope_graph(make_family("b", 2))
    assert len(g.vertices) == 8 and len(g.edges) == 8
    assert edge_degrees(g) == [len(f) for f in g.facets] == [2] * 8
    h = h_via_indegree(g)
    assert h == IntPolynomial((1, 6, 1))


def test_d3_simplicial_degrees():
    g = build_tope_graph(make_family("d", 3))
    assert len(g.vertices) == 24
    assert edge_degrees(g) == [len(f) for f in g.facets] == [3] * 24


def test_in_degrees_unique_source_and_antipode():
    g = build_tope_graph(make_family("d", 3))
    signs = g.sign_strings()
    for base in (signs[0], signs[7]):
        indeg = in_degrees(g, base)
        assert indeg.count(0) == 1
        assert indeg[signs.index(base)] == 0
        anti = "".join("-" if c == "+" else "+" for c in base)
        assert indeg[signs.index(anti)] == 3
        assert sum(indeg) == len(g.edges)


def test_base_rejects_non_chamber():
    g = build_tope_graph(make_family("b", 2))
    # "++" is too short: read as a bitmask it would be the chamber "++++"
    for base in ("+0+-", "++--", "++"):
        with pytest.raises(BaseNotAChamberError):
            in_degrees(g, base)
        with pytest.raises(BaseNotAChamberError):
            h_via_separation(g, base)


@pytest.mark.parametrize("route", [h_via_indegree, h_via_separation])
def test_h_routes_reject_uncertified_non_simplicial_complex(route):
    # a complex straight from the walk, never through build_tope_graph
    square_cone = make_arrangement(3, [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])
    with pytest.raises(NotSimplicialError):
        route(chamber_complex(square_cone))


def test_h_examples():
    assert h_via_indegree(make_family("d", 3)) == IntPolynomial((1, 11, 11, 1))
    assert h_via_indegree(make_family("b", 3)) == IntPolynomial((1, 23, 23, 1))


def test_method_agreement_family():
    cases = [("a", 3, None), ("b", 2, None), ("b", 3, None), ("b", 4, None),
             ("d", 3, None), ("d", 4, None)]
    cases += [("dns", 4, s) for s in range(5)]
    for fam, n, s in cases:
        a = make_family(fam, n, s)
        g = build_tope_graph(a)
        h1 = h_via_indegree(g)
        h2 = h_via_separation(g)
        h3 = f_to_h(f_polynomial(f_vector(a)))
        assert h1 == h2 == h3, (fam, n, s)
        assert is_palindromic(h1)
        assert h1(1) == chamber_count(a)


def test_base_independence_all_bases_d3():
    g = build_tope_graph(make_family("d", 3))
    values = {h_via_indegree(g, v) for v in g.sign_strings()}
    assert len(values) == 1
    values_sep = {h_via_separation(g, v) for v in g.sign_strings()}
    assert values_sep == values


def test_base_independence_sampled_b4():
    g = build_tope_graph(make_family("b", 4))
    rng = random.Random(2)
    signs = g.sign_strings()
    picks = rng.sample(range(len(signs)), 10)
    values = {h_via_indegree(g, signs[i]) for i in picks}
    assert len(values) == 1


def test_sep_of_base_and_antipode():
    g = build_tope_graph(make_family("d", 3))
    base = g.sign_strings()[0]
    indeg = in_degrees(g, base)
    assert indeg[0] == 0  # contributes the constant 1


def test_dump_format():
    g = build_tope_graph(make_arrangement(1, [(1,)]))
    lines = dump_tope_graph(g).strip().split("\n")
    assert lines[0] in ("+", "-") and lines[1] in ("+", "-")
    i, j, h = lines[2].split()
    assert h == "0" and {lines[int(i)], lines[int(j)]} == {"+", "-"}


def test_dump_b2_exact():
    # the boundary format, byte for byte: chambers in walk order, then edges
    assert dump_tope_graph(build_tope_graph(make_family("b", 2))) == (
        "++++\n-+++\n+++-\n-+-+\n+-+-\n---+\n+---\n----\n"
        "0 1 0\n0 2 3\n1 3 2\n2 4 1\n3 5 1\n4 6 2\n5 7 3\n6 7 0\n")
