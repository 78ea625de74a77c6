"""The benchmark's workloads: seeded input generation, the calls into
interarr's public functions, and the correctness check of every item.

Every interarr function is looked up on its module at call time, so the
traced run can substitute counting wrappers where callers look names up.

Problem sizes are fixed per workload; the seed chooses only choices that
leave the amount of work unchanged (item order, and coordinates, signs
and line order of the arrangement files).  A seeded size would make
the run-to-run spread across seeds track the seed instead of the code:
the Chow row (7, s) and the gamma row (6, s) cost about twice as much at
s = n as at s = 0, and random integer arrangements of one shape differ by
up to ten times.

Every item takes 0.05 to 1.5 s on one core of a 2-core shared machine.
The benchmark times each item in several passes, scales each pass by the
speed the machine gave it and takes the item's median (see run.py); that
steadies an item only when it is short next to the machine's swings of
speed.  So the single rows of n = 7 (Chow, 6 to 12 s) and n = 6 (gamma, 8
to 14 s) are not run, and the dns files are of n = 4.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

from interarr import arrangement, chow, cli, fixtures, labeling, permstats, poly, topegraph


class Mismatch(Exception):
    """A computed value disagrees with its expected value or second route."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclass
class Item:
    """One checked unit of work: a table row, a file or a verify check."""

    id: str
    run: Callable[[], None]


# Lattice sizes (elements, covers) of dns(n, s) on the partition side, for
# every cell the benchmark runs.  (6, 6) is the ROADMAP baseline cell; the
# others were recorded at the commit that added the benchmark.
LATTICE_SIZES = {(6, s): (2546 + 257 * s, 16396 + 1998 * s) for s in range(7)}

# The dns files of the files workload: dns(4, 0..4), 72 to 116 flats and
# 192 to 384 chambers each.  One dns(5, s) file would be a single 2 to 5 s
# item (see the module docstring).
DNS_FILE_CELLS = tuple((4, s) for s in range(5))

# Integer arrangements for the files workload: the first essential draw of
# each shape (dim, m) from random.Random(251112408), entries in -2..2.
# The seed changes how each is written, never which arrangement it is (see
# the module docstring).  Dimension 4 and the first (3, 12) draw are left
# out: one file of shape (4, 8) takes 8 to 11 s and that (3, 12) file 6 to
# 8 s, most of it oracle walks.
RANDOM_POOL = (
    (3, ((0, 1, -2), (1, 0, -1), (1, 2, -1), (1, 2, 2), (2, 1, 2), (2, -2, -1),
         (1, 0, 2), (2, -1, 2))),
    (3, ((1, 0, 0), (1, 1, 1), (2, -1, 2), (1, 2, -1), (1, -1, 1), (1, 0, 1),
         (1, 2, 2), (1, -1, 0), (2, 1, -2), (1, -1, -1))),
)

# The subset-sum oracle enumerates 2^m subsets: the random files have
# m <= 10, the dns files m = 12 to 16.
BRUTE_FORCE_MAX_M = 12

# --n-max 5 would add ten checks, one of them (gamma/arithmetic-5) a single
# 4 s item.
VERIFY_ARGV = ["verify", "--suite", "all", "--n-max", "4"]
VERIFY_CHECKS = 52


def n_covers(lat) -> int:
    return sum(len(c) for c in lat.covers)


# ---------------------------------------------------------------------------
# chow-table


def chow_row(n: int, s: int, expected, sizes=None) -> Item:
    """Chow polynomial of dns(n, s) by the chain route, as `interarr chow` runs it."""
    def run():
        lat = chow.dns_lattice(n, s)
        got = chow.chow_via_chains(lat, labeling.el_label)
        expect(got == expected, f"chains give {got.to_text()}, table {expected.to_text()}")
        if sizes is not None:
            found = (len(lat), n_covers(lat))
            expect(found == sizes, f"lattice (elements, covers) {found}, known {sizes}")
    return Item(f"chow/{n}-{s}", run)


def chow_table_items(rng: random.Random, chow_tab) -> list[Item]:
    order = list(range(7))
    rng.shuffle(order)
    return [chow_row(6, s, chow_tab[6][s], LATTICE_SIZES[(6, s)]) for s in order]


# ---------------------------------------------------------------------------
# gamma-table


def gamma_row(n: int, s: int, expected) -> Item:
    """gamma of dns(n, s) from the tope graph, checked three ways."""
    chambers = poly.gamma_to_h(poly.GammaVector(tuple(expected), n))(1)
    walls = chambers * n // 2

    def run():
        g = topegraph.build_tope_graph(arrangement.make_family("dns", n, s))
        h = topegraph.h_via_indegree(g)
        got = poly.h_to_gamma(h).entries
        expect(got == tuple(expected), f"tope graph gives gamma {got}, table {tuple(expected)}")
        closed = permstats.h_d_closed(n) + s * permstats.increment_closed(n)
        expect(h == closed, f"h {h.to_text()} differs from closed form {closed.to_text()}")
        sep = topegraph.h_via_separation(g)
        expect(sep == h, f"separation gives {sep.to_text()}, in-degree {h.to_text()}")
        found = (len(g.vertices), len(g.edges))
        expect(found == (chambers, walls), f"(chambers, walls) {found}, known {(chambers, walls)}")
    return Item(f"gamma/{n}-{s}", run)


def gamma_table_items(rng: random.Random, gamma_tab) -> list[Item]:
    order = list(range(6))
    rng.shuffle(order)
    return [gamma_row(5, s, gamma_tab[5][s]) for s in order]


# ---------------------------------------------------------------------------
# files


def present(rng: random.Random, dim: int, normals) -> str:
    """A seeded text file of the arrangement: coordinates permuted, each
    coordinate and each line's sign flipped at random and lines shuffled.
    The arrangement is linearly isomorphic to the input, so every invariant
    is unchanged.  Lines are not scaled: larger entries make the LP
    oracle's exact arithmetic slower, so the seed would change the work."""
    perm = list(range(dim))
    rng.shuffle(perm)
    flips = [rng.choice((1, -1)) for _ in range(dim)]
    lines = []
    for v in normals:
        factor = rng.choice((1, -1))
        lines.append(" ".join(str(factor * flips[i] * v[perm[i]]) for i in range(dim)))
    rng.shuffle(lines)
    return f"# seeded presentation\ndim {dim}\n" + "\n".join(lines) + "\n"


def euler_ok(fvec, dim: int) -> bool:
    """Reduced Euler characteristic of the (dim-1)-sphere: sum over k of
    (-1)^(k-1) f_(k-1) = (-1)^(dim-1)."""
    return sum((-1) ** (k - 1) * f for k, f in enumerate(fvec)) == (-1) ** (dim - 1)


def file_item(fid: str, text: str, simplicial: bool, chow_expected=None, gamma_expected=None) -> Item:
    """Everything `interarr ... --family file` computes for one file, each
    result checked by a second route."""
    def run():
        a = arrangement.parse_arrangement_text(text, simplicial=simplicial)
        lat = arrangement.intersection_lattice(a)
        rec = chow.chow_recursive(lat)
        chains = chow.chow_via_chains(lat, labeling.min_atom_label(lat))
        expect(rec == chains, f"recursion {rec.to_text()} vs chains {chains.to_text()}")
        if chow_expected is not None:
            expect(rec == chow_expected, f"chow {rec.to_text()}, table {chow_expected.to_text()}")
        chi = chow.characteristic_poly(lat, lat.bottom, lat.top)
        if a.m <= BRUTE_FORCE_MAX_M:
            brute = chow.char_poly_bruteforce(a)
            expect(chi == brute, f"moebius chi {chi.to_text()} vs subsets {brute.to_text()}")
        count = arrangement.chamber_count(a)
        expect(count == abs(chi(-1)), f"{count} chambers, |chi(-1)| = {abs(chi(-1))}")
        fvec = arrangement.f_vector(a)
        expect(euler_ok(fvec, a.dim), f"f-vector {fvec} fails Euler's relation")
        expect(fvec[-1] == count, f"f-vector {fvec} ends in {fvec[-1]}, not {count} chambers")
        if gamma_expected is not None:
            h = poly.f_to_h(arrangement.f_polynomial(fvec))
            got = poly.h_to_gamma(h).entries
            expect(got == tuple(gamma_expected), f"f->h->gamma {got}, table {tuple(gamma_expected)}")
    return Item(fid, run)


def files_items(rng: random.Random, chow_tab, gamma_tab) -> list[Item]:
    items = [file_item(f"file/dns-{n}-{s}",
                       present(rng, n, arrangement.make_family("dns", n, s).normals),
                       True, chow_tab[n][s], gamma_tab[n][s])
             for n, s in DNS_FILE_CELLS]
    for dim, normals in RANDOM_POOL:
        items.append(file_item(f"file/random-{dim}-{len(normals)}",
                               present(rng, dim, normals), False))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# verify


class VerifyRun:
    """`interarr verify --suite all --n-max 4` in-process through cli.main;
    every check it prints is one item."""

    def __init__(self, expected_checks: int = VERIFY_CHECKS):
        self.expected_checks = expected_checks

    def run(self, clock=None) -> list[tuple[str, str | None]]:
        """(check, error or None) per check.  When cli's per-check runner
        can be found, `clock.start(label)` and `clock.stop(label)` bracket
        each check."""
        wrapped = None
        runner = getattr(cli, "_run_verify_task", None)
        if clock is not None and runner is not None:
            def timed(item):
                clock.start(item[2])
                try:
                    return runner(item)
                finally:
                    clock.stop(item[2])
            wrapped = timed
            cli._run_verify_task = timed
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(VERIFY_ARGV))
        finally:
            if wrapped is not None:
                cli._run_verify_task = runner
        return self.parse(out.getvalue(), code)

    def parse(self, text: str, code) -> list[tuple[str, str | None]]:
        results = []
        summary = None
        for line in text.splitlines():
            status, _, rest = line.partition(" ")
            label, _, details = rest.strip().partition(": ")
            if status in ("PASS", "FAIL"):
                results.append((label, None if status == "PASS" else details))
            elif line.startswith("VERIFY:"):
                summary = line
        missing = self.expected_checks - len(results)
        results += [(f"verify/missing-{k}", "check not reported") for k in range(missing)]
        want = f"VERIFY: PASS ({self.expected_checks}/{self.expected_checks} checks)"
        if (summary != want or code != 0) and all(e is None for _, e in results):
            results.append(("verify/summary", f"exit {code}, summary {summary!r}, want {want!r}"))
        return results


# ---------------------------------------------------------------------------


def load_tables():
    return fixtures.chow_table(), fixtures.gamma_table()


def make_items(workload: str, seed: int, tables=None):
    """Items of one workload for one seed; verify returns a VerifyRun."""
    chow_tab, gamma_tab = tables or load_tables()
    rng = random.Random(seed)
    if workload == "chow-table":
        return chow_table_items(rng, chow_tab)
    if workload == "gamma-table":
        return gamma_table_items(rng, gamma_tab)
    if workload == "files":
        return files_items(rng, chow_tab, gamma_tab)
    if workload == "verify":
        return VerifyRun()
    raise ValueError(f"unknown workload {workload!r}")
