"""Command-line front end: compute invariants, regenerate the golden
tables, and run the verification suites.

Exit codes: 0 success, 1 verification/diff failure, 2 flag errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import permutations

from . import fixtures
from .arrangement import (InvalidParamsError, f_vector, intersection_lattice,
                          load_arrangement, make_family)
from .chow import (char_poly_bruteforce, characteristic_poly, chow_dns,
                   chow_recursive, chow_type_a, chow_type_b, chow_via_chains,
                   dns_lattice, verify_chow_arithmetic, verify_gamma_arithmetic)
from .labeling import (count_chains_with_word, dump_chain_line, el_label,
                       enumerate_filtered_chains, min_atom_label, verify_el)
from .lattice import lattice_isomorphic
from .permstats import (h_b_closed, h_d_closed, increment_closed,
                        inversion_sequence)
from .poly import IntPolynomial, h_to_gamma
from .signed_partitions import enumerate_lattice, variant_b
from .topegraph import (build_tope_graph, dump_tope_graph, h_via_indegree,
                        h_via_separation)


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _resolve_family(args, parser) -> tuple[str, int | None, int | None]:
    fam = args.family
    n, s = args.n, args.s
    if fam == "file":
        if not args.path:
            parser.error("--family file requires --path")
        return fam, None, None
    if n is None:
        parser.error(f"--family {fam} requires --n")
    if fam == "dns":
        if s is None:
            parser.error("--family dns requires --s")
        if not 0 <= s <= n:
            parser.error(f"--s must be in 0..{n}")
    elif fam == "b":
        s = n
    elif fam == "d":
        s = 0
    else:
        s = None
    return fam, n, s


def _family_arrangement(args, parser):
    fam, n, s = _resolve_family(args, parser)
    if fam == "file":
        arr = load_arrangement(args.path, simplicial=args.simplicial)
        return arr, fam, None, None
    if fam == "a":
        return make_family("a", n), fam, n, None
    return make_family("dns", n, s), fam, n, s


# ---------------------------------------------------------------------------
# gamma


def _gamma_h_closed(fam: str, n: int, s: int | None, parser):
    if fam == "b" or (fam == "dns" and s == n):
        return h_b_closed(n)
    if fam in ("d", "dns"):
        if n < 3:
            parser.error("the type-D closed form needs n >= 3")
        h = h_d_closed(n)
        if s:
            h = h + s * increment_closed(n)
        return h
    parser.error(f"--method closed is not available for family {fam}")


def cmd_gamma(args, parser) -> int:
    arr, fam, n, s = _family_arrangement(args, parser)
    method = "topegraph" if args.method == "auto" else args.method
    if method == "closed":
        if args.base is not None or args.dump_tope_graph:
            parser.error("--base and --dump-tope-graph require --method "
                         "topegraph or separation")
        h = _gamma_h_closed(fam, n, s, parser)
    else:
        graph = build_tope_graph(arr)
        route = h_via_indegree if method == "topegraph" else h_via_separation
        h = route(graph, args.base)
        if args.dump_tope_graph:
            with open(args.dump_tope_graph, "w", encoding="utf-8") as fh:
                fh.write(dump_tope_graph(graph))
    gamma = h_to_gamma(h)
    payload = {"family": fam, "n": n, "s": s, "method": method,
               "gamma": list(gamma.entries)}
    lines = [f"gamma = ({', '.join(str(g) for g in gamma.entries)})"]
    if args.show_h:
        payload["h"] = h.to_json_coeffs()
        lines.append(f"h = {h.to_text()}")
    if args.show_f:
        fv = f_vector(arr)
        payload["f"] = fv
        lines.append(f"f = ({', '.join(str(x) for x in fv)})")
    _emit(payload, args.format, lines)
    return 0


# ---------------------------------------------------------------------------
# chow


def cmd_chow(args, parser) -> int:
    fam, n, s = _resolve_family(args, parser)
    method = args.method
    if method == "auto":
        method = "closed" if fam in ("a", "b") else "chains"
    if method == "closed":
        if fam == "a":
            poly = chow_type_a(n)
        elif fam == "b" or (fam == "dns" and s == n):
            poly = chow_type_b(n)
        else:
            parser.error(f"--method closed is not available for family {fam}")
    else:
        partition_side = fam in ("b", "d", "dns")
        if partition_side:
            lat = dns_lattice(n, s)
        else:
            arr = (load_arrangement(args.path, simplicial=args.simplicial)
                   if fam == "file" else make_family("a", n))
            lat = intersection_lattice(arr)
        if method == "recursive":
            poly = chow_recursive(lat)
        else:
            labeler = el_label if partition_side else min_atom_label(lat)
            poly = chow_via_chains(lat, labeler)
    if args.dump_chains:
        if method != "chains":
            parser.error("--dump-chains requires --method chains")
        out = sys.stdout if args.dump_chains == "-" else open(
            args.dump_chains, "w", encoding="utf-8")
        try:
            for chain in enumerate_filtered_chains(lat, labeler):
                out.write(dump_chain_line(chain) + "\n")
        finally:
            if out is not sys.stdout:
                out.close()
    payload = {"family": fam, "n": n, "s": s, "method": method,
               "coeffs": poly.to_json_coeffs()}
    _emit(payload, args.format, [f"chow = {poly.to_text()}"])
    return 0


# ---------------------------------------------------------------------------
# fvector


def cmd_fvector(args, parser) -> int:
    arr, fam, n, s = _family_arrangement(args, parser)
    fv = f_vector(arr)
    payload = {"family": fam, "n": n, "s": s, "f": fv}
    _emit(payload, args.format, [f"f = ({', '.join(str(x) for x in fv)})"])
    return 0


# ---------------------------------------------------------------------------
# tables


def _table_cell(task) -> tuple:
    kind, n, s = task
    if kind == "gamma":
        h = h_via_indegree(make_family("dns", n, s))
        return (kind, n, s, list(h_to_gamma(h).entries))
    return (kind, n, s, chow_dns(n, s).to_json_coeffs())


def _map_tasks(fn, tasks, jobs: int) -> list:
    """fn over tasks in order; a pool never has more workers than tasks,
    since it forks every worker at the first submit."""
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def cmd_tables(args, parser) -> int:
    gtab = fixtures.gamma_table()
    ctab = fixtures.chow_table()
    tasks = [("gamma", n, s) for n in sorted(gtab) for s in sorted(gtab[n])]
    tasks += [("chow", n, s) for n in sorted(ctab) for s in sorted(ctab[n])]
    results = _map_tasks(_table_cell, tasks, args.jobs)
    failures = 0
    for kind, n, s, got in results:
        if kind == "gamma":
            want = list(gtab[n][s])
            shown = f"({', '.join(str(x) for x in got)})"
        else:
            want = ctab[n][s].to_json_coeffs()
            shown = IntPolynomial.from_json_coeffs(got).to_text()
        status = "OK" if got == want else "MISMATCH"
        if status != "OK":
            failures += 1
        print(f"{kind} n={n} s={s}: {shown} {status}")
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} mismatches)"
    print(f"TABLES: {verdict} ({len(results)} rows)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# verify


def _check_el(task):
    kind, n, s = task
    lat = enumerate_lattice(variant_b(n)) if kind == "b" else dns_lattice(n, s)
    report = verify_el(lat, el_label)
    return (not report, f"{len(report)} violating intervals")


def _check_el_negative(task):
    """Two corruptions of the (1,1) label, each must break the EL property."""
    lat = enumerate_lattice(variant_b(2))
    for bad in ((2, 9), (0, 1)):
        def corrupted(x, y, bad=bad):
            lab = el_label(x, y)
            return bad if lab == (1, 1) else lab

        if not verify_el(lat, corrupted):
            return (False, f"corrupted labeling (1, 1) -> {bad} went unnoticed")
    return (True, "corrupted labeling was detected")


def _check_chains(task):
    _, n, _ = task
    lat = enumerate_lattice(variant_b(n))
    total = 0
    for sigma in permutations(range(1, n + 1)):
        expected = math.prod(2 * x - 1 for x in inversion_sequence(sigma))
        got = count_chains_with_word(lat, lat.bottom, lat.top, sigma)
        if got != expected:
            return (False, f"word {sigma}: {got} chains, formula {expected}")
        total += got
    if total != math.factorial(n) ** 2:
        return (False, f"total {total} != (n!)^2")
    return (True, f"all words match, total {total}")


def _check_four_way(task):
    _, n, s = task
    lat = dns_lattice(n, s)
    dfs = chow_via_chains(lat, el_label, method="dfs")
    layered = chow_via_chains(lat, el_label, method="layered")
    rec = chow_recursive(lat)
    expected = fixtures.chow_table()[n][s]
    if not dfs == layered == rec == expected:
        return (False, f"dfs={dfs.to_text()} layered={layered.to_text()} "
                       f"recursive={rec.to_text()} table={expected.to_text()}")
    return (True, dfs.to_text())


def _check_type_b(task):
    _, n, _ = task
    got = chow_via_chains(enumerate_lattice(variant_b(n)), el_label)
    want = chow_type_b(n)
    return (got == want, f"chains {got.to_text()} vs closed {want.to_text()}")


def _check_type_a(task):
    _, n, _ = task
    lat = intersection_lattice(make_family("a", n))
    got = chow_via_chains(lat, min_atom_label(lat), method="dfs")
    want = chow_type_a(n)
    return (got == want, f"chains {got.to_text()} vs closed {want.to_text()}")


def _check_gamma_arith(task):
    _, n, _ = task
    report = verify_gamma_arithmetic(n)
    return (report.ok, "; ".join(report.failures) or
            f"increment {report.increment.entries}")


def _check_chow_arith(task):
    _, n, _ = task
    report = verify_chow_arithmetic(n)
    return (report.ok, "; ".join(report.failures) or
            f"increment {report.increment.to_text()}")


def _check_lattice_iso(task):
    _, n, _ = task
    ok = lattice_isomorphic(intersection_lattice(make_family("b", n)),
                            enumerate_lattice(variant_b(n)))
    return (ok, "arrangement and partition lattices are isomorphic"
            if ok else "lattices differ")


def _check_charpoly(task):
    _, n, s = task
    arr = make_family("a", n) if s is None else make_family("dns", n, s)
    lat = intersection_lattice(arr)
    via_moebius = characteristic_poly(lat, lat.bottom, lat.top)
    via_subsets = char_poly_bruteforce(arr)
    ok = via_moebius == via_subsets
    return (ok, via_moebius.to_text() if ok else
            f"moebius {via_moebius.to_text()} vs subsets {via_subsets.to_text()}")


_CHECKS = {
    "el": _check_el,
    "el-negative": _check_el_negative,
    "chains": _check_chains,
    "chow-four-way": _check_four_way,
    "chow-type-b": _check_type_b,
    "chow-type-a": _check_type_a,
    "gamma-arithmetic": _check_gamma_arith,
    "chow-arithmetic": _check_chow_arith,
    "lattice-iso": _check_lattice_iso,
    "charpoly": _check_charpoly,
}


def _verify_tasks(suite: str, n_max: int):
    """Named tasks (check-name, kind, n, s), filtered by suite and n_max."""
    tasks = []

    def add(check, kind, n, s, label):
        tasks.append((check, (kind, n, s), label))

    if suite in ("all", "el"):
        for n in range(2, min(4, n_max) + 1):
            add("el", "b", n, None, f"el/pi-b-{n}")
            for s in range(0, n):
                add("el", "dns", n, s, f"el/dns-{n}-{s}")
        if n_max >= 2:
            add("el-negative", "b", 2, None, "el/negative-control")
    if suite in ("all", "chains"):
        for n in range(2, min(4, n_max) + 1):
            add("chains", "b", n, None, f"chains/count-formula-{n}")
    if suite in ("all", "chow"):
        for n in range(2, min(5, n_max) + 1):
            for s in range(0, n + 1):
                add("chow-four-way", "dns", n, s, f"chow/four-way-{n}-{s}")
        for n in range(2, min(6, n_max) + 1):
            add("chow-type-b", "b", n, None, f"chow/type-b-{n}")
        for n in range(2, min(5, n_max) + 1):
            add("chow-type-a", "a", n, None, f"chow/type-a-{n}")
    if suite in ("all", "gamma"):
        for n in range(3, min(6, n_max) + 1):
            add("gamma-arithmetic", "dns", n, None, f"gamma/arithmetic-{n}")
    if suite in ("all", "chow-arith"):
        for n in range(2, min(7, n_max) + 1):
            add("chow-arithmetic", "dns", n, None, f"chow/arithmetic-{n}")
    if suite in ("all", "lattice"):
        for n in range(2, min(4, n_max) + 1):
            add("lattice-iso", "b", n, None, f"lattice/iso-b-{n}")
        if n_max >= 3:
            add("charpoly", "a", 3, None, "charpoly/a-3")
        for n in range(3, min(4, n_max) + 1):
            for s in range(0, n + 1):
                if make_family("dns", n, s).m <= 16:
                    add("charpoly", "dns", n, s, f"charpoly/dns-{n}-{s}")
    return tasks


def _run_verify_task(item):
    check, task, label = item
    try:
        ok, details = _CHECKS[check](task)
    except Exception as exc:  # a crash is a failed check, not a crashed run
        ok, details = False, f"exception: {exc!r}"
    return {"check": label, "status": "pass" if ok else "fail", "details": details}


def cmd_verify(args, parser) -> int:
    tasks = _verify_tasks(args.suite, args.n_max)
    if not tasks:
        parser.error(f"suite {args.suite!r} selected no checks at --n-max {args.n_max}")
    results = _map_tasks(_run_verify_task, tasks, args.jobs)
    failed = [r for r in results if r["status"] != "pass"]
    if args.format == "json":
        print(json.dumps(results, sort_keys=True))
    else:
        for r in results:
            print(f"{r['status'].upper():4} {r['check']}: {r['details']}")
        print(f"VERIFY: {'PASS' if not failed else 'FAIL'} "
              f"({len(results) - len(failed)}/{len(results)} checks)")
    if failed:
        for r in failed:
            print(f"failed: {r['check']}: {r['details']}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interarr",
        description="Exact invariants of reflection-type hyperplane arrangements")
    sub = parser.add_subparsers(dest="command", required=True)

    def family_flags(p, methods):
        p.add_argument("--family", choices=["a", "b", "d", "dns", "file"], required=True)
        p.add_argument("--n", type=int)
        p.add_argument("--s", type=int)
        p.add_argument("--path", help="arrangement file for --family file")
        p.add_argument("--simplicial", action="store_true",
                       help="assert a file arrangement is simplicial (faster walk)")
        p.add_argument("--method", choices=methods, default="auto")
        p.add_argument("--format", choices=["text", "json"], default="text")

    g = sub.add_parser("gamma", help="gamma vector of an arrangement")
    family_flags(g, ["auto", "topegraph", "separation", "closed"])
    g.add_argument("--base", help="base chamber sign string")
    g.add_argument("--show-h", action="store_true")
    g.add_argument("--show-f", action="store_true")
    g.add_argument("--dump-tope-graph", metavar="PATH")
    g.set_defaults(func=cmd_gamma)

    c = sub.add_parser("chow", help="Chow polynomial of the lattice of flats")
    family_flags(c, ["auto", "chains", "closed", "recursive"])
    c.add_argument("--dump-chains", metavar="PATH",
                   help="write surviving labeled chains ('-' for stdout)")
    c.set_defaults(func=cmd_chow)

    f = sub.add_parser("fvector", help="f-vector of the sphere triangulation")
    family_flags(f, ["auto"])
    f.set_defaults(func=cmd_fvector)

    t = sub.add_parser("tables", help="regenerate the golden tables and diff")
    t.add_argument("--jobs", type=positive_int, default=1)
    t.set_defaults(func=cmd_tables)

    v = sub.add_parser("verify", help="run the verification suites")
    v.add_argument("--suite", default="all",
                   choices=["all", "el", "chains", "chow", "gamma", "chow-arith", "lattice"])
    v.add_argument("--n-max", type=int, default=4)
    v.add_argument("--jobs", type=positive_int, default=1)
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (InvalidParamsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
