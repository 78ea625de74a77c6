import concurrent.futures
import hashlib
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import interarr.arrangement as arr
import interarr.cli as cli
import interarr.topegraph as topegraph
from interarr import fixtures
from interarr.arrangement import (ChamberComplex, chamber_complex, f_vector,
                                  make_arrangement, make_family)
from interarr.topegraph import NotSimplicialError
from test_arrangement import _essential_small, arrangement_to_text, witness


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gamma_text_and_json(capsys):
    code, out, _ = run(capsys, "gamma", "--family", "dns", "--n", "3", "--s", "1")
    assert code == 0 and out.strip() == "gamma = (1, 12)"
    code, out, _ = run(capsys, "gamma", "--family", "b", "--n", "3",
                       "--format", "json", "--show-h")
    payload = json.loads(out)
    assert code == 0
    assert payload["gamma"] == [1, 20]
    assert payload["h"] == ["1", "23", "23", "1"]
    assert payload["s"] == 3


def test_gamma_methods_agree(capsys):
    outs = []
    for method in ("topegraph", "separation", "closed"):
        code, out, _ = run(capsys, "gamma", "--family", "d", "--n", "4",
                           "--method", method)
        assert code == 0
        outs.append(out)
    assert len(set(outs)) == 1


def test_gamma_closed_dns(capsys):
    code, out, _ = run(capsys, "gamma", "--family", "dns", "--n", "5", "--s", "2",
                       "--method", "closed")
    assert code == 0 and out.strip() == "gamma = (1, 184, 592)"


def test_chow_json_round_trip(capsys):
    code, out, _ = run(capsys, "chow", "--family", "dns", "--n", "5", "--s", "2",
                       "--method", "chains", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["1", "478", "2298", "478", "1"]
    assert json.dumps(payload, sort_keys=True) == out.strip()


def test_chow_methods(capsys):
    for method, family, extra in [("closed", "b", []), ("chains", "b", []),
                                  ("recursive", "b", [])]:
        code, out, _ = run(capsys, "chow", "--family", family, "--n", "3",
                           "--method", method)
        assert code == 0 and out.strip() == "chow = t^2 + 14*t + 1"
    code, out, _ = run(capsys, "chow", "--family", "a", "--n", "3")
    assert code == 0 and out.strip() == "chow = t^2 + 8*t + 1"


@pytest.mark.parametrize("argv, digest", [
    (["--family", "dns", "--n", "4", "--s", "2"],
     "f1fb7a8b9675199e59bf6d9416afca4528d9c0b60089968341aa5558f183429c"),
    (["--family", "b", "--n", "4"],
     "7b85631b0cfb6b95d09ed2db832567f2bbc8e08693d5eca9bbc5110570cff4c4"),
], ids=["dns-4-2", "b-4"])
def test_chain_dump_bytes_are_pinned(capsys, argv, digest):
    # the sha256 of stdout as the block-tuple representation printed it;
    # chains come out in element-id order, so this also pins the ids
    code, out, _ = run(capsys, "chow", *argv, "--method", "chains", "--dump-chains", "-")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_fvector(capsys):
    code, out, _ = run(capsys, "fvector", "--family", "d", "--n", "3",
                       "--format", "json")
    assert code == 0 and json.loads(out)["f"] == [1, 14, 36, 24]


def test_file_family(tmp_path, capsys):
    path = tmp_path / "arr.txt"
    path.write_text(arrangement_to_text(make_family("d", 3)), encoding="utf-8")
    code, out, _ = run(capsys, "gamma", "--family", "file", "--path", str(path))
    assert code == 0 and out.strip() == "gamma = (1, 8)"
    code, out, _ = run(capsys, "chow", "--family", "file", "--path", str(path),
                       "--method", "chains")
    assert code == 0 and out.strip() == "chow = t^2 + 8*t + 1"


def test_flag_errors_exit_2(tmp_path, monkeypatch, capsys):
    # each command's flag error prints that command's usage line
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["gamma", "--family", "dns", "--n", "3"],  # missing --s
        ["chow", "--family", "d", "--n", "3", "--method", "closed"],
        ["gamma", "--family", "b"],  # missing --n
        ["chow", "--family", "dns", "--n", "3", "--s", "1", "--method", "recursive",
         "--dump-chains", "out.txt"],
        ["fvector", "--family", "dns", "--n", "3", "--s", "4"],
        ["verify", "--suite", "el", "--n-max", "1"],
        ["chow", "--family", "dns", "--n", "0", "--s", "0"],
        ["chow", "--family", "b", "--n", "0"],
        ["chow", "--family", "dns", "--n", "-2", "--s", "0"],
        ["gamma", "--family", "a", "--n", "0"],
        ["fvector", "--family", "d", "--n", "-1"],
        # family flags the family does not read
        ["chow", "--family", "b", "--n", "3", "--s", "1"],
        ["gamma", "--family", "a", "--n", "3", "--s", "0"],
        ["fvector", "--family", "d", "--n", "3", "--s", "0"],
        ["chow", "--family", "file", "--path", "arr.txt", "--n", "3"],
        ["gamma", "--family", "file", "--path", "arr.txt", "--s", "1"],
        ["fvector", "--family", "b", "--n", "3", "--path", "arr.txt"],
        ["gamma", "--family", "dns", "--n", "3", "--s", "1", "--simplicial"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.startswith(f"usage: interarr {argv[0]} "), argv
    assert not (tmp_path / "out.txt").exists()


NON_SIMPLICIAL_NORMALS = [
    ["1 0 1", "-1 0 1", "0 1 1", "0 -1 1"],            # cone over a square
    ["1 0 0", "0 1 0", "1 1 0", "0 0 1", "1 2 3"],     # three planes share a line
    ["0 1 0", "1 0 0", "1 1 0", "1 1 1", "1 2 2"],     # fast walk closes up wrongly
    ["1 0 -2", "1 0 -1", "1 1 1", "2 0 1", "2 1 -1"],  # a hyperplane between two walls
]


@pytest.mark.parametrize("normals", NON_SIMPLICIAL_NORMALS)
@pytest.mark.parametrize("method", ["topegraph", "separation"])
def test_gamma_non_simplicial_file_exits_2(tmp_path, capsys, normals, method):
    _assert_non_simplicial_exits_2(tmp_path, capsys, normals, method, [])


@pytest.mark.parametrize("normals", NON_SIMPLICIAL_NORMALS)
@pytest.mark.parametrize("method", ["topegraph", "separation"])
def test_gamma_non_simplicial_file_with_simplicial_flag_exits_2(tmp_path, capsys,
                                                                normals, method):
    _assert_non_simplicial_exits_2(tmp_path, capsys, normals, method, ["--simplicial"])


# Non-simplicial files that the fast walk does not refuse: it completes,
# certified, with all 24 chambers but only 36 of their 38 walls.  They stay
# out of NON_SIMPLICIAL_NORMALS, whose refusals the walk tests pin; the
# lattice of flats' face counts refuse them instead.
UNDERCOUNTED_NORMALS = [
    ["0 0 1", "0 1 -2", "0 1 1", "1 -1 -2", "1 2 1", "2 1 -1"],
    ["0 1 -1", "1 -1 1", "2 -2 1", "2 -1 0", "2 -1 1", "2 0 -1"],
]


@pytest.mark.parametrize("normals", UNDERCOUNTED_NORMALS)
@pytest.mark.parametrize("method", ["topegraph", "separation"])
def test_simplicial_flag_is_checked_against_face_counts(tmp_path, capsys, normals, method):
    dump = tmp_path / "graph.txt"
    _assert_non_simplicial_exits_2(tmp_path, capsys, normals, method,
                                   ["--simplicial", "--dump-tope-graph", str(dump)])
    assert not dump.exists()


def _undercounted_files():
    return [make_arrangement(3, [tuple(map(int, ln.split())) for ln in normals])
            for normals in UNDERCOUNTED_NORMALS]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_essential_small())
@example(_undercounted_files()[0])
@example(_undercounted_files()[1])
def test_face_counts_pass_exactly_when_the_flagged_walk_is_complete(a):
    cc = chamber_complex(make_arrangement(a.dim, a.normals, simplicial=True))
    gen = arr._chamber_bfs(a, False)
    try:
        cli._require_face_counts(cc, f_vector(a))
    except NotSimplicialError:
        passed = False
    else:
        passed = True
    assert passed == (dict(zip(cc.masks, cc.facets)) == dict(zip(gen.masks, gen.facets)))


def _assert_non_simplicial_exits_2(tmp_path, capsys, normals, method, flags):
    path = tmp_path / "arr.txt"
    path.write_text("dim 3\n" + "\n".join(normals) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "gamma", "--family", "file", "--path", str(path),
                         "--method", method, *flags)
    assert code == 2 and out == ""
    assert "not simplicial" in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("dimension 2\n1 0\n0 1\n", "line 1: expected 'dim n', got 'dimension 2'"),
    ("# nothing but a comment\n\n", "expected 'dim n', got no non-comment line"),
    ("dim 2 3\n1 0\n0 1\n", "line 1: expected 'dim n', got 'dim 2 3'"),
    ("# a plane\ndim 2\n1 0\n\n0 x\n", "line 5: entries must be integers, got '0 x'"),
    ("dim 2\n1 0\n0 1 1\n", "line 3: expected 2 integers, got '0 1 1'"),
    ("dim 2\n1 0\n# zero\n0 0\n", "line 4: a normal must be nonzero, got '0 0'"),
    ("dim 2\n1 0\n0 1\n\n-2 0\n", "line 5: repeats the hyperplane of line 2"),
])
def test_malformed_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "arr.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "gamma", "--family", "file", "--path", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["gamma", "chow", "fvector"])
def test_negative_dim_file_exits_2(tmp_path, capsys, command):
    path = tmp_path / "arr.txt"
    path.write_text("dim -1\n", encoding="utf-8")
    code, out, err = run(capsys, command, "--family", "file", "--path", str(path))
    assert code == 2 and out == ""
    assert "dim must be >= 0" in err


@pytest.mark.parametrize("family, k", [
    pytest.param(["b", "--n", "2"], 0, id="family0"),
    pytest.param(["d", "--n", "3"], 0, id="family1"),
    pytest.param(["b", "--n", "3"], 0, id="family2"),
    pytest.param(["b", "--n", "2"], 1, id="b2-witness1"),
])
def test_negated_first_witness_exits_1(capsys, monkeypatch, family, k):
    # every chamber's witness is checked against the chamber's own signs:
    # the first chamber's (the lower end of all its edges) as any other
    walk = topegraph.chamber_complex

    def corrupted(a):
        cc = walk(a)  # cached: corrupt a copy, not the cached complex
        witnesses = list(cc.witnesses)
        witnesses[k] = tuple(-x for x in witness(cc, k))
        return ChamberComplex(a, cc.masks, witnesses, cc.facets, cc.index)

    monkeypatch.setattr(topegraph, "chamber_complex", corrupted)
    code, out, err = run(capsys, "gamma", "--family", *family)
    assert code == 1 and out == ""
    assert err == "error: chamber witness lies outside its chamber\n"


@pytest.mark.parametrize("sides, code, message", [
    (1, 1, "error: wall recorded by one of its two chambers only\n"),
    (2, 2, "error: arrangement is not simplicial: chamber "),
])
def test_dropped_wall_is_caught(capsys, monkeypatch, sides, code, message):
    # a wall missing from one chamber's record breaks the certificate; missing
    # from both, it leaves two chambers with too few walls
    walk = topegraph.chamber_complex

    def corrupted(a):
        cc = walk(a)
        facets = list(cc.facets)
        h = facets[0][-1]
        for c in (0, cc.index[cc.masks[0] ^ 1 << h])[:sides]:
            facets[c] = tuple(w for w in facets[c] if w != h)
        return ChamberComplex(a, cc.masks, cc.witnesses, facets, cc.index)

    monkeypatch.setattr(topegraph, "chamber_complex", corrupted)
    for method in ("topegraph", "separation"):
        got, out, err = run(capsys, "gamma", "--family", "b", "--n", "3", "--method", method)
        assert got == code and out == "" and err.startswith(message), method


def test_gamma_base_not_a_chamber_exits_2(capsys):
    code, _, err = run(capsys, "gamma", "--family", "b", "--n", "2", "--base=++")
    assert code == 2 and "is not a chamber" in err


@pytest.mark.parametrize("flag", ["--base=++", "--dump-tope-graph"])
def test_gamma_closed_rejects_chamber_graph_flags(tmp_path, capsys, flag):
    dump = tmp_path / "graph.txt"
    argv = ["gamma", "--family", "b", "--n", "2", "--method", "closed", flag]
    if flag == "--dump-tope-graph":
        argv.append(str(dump))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2 and not dump.exists()
    assert "require --method topegraph or separation" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    # --method closed reads the file too before it refuses the method, so a
    # missing file is reported as such and not as a flag error
    for method in ("auto", "closed"):
        code, _, err = run(capsys, "gamma", "--family", "file", "--path", "/nonexistent/x.txt",
                           "--method", method)
        assert code == 2 and err.startswith("error: [Errno 2]"), method


@pytest.mark.parametrize("argv, message", [
    (["gamma", "--family", "a", "--n", "3"], "--method closed is not available for family a"),
    (["gamma", "--family", "file", "--path", "arr.txt"],
     "--method closed is not available for family file"),
    (["chow", "--family", "file", "--path", "arr.txt"],
     "--method closed is not available for family file"),
    (["gamma", "--family", "d", "--n", "2"], "the type-D closed form needs n >= 3"),
], ids=["gamma-a", "gamma-file", "chow-file", "gamma-d-2"])
def test_closed_method_refusals_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "arr.txt").write_text(arrangement_to_text(make_family("d", 3)),
                                      encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--method", "closed"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith(f"usage: interarr {argv[0]} ")
    assert err.endswith(f"error: {message}\n")


def test_dump_tope_graph(tmp_path, capsys):
    dumps = []
    for method in ("topegraph", "separation"):  # both routes build the graph
        dump = tmp_path / f"{method}.txt"
        code, _, _ = run(capsys, "gamma", "--family", "b", "--n", "2",
                         "--method", method, "--dump-tope-graph", str(dump))
        assert code == 0
        dumps.append(dump.read_text())
    lines = dumps[0].strip().split("\n")
    assert len(lines) == 8 + 8  # octagon: vertices then edges
    assert all(len(l) == 4 for l in lines[:8])
    assert dumps[1] == dumps[0]


def test_dump_tope_graph_to_stdout(tmp_path, monkeypatch, capsys):
    # '-' means stdout: the dump, then the gamma line, and no file named '-'
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "gamma", "--family", "b", "--n", "2", "--dump-tope-graph", "-")
    assert code == 0 and not (tmp_path / "-").exists()
    graph = topegraph.build_tope_graph(make_family("b", 2))
    assert out == "".join(topegraph.dump_tope_graph(graph)) + "gamma = (1, 4)\n"


def test_dump_tope_graph_stdout_with_json_exits_2_before_computing(monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_tope_graph", lambda a: pytest.fail("computed"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["gamma", "--family", "b", "--n", "2", "--dump-tope-graph", "-",
                  "--format", "json"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and "both write to stdout" in out.err


def test_dump_chains(tmp_path, capsys):
    dump = tmp_path / "chains.txt"
    code, _, _ = run(capsys, "chow", "--family", "b", "--n", "2",
                     "--method", "chains", "--dump-chains", str(dump))
    assert code == 0
    assert dump.read_text() == "(0,2),(1,1) ; des=0\n"


@pytest.mark.parametrize("flags, message", [
    (["--method", "recursive", "--dump-chains", "-"], "requires --method chains"),
    (["--dump-chains", "-", "--format", "json"], "both write to stdout"),
], ids=["not-chains", "stdout-json"])
def test_dump_chains_flag_errors_exit_2_before_computing(monkeypatch, capsys,
                                                         flags, message):
    # rejected before any lattice is built, so stdout stays empty
    monkeypatch.setattr(cli, "enumerate_lattice", lambda n, s: pytest.fail("computed"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["chow", "--family", "dns", "--n", "3", "--s", "1", *flags])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and message in out.err


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "chains", "--n-max", "3")
    assert code == 0 and "VERIFY: PASS" in out
    code, out, _ = run(capsys, "verify", "--suite", "chow", "--n-max", "2",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert all(item["status"] == "pass" for item in report)
    assert all(set(item) == {"check", "status", "details"} for item in report)


def test_verify_jobs_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "el", "--n-max", "3")
    code2, out2, _ = run(capsys, "verify", "--suite", "el", "--n-max", "3",
                         "--jobs", "2")
    assert code1 == code2 == 0 and out1 == out2


def test_verify_enumerates_each_type_b_lattice_once(capsys):
    # the checks run grouped by n, so the one-entry B_n cache misses once
    # per n; they are still reported in listing order
    from interarr.signed_partitions import _type_b_lattice

    _type_b_lattice.cache_clear()
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "4")
    assert code == 0 and _type_b_lattice.cache_info().misses == 3  # n = 2, 3, 4
    assert [line.split()[1][:-1] for line in out.splitlines()[:-1]] == VERIFY_ALL_4


VERIFY_ALL_4 = [
    "el/pi-b-2", "el/dns-2-0", "el/dns-2-1", "el/pi-b-3", "el/dns-3-0",
    "el/dns-3-1", "el/dns-3-2", "el/pi-b-4", "el/dns-4-0", "el/dns-4-1",
    "el/dns-4-2", "el/dns-4-3", "el/negative-control",
    "chains/count-formula-2", "chains/count-formula-3", "chains/count-formula-4",
    "chow/four-way-2-0", "chow/four-way-2-1", "chow/four-way-2-2",
    "chow/four-way-3-0", "chow/four-way-3-1", "chow/four-way-3-2",
    "chow/four-way-3-3", "chow/four-way-4-0", "chow/four-way-4-1",
    "chow/four-way-4-2", "chow/four-way-4-3", "chow/four-way-4-4",
    "chow/type-b-2", "chow/type-b-3", "chow/type-b-4",
    "chow/type-a-2", "chow/type-a-3", "chow/type-a-4",
    "gamma/arithmetic-3", "gamma/arithmetic-4",
    "chow/arithmetic-2", "chow/arithmetic-3", "chow/arithmetic-4",
    "lattice/iso-b-2", "lattice/iso-b-3", "lattice/iso-b-4", "charpoly/a-3",
    "charpoly/dns-3-0", "charpoly/dns-3-1", "charpoly/dns-3-2", "charpoly/dns-3-3",
    "charpoly/dns-4-0", "charpoly/dns-4-1", "charpoly/dns-4-2", "charpoly/dns-4-3",
    "charpoly/dns-4-4",
]


def test_verify_task_labels():
    # the benchmark's verify workload expects exactly these 52 checks
    assert [label for _, _, label in cli._verify_tasks("all", 4)] == VERIFY_ALL_4
    # no check of rank n runs below --n-max n, so below 2 none runs at all
    assert [label for _, _, label in cli._verify_tasks("lattice", 2)] == ["lattice/iso-b-2"]
    assert cli._verify_tasks("all", 1) == []


def test_verify_tasks_survive_pickling():
    # --jobs ships each task to a worker process: check, arguments and label
    tasks = cli._verify_tasks("all", 7)
    assert [pickle.loads(pickle.dumps(task)) for task in tasks] == tasks


@pytest.fixture
def small_tables(monkeypatch):
    small_gamma = {3: {s: fixtures.gamma_table()[3][s] for s in range(4)}}
    small_chow = {2: fixtures.chow_table()[2]}
    monkeypatch.setattr(cli.fixtures, "gamma_table", lambda: small_gamma)
    monkeypatch.setattr(cli.fixtures, "chow_table", lambda: small_chow)


@pytest.mark.parametrize("argv", [["verify", "--suite", "chains"], ["tables"]],
                         ids=["verify", "tables"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exits_2(small_tables, capsys, argv, jobs):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--jobs", jobs])
    assert exc.value.code == 2 and "--jobs" in capsys.readouterr().err


def test_pool_never_larger_than_task_list(small_tables, monkeypatch, capsys):
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    code, out, _ = run(capsys, "verify", "--suite", "chains", "--n-max", "3",
                       "--jobs", "64")
    assert code == 0 and "VERIFY: PASS (2/2 checks)" in out
    code, out, _ = run(capsys, "tables", "--jobs", "64")
    assert code == 0 and "TABLES: PASS (7 rows)" in out
    code, _, _ = run(capsys, "verify", "--suite", "lattice", "--n-max", "2", "--jobs", "8")
    assert code == 0
    assert sizes == [2, 7]  # a single task runs without a pool


def test_tables_submit_costliest_rows_first(monkeypatch, capsys):
    gamma = {3: {s: fixtures.gamma_table()[3][s] for s in range(2)}}
    chow = {n: fixtures.chow_table()[n] for n in (2, 3)}
    monkeypatch.setattr(cli.fixtures, "gamma_table", lambda: gamma)
    monkeypatch.setattr(cli.fixtures, "chow_table", lambda: chow)
    submitted = []

    class Recorder:  # runs the tasks in this process, records their order
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            submitted.extend(items)
            return map(fn, items)

    code, serial, _ = run(capsys, "tables")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    code2, pooled, _ = run(capsys, "tables", "--jobs", "2")
    assert code == code2 == 0 and pooled == serial
    assert [t[1] for t in submitted] == [3, 3, 3, 3, 3, 3, 2, 2, 2]
    assert submitted[:2] == [("gamma", 3, 0), ("gamma", 3, 1)]
    rows = [line.split(":")[0] for line in pooled.splitlines()[:-1]]
    assert rows == ["gamma n=3 s=0", "gamma n=3 s=1"] + [
        f"chow n={n} s={s}" for n in (2, 3) for s in range(n + 1)]


def test_tables_small_monkeypatched(small_tables, capsys):
    code1, out1, _ = run(capsys, "tables")
    assert code1 == 0 and "TABLES: PASS (7 rows)" in out1
    code2, out2, _ = run(capsys, "tables", "--jobs", "2")
    assert out2 == out1


def test_tables_detects_mismatch(monkeypatch, capsys):
    wrong = {3: {0: (1, 9)}}
    monkeypatch.setattr(cli.fixtures, "gamma_table", lambda: wrong)
    monkeypatch.setattr(cli.fixtures, "chow_table", lambda: {})
    code, out, _ = run(capsys, "tables")
    assert code == 1 and "MISMATCH" in out


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cold(code: str, *args: str) -> subprocess.CompletedProcess:
    """code in a fresh interpreter that imports nothing through site
    (-I -S: a plain interpreter may load importlib.resources there);
    argv[1] is the source tree."""
    return subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC), *args],
                          capture_output=True, timeout=300)


def test_serial_commands_import_no_pool_and_no_resources():
    proc = run_cold("""
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import interarr
import interarr.cli as cli
from interarr import fixtures
fixtures.chow_table(), fixtures.gamma_table()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["chow", "--family", "dns", "--n", "3", "--s", "1"]),
             cli.main(["verify", "--suite", "lattice", "--n-max", "2"])]
print(codes, sorted(m for m in sys.modules
                    if m.partition(".")[0] in ("concurrent", "multiprocessing")
                    or m.startswith("importlib.resources")))
""")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"[0, 0] []\n"


def test_pool_imported_at_first_use_matches_serial_run():
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import interarr.cli as cli
code = cli.main(["verify", "--suite", "el", "--n-max", "3", "--jobs", sys.argv[2]])
print("pool" if "multiprocessing" in sys.modules else "serial", file=sys.stderr)
sys.exit(code)
"""
    pooled, serial = run_cold(code, "2"), run_cold(code, "1")
    assert (pooled.returncode, pooled.stderr) == (0, b"pool\n"), pooled.stderr.decode()
    assert (serial.returncode, serial.stderr) == (0, b"serial\n"), serial.stderr.decode()
    assert b"VERIFY: PASS (8/8 checks)" in serial.stdout
    assert pooled.stdout == serial.stdout
