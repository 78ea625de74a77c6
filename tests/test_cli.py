import json

import pytest

import interarr.cli as cli
from interarr import fixtures
from interarr.arrangement import arrangement_to_text, make_family


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


def test_flag_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gamma", "--family", "dns", "--n", "3"])  # missing --s
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["chow", "--family", "d", "--n", "3", "--method", "closed"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["gamma", "--family", "b"])  # missing --n
    assert exc.value.code == 2


@pytest.mark.parametrize("normals", [
    ["1 0 1", "-1 0 1", "0 1 1", "0 -1 1"],            # cone over a square
    ["1 0 0", "0 1 0", "1 1 0", "0 0 1", "1 2 3"],     # three planes share a line
])
@pytest.mark.parametrize("method", ["topegraph", "separation"])
def test_gamma_non_simplicial_file_exits_2(tmp_path, capsys, normals, method):
    path = tmp_path / "arr.txt"
    path.write_text("dim 3\n" + "\n".join(normals) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "gamma", "--family", "file", "--path", str(path),
                         "--method", method)
    assert code == 2 and out == ""
    assert "not simplicial" in err and "Traceback" not in err


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
    code = cli.main(["gamma", "--family", "file", "--path", "/nonexistent/x.txt"])
    assert code == 2


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


def test_dump_chains(tmp_path, capsys):
    dump = tmp_path / "chains.txt"
    code, _, _ = run(capsys, "chow", "--family", "b", "--n", "2",
                     "--method", "chains", "--dump-chains", str(dump))
    assert code == 0
    assert dump.read_text() == "(0,2),(1,1) ; des=0\n"


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    code, out, _ = run(capsys, "verify", "--suite", "chains", "--n-max", "3",
                       "--jobs", "64")
    assert code == 0 and "VERIFY: PASS (2/2 checks)" in out
    code, out, _ = run(capsys, "tables", "--jobs", "64")
    assert code == 0 and "TABLES: PASS (7 rows)" in out
    code, _, _ = run(capsys, "verify", "--suite", "lattice", "--n-max", "2", "--jobs", "8")
    assert code == 0
    assert sizes == [2, 7]  # a single task runs without a pool


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
