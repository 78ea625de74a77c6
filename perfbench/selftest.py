"""Tests of the benchmark itself (not collected by pytest; about 5 s).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import interarr.arrangement  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from interarr.poly import IntPolynomial  # noqa: E402
from worker import Clock, run_items  # noqa: E402


def corrupt(p: IntPolynomial) -> IntPolynomial:
    return IntPolynomial(p.coeffs[:-1] + (p.coeffs[-1] + 1,))


class CorrectnessGate(unittest.TestCase):
    def setUp(self):
        self.chow_tab, self.gamma_tab = workloads.load_tables()

    def failures(self, items):
        clock = Clock()
        run_items(items, clock)
        return {e["id"]: e["error"] for e in clock.items if e["error"] is not None}

    def test_true_values_pass(self):
        items = [workloads.chow_row(3, 1, self.chow_tab[3][1]),
                 workloads.gamma_row(3, 2, self.gamma_tab[3][2])]
        self.assertEqual(self.failures(items), {})

    def test_corrupted_chow_value_fails_and_names_the_row(self):
        items = [workloads.chow_row(3, 1, corrupt(self.chow_tab[3][1])),
                 workloads.chow_row(3, 2, self.chow_tab[3][2])]
        failed = self.failures(items)
        self.assertEqual(list(failed), ["chow/3-1"])
        self.assertIn("Mismatch", failed["chow/3-1"])

    def test_corrupted_gamma_value_fails(self):
        bad = (self.gamma_tab[4][1][0] + 1,) + tuple(self.gamma_tab[4][1][1:])
        self.assertEqual(list(self.failures([workloads.gamma_row(4, 1, bad)])), ["gamma/4-1"])

    def test_wrong_known_size_fails(self):
        item = workloads.chow_row(3, 1, self.chow_tab[3][1], sizes=(1, 1))
        self.assertIn("known", self.failures([item])["chow/3-1"])

    def test_corrupted_file_expectations_fail(self):
        text = workloads.present(random.Random(0), 3,
                                 interarr.arrangement.make_family("dns", 3, 1).normals)
        good = workloads.file_item("f/good", text, True, self.chow_tab[3][1], self.gamma_tab[3][1])
        bad_chow = workloads.file_item("f/chow", text, True, corrupt(self.chow_tab[3][1]))
        bad_gamma = workloads.file_item("f/gamma", text, True, None, (2,) + self.gamma_tab[3][1][1:])
        self.assertEqual(sorted(self.failures([good, bad_chow, bad_gamma])), ["f/chow", "f/gamma"])

    def test_exception_is_one_failed_item(self):
        def boom():
            raise ZeroDivisionError("x")
        failed = self.failures([workloads.Item("boom", boom),
                                workloads.chow_row(2, 0, self.chow_tab[2][0])])
        self.assertEqual(failed, {"boom": "ZeroDivisionError: x"})

    def test_verify_output_parsing(self):
        v = workloads.VerifyRun(expected_checks=3)
        ok = "PASS a/1: fine\nPASS a/2: fine\nPASS a/3: fine\nVERIFY: PASS (3/3 checks)\n"
        self.assertTrue(all(e is None for _, e in v.parse(ok, 0)))
        bad = ok.replace("PASS a/2: fine", "FAIL a/2: 1 != 2").replace("PASS (3/3", "FAIL (2/3")
        self.assertEqual([c for c, e in v.parse(bad, 1) if e], ["a/2"])
        short = "PASS a/1: fine\nVERIFY: PASS (1/1 checks)\n"
        self.assertEqual(sum(e is not None for _, e in v.parse(short, 0)), 2)


class ScaledTimes(unittest.TestCase):
    def test_item_times_are_medians_of_scaled_passes(self):
        def item(iid, wall, cpu):
            return {"id": iid, "seconds": wall, "cpu_seconds": cpu, "error": None}
        ref = run.CALIBRATION_REF_S
        # The first pass ran at full speed half the time and a third of it
        # the rest, so at 2/3 on average; the third ran at half speed.
        passes = [{"wall_s": 7.5, "cpu_s": 7.5, "calibration_s": [ref, 3 * ref],
                   "items": [item("a", 3.0, 2.85), item("b", 4.5, 4.35)]},
                  {"wall_s": 5.0, "cpu_s": 5.0, "calibration_s": [ref],
                   "items": [item("a", 3.0, 2.8), item("b", 1.0, 0.8)]},
                  {"wall_s": 9.0, "cpu_s": 9.0, "calibration_s": [2 * ref],
                   "items": [item("a", 4.4, 4.2), item("b", 4.0, 3.6)]}]
        self.assertEqual(run.item_times(passes), {"a": (2.2, 2.1), "b": (2.0, 1.8)})
        self.assertEqual(run.scaled_times(passes),
                         {"wall_s": 4.2, "cpu_s": 2.1 + 1.8, "slowest_item_s": 2.2})

    def test_untimed_items_make_the_pass_one_item(self):
        passes = [{"wall_s": 4.0, "cpu_s": 3.5, "calibration_s": [run.CALIBRATION_REF_S],
                   "items": [{"id": "a", "seconds": None, "cpu_seconds": None, "error": None}]}]
        self.assertEqual(run.item_times(passes), {"pass": (4.0, 3.5)})


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = workloads.make_items("files", 7)
        b = workloads.make_items("files", 7)
        self.assertEqual([i.id for i in a], [i.id for i in b])

    def test_presentation_keeps_the_arrangement(self):
        dim, normals = workloads.RANDOM_POOL[0]
        counts = set()
        for seed in range(3):
            text = workloads.present(random.Random(seed), dim, normals)
            counts.add(interarr.arrangement.chamber_count(
                interarr.arrangement.parse_arrangement_text(text)))
        self.assertEqual(counts, {interarr.arrangement.chamber_count(
            interarr.arrangement.make_arrangement(dim, normals))})


class Tracing(unittest.TestCase):
    def traced(self, items):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_items(items, Clock(tracer))
        finally:
            tracer.uninstall()
        return tracer

    def test_counts_and_restore(self):
        original = interarr.chow.chow_via_chains
        chow_tab, gamma_tab = workloads.load_tables()
        tracer = self.traced([workloads.chow_row(3, 3, chow_tab[3][3]),
                              workloads.gamma_row(3, 3, gamma_tab[3][3])])
        m = tracer.metrics()
        self.assertEqual(tracer.missing, [])
        self.assertEqual(set(m), set(tracing.METRICS))
        lat = interarr.chow.dns_lattice(3, 3)
        self.assertEqual(m["signed_partitions.elements"], len(lat))
        self.assertEqual(m["labeling.label_calls"], workloads.n_covers(lat))
        self.assertEqual((m["arrangement.chambers"], m["arrangement.walls"]), (48, 72))
        self.assertIs(interarr.chow.chow_via_chains, original)
        self.assertTrue(all(s[4] in ("chow/3-3", "gamma/3-3") for s in tracer.spans))

    def test_missing_wrap_point_is_absent_not_fatal(self):
        saved = interarr.arrangement.feasible_strict
        del interarr.arrangement.feasible_strict
        try:
            tracer = self.traced([])
        finally:
            interarr.arrangement.feasible_strict = saved
        self.assertIn("interarr.arrangement.feasible_strict", tracer.missing)
        self.assertIn("feasibility.strict_calls", tracer.absent())
        self.assertNotIn("feasibility.strict_calls", tracer.metrics())


if __name__ == "__main__":
    unittest.main()
