"""Unit tests for bench_to_json.merge_run, the BENCH_core.json merge.

Run: python3 -m unittest discover -s scripts/tests
"""

import importlib.util
import os
import unittest

_spec = importlib.util.spec_from_file_location(
    "bench_to_json",
    os.path.join(os.path.dirname(__file__), os.pardir, "bench_to_json.py"))
bench_to_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_to_json)


def entry(real_time, unit="ms"):
    return {"real_time": real_time, "cpu_time": real_time, "time_unit": unit}


def run(label, context, **benchmarks):
    return {"label": label, "context": context, "benchmarks": benchmarks}


OLD_CONTEXT = {"num_cpus": 1, "kernel_isa": "scalar"}
NEW_CONTEXT = {"num_cpus": 4, "kernel_isa": "fma256", "cpu_steal_frac": 0.01}


def recorded_doc():
    doc = {}
    bench_to_json.merge_run(
        doc, run("base", OLD_CONTEXT, bm_a=entry(4.0), bm_b=entry(8.0)),
        filtered=False)
    bench_to_json.merge_run(
        doc, run("full", OLD_CONTEXT, bm_a=entry(2.0), bm_b=entry(4.0)),
        filtered=False)
    return doc


class MergeRunTest(unittest.TestCase):
    def test_filtered_merge_stamps_only_the_refreshed_entry(self):
        doc = recorded_doc()
        bench_to_json.merge_run(
            doc, run("partial", NEW_CONTEXT, bm_a=entry(1.0)), filtered=True)
        current = doc["current"]
        self.assertEqual(current["label"], "full")
        self.assertEqual(current["context"], OLD_CONTEXT)
        self.assertEqual(current["benchmarks"]["bm_a"],
                         dict(entry(1.0), label="partial",
                              context=NEW_CONTEXT))
        self.assertEqual(current["benchmarks"]["bm_b"], entry(4.0))
        self.assertEqual(doc["speedup_vs_baseline"],
                         {"bm_a": 4.0, "bm_b": 2.0})

    def test_filtered_merge_keeps_an_earlier_stamp(self):
        doc = recorded_doc()
        bench_to_json.merge_run(
            doc, run("first", NEW_CONTEXT, bm_a=entry(1.0)), filtered=True)
        bench_to_json.merge_run(
            doc, run("second", OLD_CONTEXT, bm_b=entry(2.0)), filtered=True)
        bm_a = doc["current"]["benchmarks"]["bm_a"]
        self.assertEqual((bm_a["label"], bm_a["context"]),
                         ("first", NEW_CONTEXT))
        self.assertEqual(doc["current"]["label"], "full")

    def test_unfiltered_merge_replaces_current(self):
        doc = recorded_doc()
        bench_to_json.merge_run(
            doc, run("partial", NEW_CONTEXT, bm_a=entry(1.0)), filtered=True)
        bench_to_json.merge_run(
            doc, run("again", NEW_CONTEXT, bm_a=entry(2.0)), filtered=False)
        self.assertEqual(doc["current"],
                         run("again", NEW_CONTEXT, bm_a=entry(2.0)))
        self.assertEqual(doc["baseline"]["label"], "base")
        self.assertEqual(doc["speedup_vs_baseline"], {"bm_a": 2.0})

    def test_steal_fraction(self):
        self.assertEqual(bench_to_json.steal_fraction((10, 1000), (30, 1400)),
                         0.05)
        self.assertIsNone(bench_to_json.steal_fraction(None, (30, 1400)))
        self.assertIsNone(bench_to_json.steal_fraction((10, 1000), (10, 1000)))


if __name__ == "__main__":
    unittest.main()
