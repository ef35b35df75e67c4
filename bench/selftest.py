"""Fast self-test of the benchmark harness at tiny sizes (m <= 3, one catalog row).

Run from the root of a checkout (takes a few seconds):

    python3 bench/selftest.py
"""

import copy
import json
import unittest

import run
import workloads as wl
from tracing import span_owners

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload: str, seed: int, trace: bool, ref: dict | None = None) -> dict:
    """One tiny run: the fewest rounds, one set-up probe."""
    return run.measure(workload, seed, 0, trace, size="tiny", ref=ref, probes=1)


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}


class HarnessTest(unittest.TestCase):
    def test_benchmark_json_names_the_workloads(self):
        self.assertEqual(tuple(w["name"] for w in BENCHMARK["workloads"]), wl.WORKLOADS)

    def test_end_to_end_metrics_emitted_with_units(self):
        want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny(workload, 1, trace=False)
                self.assertTrue(result["correct"], result["context"]["failures"])
                self.assertEqual(units(result), want)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_per_layer_metrics_emitted_with_units(self):
        want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny(workload, 1, trace=True)
                self.assertTrue(result["correct"], result["context"]["failures"])
                self.assertEqual(units(result), want)

    def test_wrapped_functions_restored_after_traced_run(self):
        lib = wl.import_library()
        before = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in span_owners(lib)]
        for workload in wl.WORKLOADS:
            tiny(workload, 1, trace=True)
        for owner, attr, original in before:
            self.assertIs(vars(owner)[attr], original, f"{owner.__name__}.{attr}")

    def test_counts_repeat_across_runs_and_seeds(self):
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                first, again, other = (tiny(workload, s, trace=True) for s in (1, 1, 2))
                if workload != "mck":  # the tiny mck workload is a single fixed row
                    self.assertNotEqual(first["context"]["tasks"], other["context"]["tasks"])
                self.assertEqual(counts(first), counts(again))
                self.assertEqual(counts(first), counts(other))

    def test_wrong_reference_counted_as_failure(self):
        ref = wl.load_reference()
        wrong = copy.deepcopy(ref)
        wrong["dims"][wl.dims_key(1, 3)]["vector"][3] += 1
        wrong["adjudicate"]["eps2"] = 1
        wrong["mck"]["mck_entries"] = 342
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny(workload, 1, trace=False, ref=wrong)
                self.assertFalse(result["correct"])
                # one wrong task per workload, in each of the MIN_ROUNDS rounds
                self.assertEqual(result["failed"], run.MIN_ROUNDS)
                self.assertGreater(result["context"]["fail_share"], 0)
                self.assertLess(result["metrics"]["verified_share"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
