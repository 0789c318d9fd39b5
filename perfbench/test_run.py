#!/usr/bin/env python3
"""Self-tests of the benchmark's own derivations.

    python3 perfbench/test_run.py

Needs no build: the tests feed run.py's derivations hand-made simulator
records.
"""

import copy
import json
import math
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def fake_record(run_s=2.0, setup_s=(0.003, 0.002), epochs=0, rejected=0):
    """A minimal perfbench_sim record of a serial GUPS run."""
    device = {"loads": 600, "stores": 400, "queue_delay_total_ns": 0}
    counters = {name: 0 for name in (
        "sim.virtual_ns", "sim.epoch_virtual_ns", "sim.barrier_ns",
        "sim.worker_busy_ns", "sim.worker_stall_ns", "tier.missing_faults",
        "tier.wp_faults", "tier.wp_wait_ns", "mem.dram.queue_delay_ns",
        "mem.nvm.queue_delay_ns", "mem.nvm.media_bytes_written", "mem.dma.batches",
        "mem.dma.bytes_copied", "vm.tlb.shootdowns", "vm.tlb.victim_interrupts",
        "pebs.accesses_counted", "pebs.samples_written", "pebs.samples_dropped",
        "pebs.samples_drained", "core.policy_passes", "core.pages_promoted",
        "core.pages_demoted", "core.bytes_migrated", "core.promotion_stalls",
        "core.txn_starts", "core.txn_aborts", "core.shadow_demotions")}
    counters.update({"sim.virtual_ns": 320_000_000, "sim.epochs": epochs,
                     "sim.epochs_rejected": rejected, "mem.dram.accesses": 1000,
                     "mem.nvm.accesses": 1000, "apps.gups.updates": 500})
    return {
        "run_s": run_s,
        "calibration_s": run.CAL_REFERENCE_S,
        "setup_s": list(setup_s),
        "peak_rss_kb": 10240,
        "fingerprint": {"end_ns": 320_000_000, "manager": {"wp_faults": 3},
                        "dram": dict(device), "nvm": dict(device)},
        "counters": counters,
        "model": {"gups": 0.16},
        "trace": {"accesses": 2000, "access_ns": 200_000, "access_p50_ns": 96,
                  "access_p999_ns": 384, "setup_machine_ns": 1000,
                  "setup_manager_ns": 2000, "setup_app_ns": 3000},
    }


class RatioTest(unittest.TestCase):
    def test_zero_base_reports_zero_with_its_base(self):
        value, base = run.ratio(0, 0)
        self.assertEqual(value, 0.0)
        self.assertEqual(base, 0)
        self.assertFalse(math.isnan(value))

    def test_epoch_grant_rate_at_one_worker(self):
        rec = fake_record()
        metrics = run.per_layer_metrics(rec, rec)
        self.assertEqual(metrics["sim.epoch_grant_rate"], (0.0, 0))
        self.assertEqual(metrics["core.txn_abort_rate"], (0.0, 0))
        self.assertEqual(metrics["apps.kvs.chain_blocks_per_get"], (0.0, 0))
        for name, (value, _) in metrics.items():
            self.assertFalse(math.isnan(value), name)

    def test_epoch_grant_rate_with_epochs(self):
        rec = fake_record(epochs=25, rejected=75)
        value, base = run.per_layer_metrics(rec, rec)["sim.epoch_grant_rate"]
        self.assertEqual((value, base), (0.25, 100))

    def test_w2_metrics_come_from_the_two_worker_run(self):
        plain, w2 = fake_record(run_s=2.0), fake_record(run_s=5.0, epochs=1, rejected=3)
        metrics = run.per_layer_metrics(plain, plain, w2)
        self.assertEqual(metrics["sim.w2.run_s"], (5.0, None))
        self.assertEqual(metrics["sim.w2.slowdown"], (2.5, 2.0))
        self.assertEqual(metrics["sim.w2.epoch_grant_rate"], (0.25, 4))
        self.assertEqual(metrics["sim.epoch_grant_rate"], (0.0, 0))

    def test_w2_metrics_are_zero_without_a_two_worker_run(self):
        metrics = run.per_layer_metrics(fake_record(), fake_record())
        for name, (value, _) in metrics.items():
            if name.startswith("sim.w2."):
                self.assertEqual(value, 0, name)


class FingerprintTest(unittest.TestCase):
    def test_identical_fingerprints_match(self):
        rec = fake_record()
        self.assertEqual(run.fingerprint_diff(rec["fingerprint"],
                                              copy.deepcopy(rec["fingerprint"])), [])

    def test_one_field_difference_is_caught(self):
        a = fake_record()["fingerprint"]
        b = copy.deepcopy(a)
        b["nvm"]["stores"] += 1
        self.assertEqual(run.fingerprint_diff(a, b),
                         ["fingerprint.nvm.stores: 400 != 401"])

    def test_missing_field_is_caught(self):
        a = fake_record()["fingerprint"]
        b = copy.deepcopy(a)
        del b["manager"]["wp_faults"]
        self.assertEqual(len(run.fingerprint_diff(a, b)), 1)

    def test_checks_count_a_mismatch_as_a_failure(self):
        a, b = fake_record(), fake_record()
        b["fingerprint"]["end_ns"] += 1
        checks = run.Checks()
        checks.same_fingerprint("x", a, b)
        checks.same_fingerprint("y", a, a)
        self.assertEqual(checks.failed, 1)
        self.assertEqual(len(checks.items), 2)


class EndToEndTest(unittest.TestCase):
    def test_medians_over_runs(self):
        runs = [fake_record(run_s=2.0, setup_s=(0.004, 0.003)),
                fake_record(run_s=1.5, setup_s=(0.005, 0.0025)),
                fake_record(run_s=1.8, setup_s=(0.002,))]
        m = run.end_to_end_metrics(runs)
        self.assertAlmostEqual(m["run_s"][0], 1.8)
        self.assertEqual(m["run_s"][1], 3)
        self.assertAlmostEqual(m["setup_s"][0], 0.003)
        self.assertEqual(m["setup_s"][1], 5)
        # 2,000 device accesses in 1.8 s.
        self.assertAlmostEqual(m["host_maccess_per_s"][0], 2000 / 1.8 / 1e6)
        self.assertEqual(m["model_mops"][0], 160.0)
        self.assertEqual(set(m), {name for name, _, _ in run.END_TO_END})

    def test_host_times_scale_to_the_reference_speed(self):
        # A run on a host half as fast: its calibration took twice the
        # reference, so its normalized times are halved.
        slow = fake_record(run_s=4.0, setup_s=(0.006,))
        slow["calibration_s"] = 2 * run.CAL_REFERENCE_S
        m = run.end_to_end_metrics([slow])
        self.assertAlmostEqual(m["run_s"][0], 2.0)
        self.assertAlmostEqual(m["setup_s"][0], 0.003)
        self.assertAlmostEqual(m["host_maccess_per_s"][0], 2000 / 2.0 / 1e6)

    def test_runs_are_normalized_by_the_calibrations_around_them(self):
        # Kernel times 0.07, 0.28, 0.07 around two runs: each run's
        # calibration is the geometric mean of its two neighbours, 0.14.
        calibrations = iter([0.07, 0.28, 0.07])
        saved = run.calibrate, run.run_sim
        run.calibrate = lambda build_dir: next(calibrations)
        run.run_sim = lambda binary, workload, seed, **kwargs: fake_record(run_s=4.0)
        try:
            timed = run.Bracketed(Path("."))
            first, second = timed.run("gups-hotset", 1), timed.run("gups-hotset", 1)
        finally:
            run.calibrate, run.run_sim = saved
        self.assertEqual(first["calibration_bracket_s"], [0.07, 0.28])
        self.assertEqual(second["calibration_bracket_s"], [0.28, 0.07])
        self.assertAlmostEqual(first["calibration_s"], 0.14)
        self.assertAlmostEqual(run.end_to_end_metrics([first, second])["run_s"][0], 2.0)

    def test_a_failed_calibration_fails_the_run(self):
        calibrations = iter([0.07, None])
        saved = run.calibrate, run.run_sim
        run.calibrate = lambda build_dir: next(calibrations)
        run.run_sim = lambda binary, workload, seed, **kwargs: fake_record()
        try:
            record = run.Bracketed(Path(".")).run("gups-hotset", 1)
        finally:
            run.calibrate, run.run_sim = saved
        self.assertIn("error", record)


class NamesTest(unittest.TestCase):
    def test_names_and_units_use_the_allowed_characters(self):
        for name, unit, better in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, run.NAME_RE, name)
            self.assertRegex(unit, run.UNIT_RE, name)
            self.assertIn(better, ("higher", "lower"), name)

    def test_names_are_unique(self):
        names = [name for name, _, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))

    def test_bad_names_are_rejected(self):
        for bad in ("", ".leading-dot", "has space", "µs", "x" * 65):
            self.assertNotRegex(bad, run.NAME_RE)

    def test_per_layer_derivation_covers_every_metric(self):
        rec = fake_record()
        self.assertEqual(set(run.per_layer_metrics(rec, rec)),
                         {name for name, _, _ in run.PER_LAYER})

    def test_benchmark_json_lists_the_same_metrics(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        self.assertIn("setup_s", [m["name"] for m in doc["end_to_end"]])


if __name__ == "__main__":
    unittest.main()
