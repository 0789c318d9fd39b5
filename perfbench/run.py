#!/usr/bin/env python3
"""HeMem simulator benchmark: one command, three paper workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds perfbench_sim and
perfbench_calibrate (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR/perfbench or .bench_build/perfbench), then:

  1. runs an untimed data-integrity pass: a shortened thrash-nomad run with
     GupsConfig::verify, which must read back every written word and leave
     the virtual-time fingerprint of the same run without verify unchanged;
  2. --trace 0: repeats the workload, one process per run, for --seconds
     seconds (at least once) and reports the end-to-end metrics as medians
     over the runs, with host times normalized to a reference host speed
     measured on both sides of each run (see CAL_REFERENCE_S, Bracketed);
     --trace 1: runs the workload once untraced and once through the
     AccessTracer decorator and reports the per-layer metrics; for
     gups-hotset it also runs the same workload once on two host workers
     (gups-hotset-w2), which must simulate exactly the same thing, and
     reports the parallel engine's cost as the sim.w2.* metrics;
  3. checks every output (see "Output checks" in README.md) and prints, as the last
     line of stdout, {"correct", "attempted", "failed", "metrics"}.

A run whose checks fail exits 1. A checkout without the simulator sources
exits 2 and a failed build exits 3, both without printing a result. Each
invocation writes its full record (host facts, every metric with its base,
every check, the raw per-run outputs) and the traced run's spans under
<build dir>/results/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("gups-hotset", "thrash-nomad", "kvs-700")
# gups-hotset on two host workers: run once in gups-hotset's traced
# invocation, not timed on its own (its host time spreads too far on a
# shared host to hold an end-to-end bound; see README.md).
W2_WORKLOAD = "gups-hotset-w2"

# Extra set-ups per process, so setup_s is a median over many samples.
EXTRA_SETUPS = 15
# Host-speed calibration (calibrate.cc): CAL_SAMPLES kernel timings, of which
# the fastest counts, before the first measured run and after every one
# (see Bracketed); host times are scaled by CAL_REFERENCE_S / calibration.
# CAL_REFERENCE_S is the kernel's time on a quiet 4-core x86_64 Xeon VM, so
# normalized times read as that host's seconds. Never change it: normalized
# times of different commits are comparable only under the same reference.
CAL_SAMPLES = 5
CAL_REFERENCE_S = 0.07
# The data-integrity pass: thrash-nomad cut at 160 ms of virtual time, which
# covers demand faults, promotions, demotions and aborted transactions.
INTEGRITY_END_MS = 160
SIM_TIMEOUT_S = 60

# (name, unit, better). The order is the print order; BENCHMARK.json lists
# the same metrics (test_run.py checks that the two agree).
END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("host_maccess_per_s", "M/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("model_mops", "Mops", "higher"),
)

PER_LAYER = (
    ("sim.virtual_ms", "ms", "higher"),
    ("sim.epoch_asks", "count", "lower"),
    ("sim.epochs", "count", "higher"),
    ("sim.epochs_rejected", "count", "lower"),
    ("sim.epoch_grant_rate", "ratio", "higher"),
    ("sim.epoch_virtual_share", "ratio", "higher"),
    ("sim.barrier_s", "s", "lower"),
    ("sim.worker_busy_s", "s", "lower"),
    ("sim.worker_stall_s", "s", "lower"),
    ("sim.w2.run_s", "s", "lower"),
    ("sim.w2.slowdown", "ratio", "lower"),
    ("sim.w2.epoch_asks", "count", "lower"),
    ("sim.w2.epochs", "count", "higher"),
    ("sim.w2.epochs_rejected", "count", "lower"),
    ("sim.w2.epoch_grant_rate", "ratio", "higher"),
    ("sim.w2.epoch_virtual_share", "ratio", "higher"),
    ("sim.w2.barrier_s", "s", "lower"),
    ("sim.w2.worker_busy_s", "s", "lower"),
    ("sim.w2.worker_stall_s", "s", "lower"),
    ("tier.accesses", "count", "lower"),
    ("tier.access_s", "s", "lower"),
    ("tier.ns_per_access", "ns", "lower"),
    ("tier.access_p50_ns", "ns", "lower"),
    ("tier.access_p999_ns", "ns", "lower"),
    ("tier.other_s", "s", "lower"),
    ("tier.missing_faults", "count", "lower"),
    ("tier.wp_faults", "count", "lower"),
    ("tier.wp_wait_ms", "ms", "lower"),
    ("mem.accesses", "count", "lower"),
    ("mem.dram.accesses", "count", "higher"),
    ("mem.nvm.accesses", "count", "lower"),
    ("mem.nvm_access_share", "ratio", "lower"),
    ("mem.dram.queue_delay_ms", "ms", "lower"),
    ("mem.nvm.queue_delay_ms", "ms", "lower"),
    ("mem.nvm.media_mb_written", "MB", "lower"),
    ("mem.dma.batches", "count", "lower"),
    ("mem.dma.mb_copied", "MB", "lower"),
    ("vm.tlb.shootdowns", "count", "lower"),
    ("vm.tlb.victim_interrupts", "count", "lower"),
    ("pebs.accesses_counted", "count", "lower"),
    ("pebs.samples_produced", "count", "lower"),
    ("pebs.samples_drained", "count", "higher"),
    ("pebs.drop_rate", "ratio", "lower"),
    ("core.policy_passes", "count", "lower"),
    ("core.pages_promoted", "count", "lower"),
    ("core.pages_demoted", "count", "lower"),
    ("core.mb_migrated", "MB", "lower"),
    ("core.promotion_stalls", "count", "lower"),
    ("core.txn_starts", "count", "lower"),
    ("core.txn_abort_rate", "ratio", "lower"),
    ("core.shadow_flip_share", "ratio", "higher"),
    ("apps.gups.updates", "count", "higher"),
    ("apps.kvs.requests", "count", "higher"),
    ("apps.kvs.gets", "count", "higher"),
    ("apps.kvs.chain_blocks_per_get", "ratio", "lower"),
    ("apps.kvs.segments_cleaned", "count", "lower"),
    ("apps.kvs.items_relocated", "count", "lower"),
    ("model_gups", "GUPS", "higher"),
    ("model_kvs_mops", "Mops", "higher"),
    ("model_kvs_p50_us", "us", "lower"),
    ("model_kvs_p999_us", "us", "lower"),
    ("model_kvs_latency_samples", "count", "higher"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.setup_machine_s", "s", "lower"),
    ("trace.setup_manager_s", "s", "lower"),
    ("trace.setup_app_s", "s", "lower"),
    ("host.calibration_s", "s", "lower"),
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---- Derivations -----------------------------------------------------------


def ratio(numerator, base):
    """A ratio and its base; a zero base gives 0, never NaN."""
    return (numerator / base if base else 0.0), base


def fingerprint_diff(a, b, path="fingerprint"):
    """Every leaf where two fingerprints differ, as 'path: a != b'."""
    if isinstance(a, dict) and isinstance(b, dict):
        diffs = []
        for key in sorted(set(a) | set(b)):
            diffs += fingerprint_diff(a.get(key), b.get(key), f"{path}.{key}")
        return diffs
    return [] if a == b else [f"{path}: {a} != {b}"]


def model_mops(run):
    """Simulated application throughput: GUPS updates or KVS requests, in
    millions per simulated second."""
    model = run["model"]
    return model["gups"] * 1e3 if "gups" in model else model["kvs_mops"]


def device_accesses(run):
    fp = run["fingerprint"]
    return sum(fp[d]["loads"] + fp[d]["stores"] for d in ("dram", "nvm"))


def speed_scale(run):
    """Factor that converts this run's host times to the reference host
    speed: the calibration kernel's reference time over its time measured
    around the run."""
    return CAL_REFERENCE_S / run["calibration_s"]


def end_to_end_metrics(runs):
    """The end-to-end metrics: medians over the timed runs, host times
    normalized by each run's own calibration. Bases are sample counts."""
    setups = [s * speed_scale(r) for r in runs for s in r["setup_s"]]
    return {
        "run_s": (statistics.median(r["run_s"] * speed_scale(r) for r in runs), len(runs)),
        "setup_s": (statistics.median(setups), len(setups)),
        "host_maccess_per_s": (
            statistics.median(device_accesses(r) / (r["run_s"] * speed_scale(r)) / 1e6
                              for r in runs),
            len(runs)),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024.0 for r in runs),
                        len(runs)),
        "model_mops": (model_mops(runs[0]), None),
    }


EPOCH_COUNTERS = ("sim.virtual_ns", "sim.epochs", "sim.epochs_rejected",
                  "sim.epoch_virtual_ns", "sim.barrier_ns", "sim.worker_busy_ns",
                  "sim.worker_stall_ns")


def epoch_metrics(prefix, c):
    """The engine's epoch gate, worker pool and barriers, from one run's
    counters, under names starting with prefix."""
    asks = c["sim.epochs"] + c["sim.epochs_rejected"]
    return {
        f"{prefix}epoch_asks": (asks, None),
        f"{prefix}epochs": (c["sim.epochs"], None),
        f"{prefix}epochs_rejected": (c["sim.epochs_rejected"], None),
        f"{prefix}epoch_grant_rate": ratio(c["sim.epochs"], asks),
        f"{prefix}epoch_virtual_share": ratio(c["sim.epoch_virtual_ns"] / 1e6,
                                              c["sim.virtual_ns"] / 1e6),
        f"{prefix}barrier_s": (c["sim.barrier_ns"] / 1e9, None),
        f"{prefix}worker_busy_s": (c["sim.worker_busy_ns"] / 1e9, None),
        f"{prefix}worker_stall_s": (c["sim.worker_stall_ns"] / 1e9, None),
    }


def w2_metrics(plain, w2):
    """The parallel engine's cost: the same workload on two host workers
    against the untraced one-worker run. Zeros when there is no w2 run."""
    run_s = w2["run_s"] if w2 else 0.0
    counters = w2["counters"] if w2 else dict.fromkeys(EPOCH_COUNTERS, 0)
    return {
        "sim.w2.run_s": (run_s, None),
        "sim.w2.slowdown": ratio(run_s, plain["run_s"]),
        **epoch_metrics("sim.w2.", counters),
    }


def per_layer_metrics(plain, traced, w2=None):
    """Per-layer metrics: counters from the untraced run, host-time split
    from the traced run, the parallel engine's cost from the w2 run (if
    any). Ratios carry their base."""
    c = plain["counters"]
    g = c.get
    model = plain["model"]
    dram = c["mem.dram.accesses"]
    nvm = c["mem.nvm.accesses"]
    produced = c["pebs.samples_written"] + c["pebs.samples_dropped"]
    t = traced["trace"]
    access_s = t["access_ns"] / 1e9
    return {
        "sim.virtual_ms": (c["sim.virtual_ns"] / 1e6, None),
        **epoch_metrics("sim.", c),
        **w2_metrics(plain, w2),
        "tier.accesses": (t["accesses"], None),
        "tier.access_s": (access_s, None),
        "tier.ns_per_access": ratio(t["access_ns"], t["accesses"]),
        "tier.access_p50_ns": (t["access_p50_ns"], t["accesses"]),
        "tier.access_p999_ns": (t["access_p999_ns"], t["accesses"]),
        "tier.other_s": (traced["run_s"] - access_s, traced["run_s"]),
        "tier.missing_faults": (c["tier.missing_faults"], None),
        "tier.wp_faults": (c["tier.wp_faults"], None),
        "tier.wp_wait_ms": (c["tier.wp_wait_ns"] / 1e6, None),
        "mem.accesses": (dram + nvm, None),
        "mem.dram.accesses": (dram, None),
        "mem.nvm.accesses": (nvm, None),
        "mem.nvm_access_share": ratio(nvm, dram + nvm),
        "mem.dram.queue_delay_ms": (c["mem.dram.queue_delay_ns"] / 1e6, dram),
        "mem.nvm.queue_delay_ms": (c["mem.nvm.queue_delay_ns"] / 1e6, nvm),
        "mem.nvm.media_mb_written": (c["mem.nvm.media_bytes_written"] / 2**20, None),
        "mem.dma.batches": (c["mem.dma.batches"], None),
        "mem.dma.mb_copied": (c["mem.dma.bytes_copied"] / 2**20, None),
        "vm.tlb.shootdowns": (c["vm.tlb.shootdowns"], None),
        "vm.tlb.victim_interrupts": (c["vm.tlb.victim_interrupts"], None),
        "pebs.accesses_counted": (c["pebs.accesses_counted"], None),
        "pebs.samples_produced": (produced, None),
        "pebs.samples_drained": (c["pebs.samples_drained"], None),
        "pebs.drop_rate": ratio(c["pebs.samples_dropped"], produced),
        "core.policy_passes": (c["core.policy_passes"], None),
        "core.pages_promoted": (c["core.pages_promoted"], None),
        "core.pages_demoted": (c["core.pages_demoted"], None),
        "core.mb_migrated": (c["core.bytes_migrated"] / 2**20, None),
        "core.promotion_stalls": (c["core.promotion_stalls"], None),
        "core.txn_starts": (c["core.txn_starts"], None),
        "core.txn_abort_rate": ratio(c["core.txn_aborts"], c["core.txn_starts"]),
        "core.shadow_flip_share": ratio(c["core.shadow_demotions"], c["core.pages_demoted"]),
        "apps.gups.updates": (g("apps.gups.updates", 0), None),
        "apps.kvs.requests": (g("apps.kvs.requests", 0), None),
        "apps.kvs.gets": (g("apps.kvs.gets", 0), None),
        "apps.kvs.chain_blocks_per_get": ratio(g("apps.kvs.chain_blocks_walked", 0),
                                               g("apps.kvs.gets", 0)),
        "apps.kvs.segments_cleaned": (g("apps.kvs.segments_cleaned", 0), None),
        "apps.kvs.items_relocated": (g("apps.kvs.items_relocated", 0), None),
        "model_gups": (model.get("gups", 0.0), None),
        "model_kvs_mops": (model.get("kvs_mops", 0.0), None),
        "model_kvs_p50_us": (model.get("kvs_p50_us", 0), model.get("kvs_latency_samples", 0)),
        "model_kvs_p999_us": (model.get("kvs_p999_us", 0), model.get("kvs_latency_samples", 0)),
        "model_kvs_latency_samples": (model.get("kvs_latency_samples", 0), None),
        "trace.untraced_run_s": (plain["run_s"], None),
        "trace.run_s": (traced["run_s"], None),
        "trace.overhead_s": (traced["run_s"] - plain["run_s"], plain["run_s"]),
        "trace.overhead_share": ratio(traced["run_s"] - plain["run_s"], plain["run_s"]),
        "trace.setup_machine_s": (t["setup_machine_ns"] / 1e9, None),
        "trace.setup_manager_s": (t["setup_manager_ns"] / 1e9, None),
        "trace.setup_app_s": (t["setup_app_ns"] / 1e9, None),
        "host.calibration_s": (plain["calibration_s"], None),
    }


# ---- Checks ----------------------------------------------------------------


class Checks:
    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    def add_run(self, label, run):
        """A simulator process's own checks (or its failure to report)."""
        if "error" in run:
            self.add(f"{label}.completed", False, run["error"])
            return
        for c in run["checks"]:
            self.add(f"{label}.{c['name']}", c["ok"], c["detail"])

    def same_fingerprint(self, name, a, b):
        if "error" in a or "error" in b:
            self.add(name, False, "missing run")
            return
        diffs = fingerprint_diff(a["fingerprint"], b["fingerprint"])
        self.add(name, not diffs, "; ".join(diffs[:4]))

    @property
    def failed(self):
        return sum(1 for c in self.items if not c["ok"])


# ---- Build and run ---------------------------------------------------------


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds both benchmark binaries; True on success."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench_sim",
           "perfbench_calibrate", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def calibrate(build_dir):
    """The fastest of CAL_SAMPLES calibration-kernel timings, or None."""
    try:
        proc = subprocess.run([str(build_dir / "perfbench_calibrate"), str(CAL_SAMPLES)],
                              capture_output=True, text=True, timeout=SIM_TIMEOUT_S)
        return min(json.loads(proc.stdout)["calibration_s"])
    except (OSError, subprocess.TimeoutExpired, ValueError, KeyError):
        return None


class Bracketed:
    """Runs simulator processes between calibrations: one before the first
    run and one after every run. Each run is normalized by the geometric
    mean of the two calibrations around it, so the host speed it sees is
    sampled on both sides of the run, not just before it."""

    def __init__(self, build_dir):
        self.build_dir = build_dir
        self.last = calibrate(build_dir)

    def run(self, workload, seed, **kwargs):
        before = self.last
        run = run_sim(self.build_dir / "perfbench_sim", workload, seed, **kwargs)
        self.last = after = calibrate(self.build_dir)
        run["calibration_bracket_s"] = [before, after]
        if before is None or after is None:
            run.setdefault("error", "calibration kernel failed")
            run["calibration_s"] = None
        else:
            run["calibration_s"] = math.sqrt(before * after)
        return run


def run_sim(binary, workload, seed, mode="plain", setups=0, end_ms=0, spans_out=None):
    """One simulator process; its parsed JSON record, or {"error": ...}."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--setups", str(setups)]
    if end_ms:
        cmd += ["--end-ms", str(end_ms)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SIM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{workload} {mode}: timed out after {SIM_TIMEOUT_S} s"}
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{workload} {mode}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return {"error": f"{workload} {mode}: unparsable output ({e})"}
    record["wall_s"] = wall
    return record


def source_digest(root):
    """SHA-256 over the simulator and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for sub in ("src", "bench", "perfbench"):
        for path in sorted((root / sub).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_facts(root, args, build_info):
    return {
        "host_cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "build_type": build_info.get("type"),
        "ndebug": build_info.get("ndebug"),
        "optimized": build_info.get("optimized"),
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def integrity_pass(binary, seed, checks):
    """Untimed: thrash-nomad with GupsConfig::verify must read back every
    word, and verify mode must not move the virtual-time fingerprint."""
    plain = run_sim(binary, "thrash-nomad", seed, end_ms=INTEGRITY_END_MS)
    verify = run_sim(binary, "thrash-nomad", seed, mode="verify", end_ms=INTEGRITY_END_MS)
    checks.add_run("integrity.plain", plain)
    checks.add_run("integrity.verify", verify)
    checks.same_fingerprint("integrity.verify_leaves_fingerprint", plain, verify)
    if "error" not in plain and "error" not in verify:
        a, b = plain["model"]["gups"], verify["model"]["gups"]
        checks.add("integrity.verify_leaves_model_gups", a == b,
                   f"plain {a!r} verify {b!r} difference {b - a!r}")
    return {"plain": plain, "verify": verify}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file() or \
            not (root / "bench" / "bench_common.h").is_file():
        log(f"perfbench: no simulator sources (src/, bench/) under {root}")
        return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not build(root, build_dir):
        log("perfbench: build failed")
        return 3
    binary = build_dir / "perfbench_sim"
    results_dir = build_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    checks = Checks()
    record = {"integrity": integrity_pass(binary, args.seed, checks)}

    timed = Bracketed(build_dir)
    w2 = None
    if args.trace:
        spans_path = results_dir / f"{tag}-spans.json"
        plain = timed.run(args.workload, args.seed)
        traced = timed.run(args.workload, args.seed, mode="traced", spans_out=spans_path)
        runs = [plain]
        checks.add_run("untraced", plain)
        checks.add_run("traced", traced)
        checks.same_fingerprint("traced.fingerprint_matches_untraced", plain, traced)
        if "error" not in plain and "error" not in traced:
            a, b = plain["counters"]["sim.epochs"], traced["counters"]["sim.epochs"]
            checks.add("traced.epochs_match_untraced", a == b, f"untraced {a} traced {b}")
        record["traced"] = traced
        if args.workload == "gups-hotset":
            w2 = run_sim(binary, W2_WORKLOAD, args.seed)
            checks.add_run("w2", w2)
            checks.same_fingerprint("w2.fingerprint_matches_gups_hotset", plain, w2)
            if "error" not in plain and "error" not in w2:
                a, b = plain["model"]["gups"], w2["model"]["gups"]
                checks.add("w2.model_gups_matches_gups_hotset", a == b, f"w1 {a!r} w2 {b!r}")
            record["w2"] = w2
    else:
        # Runs until another run would end past --seconds (at least one).
        runs = []
        started = time.monotonic()
        while True:
            run_started = time.monotonic()
            run = timed.run(args.workload, args.seed, setups=EXTRA_SETUPS)
            checks.add_run(f"run{len(runs)}", run)
            runs.append(run)
            now = time.monotonic()
            if "error" in run or (now - started) + (now - run_started) > args.seconds:
                break
        for i, run in enumerate(runs[1:], start=1):
            checks.same_fingerprint(f"run{i}.fingerprint_matches_run0", runs[0], run)
    record["runs"] = runs

    ok_runs = [r for r in runs if "error" not in r]
    facts = host_facts(root, args, ok_runs[0]["build"] if ok_runs else {})
    record["host"] = facts
    if facts["optimized"] is False:
        log("perfbench: WARNING: unoptimized build; host times are not comparable")

    metrics = {}
    table = END_TO_END
    if args.trace and ok_runs and "error" not in record["traced"] and \
            (w2 is None or "error" not in w2):
        derived = per_layer_metrics(ok_runs[0], record["traced"], w2)
        table = PER_LAYER
    elif not args.trace and len(ok_runs) == len(runs):
        derived = end_to_end_metrics(runs)
    else:
        derived = {}
    units = {name: unit for name, unit, _ in table}
    for name, _, _ in table:
        if name in derived:
            value, base = derived[name]
            metrics[name] = {"value": value, "unit": units[name]}
    record["metrics"] = {name: {"value": v, "base": b} for name, (v, b) in derived.items()}
    record["checks"] = checks.items

    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runs)} measured run(s)")
    print("# host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, unit, _ in table:
        if name in derived:
            value, base = derived[name]
            suffix = f"  (base {base})" if base is not None else ""
            print(f"{name:<28} {value:>16.6g} {unit}{suffix}")
    if ok_runs:
        model = ", ".join(f"{k}={v:.6g}" for k, v in ok_runs[0]["model"].items())
        print(f"# model: {model}")
        print(f"# raw host times: run_s median {statistics.median(r['run_s'] for r in ok_runs):.6g} s, "
              f"calibration median {statistics.median(r['calibration_s'] for r in ok_runs):.6g} s "
              f"(reference {CAL_REFERENCE_S} s)")
    for c in checks.items:
        if not c["ok"]:
            print(f"# FAILED {c['name']}: {c['detail']}")
    attempted = len(checks.items)
    failed = checks.failed
    if len(metrics) != len(table):
        failed = max(failed, 1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
