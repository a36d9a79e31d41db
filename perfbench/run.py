#!/usr/bin/env python3
"""Study benchmark: regenerate the paper's tidy datasets and time them.

    python3 perfbench/run.py --workload null_sweep --seed 1 --seconds 20 --trace 0

Builds the driver (perfbench/perfbench.cc) and libpca from this source
tree into .bench_build/perfbench on first use, runs one workload, and
checks its tables. With --trace 0 it reports the end-to-end metrics
(wall_rel, cpu_rel, setup_s, peak_rss_mb, and wall_s, cpu_s and
run_fail_frac as lines); with --trace 1 it runs the traced serial
replay and reports the per-layer metrics. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. A wrong table exits with status 1. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench"
REFERENCE_DIR = ROOT / "results"
FINGERPRINT = BENCH_DIR / "fingerprint.json"

# Workload -> (default seed, reference tables). The default seeds are
# the ones that produced results/*.csv.
WORKLOADS = {
    "null_sweep": (1, ["null_errors.csv"]),
    "duration_sweep": (2, ["duration_uk.csv", "duration_user.csv"]),
    "cycle_sweep": (3, ["cycles.csv"]),
}

MAX_THREADS = 2  # below this host's core count; see README.md
SETUP_SPAWNS = 10  # set-up-only processes on each side of the timed one
TAIL_MIN_BEYOND = 10  # samples a reported tail percentile must leave above it
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0)

# wall_rel and cpu_rel are the study's wall and CPU time in multiples
# of a calibration kernel timed around each repetition: the raw
# seconds drift with co-tenant load on a shared host (see README.md).
END_TO_END = {
    "wall_rel": "x",
    "cpu_rel": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "harness.session_build_s": "s",
    "harness.session_builds": "count",
    "harness.machine_boot_s": "s",
    "harness.reboot_s": "s",
    "harness.session_run_s": "s",
    "harness.runs": "count",
    "harness.build_share": "ratio",
    "harness.cache_hit_rate": "ratio",
    "harness.point_s_p50": "s",
    "harness.point_s_tail": "s",
    "harness.point_tail_pct": "%",
    "isa.link_decode_s": "s",
    "isa.assemble_s": "s",
    "cpu.execute_s": "s",
    "cpu.sim_instr": "count",
    "cpu.sim_cycles": "count",
    "cpu.ff_iters": "count",
    "cpu.ff_fold_frac": "ratio",
    "cpu.ns_per_interp_instr": "ns",
    "kernel.sim_kernel_instr": "count",
    "kernel.interrupts": "count",
    "core.study_overhead_s": "s",
    "core.csv_write_s": "s",
    "support.parallel_eff": "ratio",
    "trace.overhead_frac": "ratio",
}

# Exact simulated counts: a speed-only change must leave them identical.
FINGERPRINT_KEYS = (
    "cpu.sim_instr",
    "cpu.sim_cycles",
    "kernel.sim_kernel_instr",
    "kernel.interrupts",
)

# Expected layer separation, printed (not enforced) by the traced run:
# workload -> [(metric, comparison, threshold)].
SEPARATION = {
    "null_sweep": [("harness.build_share", ">=", 0.7), ("cpu.ff_iters", "==", 0)],
    "duration_sweep": [("harness.build_share", "<=", 0.15), ("cpu.ff_fold_frac", "<", 1)],
    "cycle_sweep": [("harness.build_share", "<=", 0.15), ("cpu.ff_fold_frac", "<", 1)],
}


def fail(msg):
    print(f"perfbench: error: {msg}", file=sys.stderr)
    sys.exit(1)


def monotonic():
    """The CLOCK_MONOTONIC reading the driver's set-up stamp uses."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --- metric arithmetic -------------------------------------------------


def remainder(total, *parts):
    """total - sum(parts), floored at 0: a remainder of noisy timings."""
    return max(0.0, total - sum(parts))


def ratio(num, den):
    return num / den if den else 0.0


def relative(times, cals):
    """Median over repetitions of time / calibration, where cals[k]
    and cals[k + 1] were timed just before and after times[k]."""
    return statistics.median(
        t / ((cals[k] + cals[k + 1]) / 2) for k, t in enumerate(times))


def nearest_rank(sorted_xs, pct):
    """1-based nearest rank of percentile pct in n samples."""
    return max(1, math.ceil(pct / 100.0 * len(sorted_xs)))


def tail_percentile(xs, min_beyond=TAIL_MIN_BEYOND):
    """(pct, value) of the highest candidate percentile that leaves at
    least min_beyond samples above it; the median if none does."""
    s = sorted(xs)
    for pct in TAIL_CANDIDATES:
        rank = nearest_rank(s, pct)
        if len(s) - rank >= min_beyond:
            return pct, s[rank - 1]
    return 50.0, statistics.median(s)


def table_matches(out_path, ref_path, keys_only):
    """Byte-identical, or with keys_only every row's key columns equal
    (the value is the last column)."""
    out, ref = Path(out_path), Path(ref_path)
    if not out.is_file() or not ref.is_file():
        return False
    if not keys_only:
        return out.read_bytes() == ref.read_bytes()
    a = out.read_text().splitlines()
    b = ref.read_text().splitlines()
    return len(a) == len(b) and all(
        x.rsplit(",", 1)[0] == y.rsplit(",", 1)[0] for x, y in zip(a, b))


def fingerprint_mismatches(metrics, recorded):
    """Fingerprint counts in metrics that differ from recorded."""
    return [k for k in FINGERPRINT_KEYS if metrics.get(k) != recorded.get(k)]


def layer_metrics(raw):
    """Per-layer metrics from the driver's raw traced-replay output."""
    build, run = raw["session_build_s"], raw["session_run_s"]
    execute = remainder(run, raw["reboot_s"])
    interp_instr = raw["sim_instr"] - 3 * raw["ff_iters"]
    tail_pct, tail = tail_percentile(raw["point_s"])
    return {
        "harness.session_build_s": build,
        "harness.session_builds": raw["session_builds"],
        "harness.machine_boot_s": raw["machine_boot_s"],
        "harness.reboot_s": raw["reboot_s"],
        "harness.session_run_s": run,
        "harness.runs": raw["runs"],
        "harness.build_share": ratio(build, build + run),
        "harness.cache_hit_rate": ratio(
            raw["cache_hits"], raw["cache_hits"] + raw["cache_misses"]),
        "harness.point_s_p50": statistics.median(raw["point_s"]),
        "harness.point_s_tail": tail,
        "harness.point_tail_pct": tail_pct,
        "isa.link_decode_s": raw["link_decode_s"],
        "isa.assemble_s": remainder(
            build, raw["machine_boot_s"], raw["link_decode_s"]),
        "cpu.execute_s": execute,
        "cpu.sim_instr": raw["sim_instr"],
        "cpu.sim_cycles": raw["sim_cycles"],
        "cpu.ff_iters": raw["ff_iters"],
        "cpu.ff_fold_frac": ratio(raw["ff_iters"], raw["loop_iters"]),
        "cpu.ns_per_interp_instr": ratio(execute * 1e9, interp_instr),
        "kernel.sim_kernel_instr": raw["sim_kernel_instr"],
        "kernel.interrupts": raw["interrupts"],
        "core.study_overhead_s": remainder(raw["serial_wall_s"], build, run),
        "core.csv_write_s": raw["csv_write_s"],
        "support.parallel_eff": ratio(
            raw["parallel_cpu_s"], raw["threads"] * raw["parallel_wall_s"]),
        "trace.overhead_frac": ratio(
            raw["replay_on_s"] - raw["replay_off_s"], raw["replay_off_s"]),
    }


def fmt(value, unit):
    return f"{int(value)}" if unit == "count" else f"{value:.6g}"


def separation_report(workload, metrics):
    ops = {">=": lambda a, b: a >= b, "<=": lambda a, b: a <= b,
           "<": lambda a, b: a < b, "==": lambda a, b: a == b}
    for name, op, bound in SEPARATION[workload]:
        ok = ops[op](metrics[name], bound)
        print(f"expect {workload}: {name} {op} {bound}: "
              f"{metrics[name]:.6g} {'ok' if ok else 'NOT MET'}")


# --- build and run the driver -------------------------------------------


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"libpca sources not found under {ROOT}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def thread_count():
    return min(MAX_THREADS, len(os.sched_getaffinity(0)))


def driver_env(threads):
    """The caller's environment minus every PCA_* switch, so nothing
    but the thread count shapes the run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PCA_")}
    env["PCA_THREADS"] = str(threads)
    return env


def run_driver(mode, args, env, timeout):
    """Run the driver; returns (raw result, set-up seconds)."""
    t0 = monotonic()
    proc = subprocess.run([str(DRIVER), mode] + args, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver {mode} exited with status {proc.returncode}")
    raw = json.loads(lines[-1])
    return raw, raw["study_start"] - t0


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                           "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def print_stamp(raw):
    stamp = {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_threads": raw["hardware_threads"],
        "threads": raw["threads"],
        "build_type": raw["build_type"],
        "optimized": bool(raw["optimized"]),
        "compiler": raw["compiler"],
        "commit": commit(),
    }
    print("host: " + json.dumps(stamp))
    if not stamp["optimized"]:
        print("WARNING: non-optimized build; timings are not comparable")


def check_tables(workload, seed, out_dir):
    """Compare the written tables with results/*.csv: byte for byte on
    the default seed, key columns on any other. Returns the names of
    the tables that differ."""
    default_seed, files = WORKLOADS[workload]
    keys_only = seed != default_seed
    return [f for f in files if not table_matches(
        out_dir / f, REFERENCE_DIR / f, keys_only)]


def result(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def run_e2e(workload, seed, seconds, env, out_dir):
    common = ["--workload", workload, "--seed", str(seed),
              "--out", str(out_dir)]
    def setups():
        return [run_driver("setup", common, env, 60)[1]
                for _ in range(SETUP_SPAWNS)]

    # Sampling set-up on both sides spreads it over the run's window.
    setup = setups()
    raw, _ = run_driver("e2e", common + ["--seconds", str(seconds)],
                        env, seconds + 120)
    setup += setups()
    print_stamp(raw)

    bad_tables = check_tables(workload, seed, out_dir)
    attempted = raw["rows"]
    failed = raw["degraded_rows"] + raw["unstable_rows"]
    if bad_tables or raw["replay_mismatches"]:
        failed = attempted
    metrics = {
        "wall_rel": relative(raw["wall_s"], raw["cal_s"]),
        "cpu_rel": relative(raw["cpu_s"], raw["cal_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    reps = len(raw["wall_s"])
    print(f"workload {workload}: seed {seed}, {reps} repetitions, "
          f"medians of per-repetition values")
    print(f"  wall_s = {statistics.median(raw['wall_s']):.6g} s "
          f"(range {min(raw['wall_s']):.6g} .. {max(raw['wall_s']):.6g})")
    print(f"  cpu_s = {statistics.median(raw['cpu_s']):.6g} s")
    print(f"  calibration = {statistics.median(raw['cal_s']):.6g} s")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {fmt(metrics[name], unit)} {unit}")
    print(f"  run_fail_frac = {ratio(failed, attempted):.6g} "
          f"({failed}/{attempted} rows)")
    for f in bad_tables:
        print(f"MISMATCH: {f} differs from results/{f}")
    if raw["replay_mismatches"]:
        print(f"MISMATCH: {raw['replay_mismatches']} rows differ from a "
              f"serial replay")
    correct = failed == 0
    return result(correct, attempted, failed, metrics, END_TO_END)


def run_trace(workload, seed, env, out_dir, record):
    common = ["--workload", workload, "--seed", str(seed),
              "--out", str(out_dir)]
    raw, _ = run_driver("trace", common, env, 170)
    print_stamp(raw)
    metrics = layer_metrics(raw)

    bad_tables = check_tables(workload, seed, out_dir)
    fp_bad = []
    recorded = json.loads(FINGERPRINT.read_text()) \
        if FINGERPRINT.is_file() else {}
    if record:
        recorded[workload] = {"seed": seed, **{k: metrics[k]
                                               for k in FINGERPRINT_KEYS}}
        FINGERPRINT.write_text(json.dumps(recorded, indent=2) + "\n")
    elif recorded.get(workload, {}).get("seed") == seed:
        fp_bad = fingerprint_mismatches(metrics, recorded[workload])

    attempted = raw["rows"]
    failed = raw["degraded_rows"] + raw["unstable_rows"]
    if bad_tables or raw["replay_mismatches"] or fp_bad:
        failed = attempted
    print(f"workload {workload}: seed {seed}, traced serial replay of "
          f"{int(raw['session_builds'])} points")
    for name, unit in PER_LAYER.items():
        print(f"  {name} = {fmt(metrics[name], unit)} {unit}")
    separation_report(workload, metrics)
    for f in bad_tables:
        print(f"MISMATCH: {f} differs from results/{f}")
    if raw["replay_mismatches"]:
        print(f"MISMATCH: the serial replay differs from the study in "
              f"{raw['replay_mismatches']} rows")
    for k in fp_bad:
        print(f"MISMATCH: {k} = {metrics[k]}, fingerprint "
              f"{recorded[workload][k]}")
    return result(failed == 0, attempted, failed, metrics, PER_LAYER)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="workload seed "
                    "(default: the one behind results/*.csv)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprint", action="store_true",
                    help="with --trace 1: store the simulated counts in "
                    "perfbench/fingerprint.json instead of checking them")
    args = ap.parse_args()
    seed = WORKLOADS[args.workload][0] if args.seed is None else args.seed
    if seed < 0:
        fail("--seed must be non-negative")

    build()
    env = driver_env(thread_count())
    out_dir = BUILD_DIR / "out" / args.workload
    if out_dir.exists():
        shutil.rmtree(out_dir)
    if args.trace:
        return run_trace(args.workload, seed, env, out_dir,
                         args.record_fingerprint)
    return run_e2e(args.workload, seed, args.seconds, env, out_dir)


if __name__ == "__main__":
    sys.exit(main())
