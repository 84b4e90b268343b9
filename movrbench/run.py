#!/usr/bin/env python3
"""MoVR benchmark: one command, three workloads, end-to-end and per-layer.

    python3 movrbench/run.py --workload arena_dense|session_chaos|plan_room \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout. The first call configures and
builds movrbench/ (which compiles ../src) into $CARGO_TARGET_DIR/movrbench,
or .bench_build/movrbench when that variable is unset; later calls only
re-check the build.

--trace 0 times the workload with the untraced driver and prints the
end-to-end metrics. --trace 1 runs the untraced and the traced driver on
the same inputs and prints the per-layer metrics. Every run checks the
program's outputs. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it ("report: ...")
carries every metric of the workload, the run environment and the checks.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
benchmark could not build or run (no result is printed then).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("arena_dense", "session_chaos", "plan_room")
SESSION_WORKLOADS = ("arena_dense", "session_chaos")
# The default seed is the one to tune against; re-check every claim on the
# held-out seed too, which no change should have been tuned on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

LAYERS = (
    "arena.interference", "arena.lease", "arena.admission", "phy.link",
    "channel.oracle", "channel.solver", "core.gain_control",
    "core.link_manager", "net.transport", "sim", "log.recorder",
)
# Layers whose work is counted in their own unit (endpoint pairs, events,
# records) rather than in span calls.
COUNTED_ELSEWHERE = ("channel.oracle", "channel.solver", "sim", "log.recorder")


class BenchError(Exception):
    """The benchmark could not build or run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "movrbench"


def build():
    """Configures (once) and builds both drivers; returns their paths."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    out = build_dir()
    jobs = str(min(4, nproc()))

    def configure():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)

    def compile_all():
        subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)

    try:
        if not (out / "CMakeCache.txt").is_file():
            configure()
        compile_all()
    except subprocess.CalledProcessError:
        # A stale tree (moved checkout, changed generator): start over once.
        log("movrbench: rebuilding from a clean build directory")
        shutil.rmtree(out, ignore_errors=True)
        try:
            configure()
            compile_all()
        except subprocess.CalledProcessError as err:
            raise BenchError(f"build failed: {err}") from err
    return out / "movrbench", out / "movrbench_traced"


def run_driver(binary, workload, seed, seconds, threads, size, min_units):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--threads", str(threads),
           "--size", size, "--min-units", str(min_units)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{binary.name} timed out") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{binary.name} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["optimized"] or result["sanitized"]:
        raise BenchError("refusing to report from an unoptimized or "
                         "sanitized build")
    return result


def histogram_p50(result):
    """Pooled transport latency median (ms); +inf when the median frame
    never completed. Bin centres stand for completed frames, as
    bench_util.hpp's latency_samples does."""
    bin_ms = result["latency_bin_ms"]
    bins = result["latency_bins"]
    finite = sum(bins) + result["latency_overflow"]
    n = max(result["frames_emitted"], finite)
    if n == 0:
        return math.inf

    def value(k):  # k-th smallest sample
        for i, count in enumerate(bins):
            if k < count:
                return (i + 0.5) * bin_ms
            k -= count
        if k < result["latency_overflow"]:
            return bin_ms * len(bins)
        return math.inf

    pos = 0.5 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    a, b = value(lo), value(hi)
    if frac == 0.0 or a == b:
        return a
    return a * (1.0 - frac) + b * frac


def unit_totals(result):
    return [s + w for s, w in zip(result["setup_s"], result["work_s"])]


def ratio(num, den):
    return num / den if den else 0.0


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt",
                                                  ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(workload, result):
    """Every end-to-end metric of the workload, as (value, unit)."""
    # The fastest unit of the run: see "Which statistic" in README.md.
    work = min(result["work_s"])
    metrics = {
        "setup_s": (min(result["setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MiB"),
        "work_s_median": (statistics.median(result["work_s"]), "s"),
        "setup_s_median": (statistics.median(result["setup_s"]), "s"),
    }
    if workload in SESSION_WORKLOADS:
        metrics["unit_wall_s"] = (work / result["user_sim_s"], "s")
        metrics["user_sim_s_per_s"] = (result["user_sim_s"] / work,
                                       "user-s/s")
        metrics["glitch_frac"] = (
            ratio(result["glitched_frames"], result["frames"]), "frac")
        p50 = histogram_p50(result)
        metrics["frame_ms_p50"] = (p50 if math.isfinite(p50) else None, "ms")
    else:
        metrics["unit_wall_s"] = (work, "s")
        metrics["plan_s"] = (work, "s")
        metrics["outage_frac"] = (result["outage"], "frac")
    return metrics


def per_layer(base, traced):
    """Per-layer metrics of the traced run, per unit of work."""
    trace = traced["trace"]
    units = traced["units"]
    wall = trace["wall_s"]
    metrics = {}
    named_self = 0.0
    for name in LAYERS:
        layer = trace["layers"][name]
        if name not in COUNTED_ELSEWHERE:
            metrics[name + ".calls"] = (layer["calls"] / units, "count")
        metrics[name + ".self_s"] = (layer["self_s"] / units, "s")
        metrics[name + ".share"] = (ratio(layer["self_s"], wall), "frac")
        metrics[name + ".incl_share"] = (
            ratio(layer["inclusive_s"], wall), "frac")
        if name != "sim":
            named_self += layer["self_s"]
    metrics["sim.events"] = (traced["sim_events"], "count")
    metrics["log.records"] = (traced["log_records"], "count")
    metrics["log.bytes"] = (traced["log_bytes"], "bytes")
    metrics["log.verify_s"] = (statistics.median(traced["log_verify_s"]), "s")
    metrics["rf.field.calls"] = (trace["rf_field_calls"] / units, "count")
    metrics["arena.interference.link_evals_per_call"] = (
        ratio(trace["interference_link_evals"],
              trace["layers"]["arena.interference"]["calls"]), "evals/call")
    metrics["arena.lease.denial_frac"] = (
        ratio(trace["lease_denials"], trace["lease_acquires"]), "frac")
    metrics["arena.admission.evictions"] = (traced["admission_evictions"],
                                            "count")
    metrics["channel.oracle.hit_rate"] = (
        ratio(trace["oracle_pairs"] - trace["oracle_miss_pairs"],
              trace["oracle_pairs"]), "frac")
    metrics["channel.oracle.queries"] = (trace["oracle_pairs"] / units,
                                         "count")
    metrics["channel.solver.pairs"] = (trace["solver_pairs"] / units, "count")
    handovers = traced["handovers_ok"] + traced["handovers_failed"]
    metrics["core.link_manager.handover_success_frac"] = (
        ratio(traced["handovers_ok"], handovers), "frac")
    metrics["net.retx_frac"] = (
        ratio(traced["retransmits"], traced["packets_enqueued"]), "frac")
    metrics["net.fec.recovery_frac"] = (
        ratio(traced["packets_recovered"],
              traced["packets_recovered"] + traced["retransmits"]), "frac")
    base_unit = min(unit_totals(base))
    traced_unit = min(unit_totals(traced))
    metrics["trace.overhead_frac"] = (traced_unit / base_unit - 1.0, "frac")
    metrics["trace.named_frac"] = (ratio(named_self, wall), "frac")
    return metrics


def cross_check(workload, metrics):
    """Compares the trace with the profile quoted in ROADMAP.md."""
    if workload == "arena_dense":
        share = metrics["arena.interference.incl_share"][0]
        return {"claim": "arena.interference holds 70-77% of wall time "
                         "(interference ablation)",
                "value": share, "ok": 0.60 <= share <= 0.87}
    if workload == "plan_room":
        named = [n for n in LAYERS if n != "sim"]
        top = max(named, key=lambda n: metrics[n + ".self_s"][0])
        return {"claim": "core.gain_control is the largest named span",
                "value": top, "ok": top == "core.gain_control"}
    return None


def load_contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    contract = load_contract()
    timing, traced_bin = build()
    workload = args.workload
    threads = min(4, nproc()) if workload == "plan_room" else 1
    min_units = 1 if args.size == "tiny" else 2
    checks = {"attempted": 0, "failed": 0, "failures": []}

    def absorb(result, tag):
        checks["attempted"] += result["checks_attempted"]
        checks["failed"] += result["checks_failed"]
        checks["failures"] += [f"{tag}: {f}" for f in result["failures"]]

    def expect(ok, what):
        checks["attempted"] += 1
        if not ok:
            checks["failed"] += 1
            checks["failures"].append(what)

    env = {"commit": commit(), "source_digest": source_digest(),
           "nproc": nproc(), "seed": args.seed,
           "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
           "seconds": args.seconds, "size": args.size, "trace": args.trace}
    report = {"workload": workload, "env": env}
    if args.trace == 0:
        result = run_driver(timing, workload, args.seed, args.seconds,
                            threads, args.size, min_units)
        absorb(result, "timing")
        all_metrics = end_to_end(workload, result)
        env.update(threads=threads, build_type=result["build_type"],
                   compiler=result["compiler"], units=result["units"])
        report["fingerprint"] = result["fingerprint"]
        wanted = contract["end_to_end"]
    else:
        half = args.seconds / 2.0
        if workload == "plan_room":
            # The traced run is single-threaded; the N-thread timing
            # driver must reproduce its plan and coverage digest exactly.
            wide = run_driver(timing, workload, args.seed, 0.0, threads,
                              args.size, 1)
            absorb(wide, f"timing {threads} threads")
            base = run_driver(timing, workload, args.seed, half, 1,
                              args.size, 1)
            traced = run_driver(traced_bin, workload, args.seed, half, 1,
                                args.size, 1)
            expect(wide["fingerprint"] == traced["fingerprint"],
                   f"plan digest at {threads} threads "
                   f"{wide['fingerprint']} != 1-thread traced "
                   f"{traced['fingerprint']}")
        else:
            base = run_driver(timing, workload, args.seed, half, 1,
                              args.size, 2)
            traced = run_driver(traced_bin, workload, args.seed, half, 1,
                                args.size, 2)
        absorb(base, "timing")
        absorb(traced, "traced")
        expect(base["fingerprint"] == traced["fingerprint"],
               f"traced fingerprint {traced['fingerprint']} != untraced "
               f"{base['fingerprint']}")
        all_metrics = per_layer(base, traced)
        env.update(threads=1, build_type=traced["build_type"],
                   compiler=traced["compiler"], units=traced["units"])
        report["fingerprint"] = traced["fingerprint"]
        report["cross_check"] = cross_check(workload, all_metrics)
        if report["cross_check"] and not report["cross_check"]["ok"]:
            log(f"movrbench: trace disagrees with ROADMAP.md: "
                f"{report['cross_check']}")
        wanted = contract["per_layer"]

    check_fail_frac = ratio(checks["failed"], checks["attempted"])
    all_metrics["check_fail_frac"] = (check_fail_frac, "frac")
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in sorted(all_metrics.items())}
    report["checks"] = checks

    contract_metrics = {}
    for spec in wanted:
        value, _ = all_metrics.get(spec["name"], (None, None))
        if value is None:
            raise BenchError(f"metric {spec['name']} missing")
        contract_metrics[spec["name"]] = {"value": value,
                                          "unit": spec["unit"]}

    for name, (value, unit) in sorted(all_metrics.items()):
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{workload:14s} {name:42s} {shown:>14s} {unit}")
    for failure in checks["failures"][:8]:
        print(f"CHECK FAILED: {failure}")
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": checks["failed"] == 0,
                      "attempted": checks["attempted"],
                      "failed": checks["failed"],
                      "metrics": contract_metrics}))
    return 0 if checks["failed"] == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as err:
        log(f"movrbench: {err}")
        sys.exit(2)
