#!/usr/bin/env python3
"""Build the benchmark driver and run one workload.

    python3 perfbench/run.py --workload apps_warm --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. It builds the driver and the
repository's libraries (an optimized build of the repository's own CMake
project) under .bench_build/, runs the workload, checks every output, prints a
human-readable report on stderr and, as the last line of stdout, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchstats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("apps_warm", "cold_kernels")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_logged(cmd, logfile):
    # The compiler's temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp", "build")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(logfile, "a") as f:
        f.write("$ %s\n" % " ".join(cmd))
        f.flush()
        r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, env=env)
    if r.returncode != 0:
        with open(logfile) as f:
            log("".join(f.readlines()[-40:]))
        raise SystemExit("perfbench: command failed: %s (log: %s)"
                         % (" ".join(cmd), logfile))


def build():
    """Configure (once) and build the driver with the repository's own CMake
    project, which ProjectHook.cmake extends by this directory. Incremental:
    CMake rebuilds whatever changed."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no library sources next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    tree = os.path.join(BUILD, "cmake")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", tree,
                    "-DCMAKE_BUILD_TYPE=Release", "-DCODESIGN_SANITIZE=",
                    "-DCMAKE_PROJECT_omp_gpu_codesign_INCLUDE=" +
                    os.path.join(HERE, "ProjectHook.cmake")], logfile)
    run_logged(["cmake", "--build", tree, "-j", jobs, "--target", "perfbench"],
               logfile)
    return os.path.join(tree, "perfbench")


def disk_usage(path):
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def compiler_version():
    try:
        out = subprocess.run(["c++", "--version"], capture_output=True,
                             text=True, timeout=30).stdout
        return out.splitlines()[0] if out else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_driver(binary, args, tmp):
    """Run the driver in a private temp area; returns its raw record."""
    native_root = os.path.join(BUILD, "native-cache")
    apps_cache = os.path.join(native_root, "apps_warm")
    # apps_warm reuses its modules across runs (their code does not depend
    # on the seed); every other workload compiles into a fresh directory
    # that goes away with the run.
    native = apps_cache if args.workload == "apps_warm" else \
        os.path.join(tmp, "native")
    scratch = os.path.join(tmp, "scratch")
    for d in (apps_cache, native, scratch, os.path.join(tmp, "t")):
        os.makedirs(d, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CODESIGN_")}
    env["CODESIGN_NATIVE_CACHE_DIR"] = native
    env["TMPDIR"] = os.path.join(tmp, "t")
    out = os.path.join(tmp, "raw.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--native-cache", native, "--apps-cache", apps_cache,
           "--scratch", scratch]
    if args.corrupt_expected_hash:
        cmd.append("--corrupt-expected-hash")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=env)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: driver timed out")
    finally:
        # Also on SIGTERM/Ctrl-C: never leave the driver running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise SystemExit("perfbench: driver exited with %d" % rc)
    with open(out) as f:
        return json.load(f)


def report(args, raw, metrics, notes, info):
    log("== perfbench %s seed=%d seconds=%s trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    for k, v in sorted(info.items()):
        log("  %-24s %s" % (k, v))
    for k, v in metrics.items():
        log("  %-44s %s" % (k, v))
    for k, p in notes.items():
        log("  %s is the p%d (highest percentile with >= %d samples beyond)"
            % (k, p, benchstats.MIN_BEYOND))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected-hash", action="store_true",
                    help="flip one expected output hash (gate self-test)")
    args = ap.parse_args()

    t0 = time.time()
    binary = build()
    log("perfbench: build ready in %.1f s" % (time.time() - t0))
    tmp = os.path.join(BUILD, "tmp", "run-%d" % os.getpid())
    total0, steal0 = cpu_ticks()
    try:
        raw = run_driver(binary, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    total1, steal1 = cpu_ticks()
    # Share of CPU time the hypervisor gave to other guests during the run.
    steal = (steal1 - steal0) / max(1, total1 - total0)

    problems = benchstats.check_environment(raw["env"])
    if problems:
        raise SystemExit("perfbench: refusing to report: " +
                         "; ".join(problems))
    ok, reasons = benchstats.gate(raw)
    info = {
        "nproc": os.cpu_count(),
        "build_type": raw["env"]["build_type"],
        "sanitizer": raw["env"]["sanitizer"] or "none",
        "compiler": compiler_version(),
        "seed": args.seed,
        "native_cache_bytes": disk_usage(os.path.join(BUILD, "native-cache")),
        "temp_area_bytes": disk_usage(os.path.join(BUILD, "tmp")),
    }
    e2e, notes = benchstats.end_to_end(raw, raw["e2e"])
    if args.trace:
        metrics = dict(raw["layers"])
        metrics.update(benchstats.loadgen_layers(raw["e2e"]))
        summary = benchstats.self_time_summary(raw["trees"])
        checked = sum(k["n"] for k in summary.values())
        metrics["trace.selftime_sum_ok_frac"] = (
            sum(k["ok"] for k in summary.values()) / checked if checked else 0.0)
        base, _ = benchstats.end_to_end(raw, raw["e2e_untraced"])
        log("== tracing overhead (traced minus untraced, %s s each)"
            % (args.seconds / 2))
        for k in e2e:
            log("  %-32s traced %-14.6g untraced %-14.6g diff %.6g"
                % (k, e2e[k], base[k], e2e[k] - base[k]))
        log("== layer self times per request (mean us; sum within "
            "max(%.0f%% of wall, %.0f us) of wall)"
            % (100 * benchstats.SELF_TIME_TOLERANCE,
               benchstats.SELF_TIME_FLOOR_US))
        for kind, k in sorted(summary.items()):
            layers = ", ".join("%s %.1f" % (n, v)
                               for n, v in sorted(k["layers"].items()))
            log("  %-14s n=%-4d wall %.1f ok %d/%d | %s"
                % (kind, k["n"], k["wall"], k["ok"], k["n"], layers))
    else:
        metrics = e2e
    info["cpu_steal_share"] = "%.3f" % steal
    report(args, raw, metrics, notes, info)
    if not ok:
        log("perfbench: OUTPUT CHECK FAILED: " + "; ".join(reasons))
    units = unit_table("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: %s"
                         % sorted(set(units) ^ set(metrics)))
    result = {
        "correct": ok,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, "count")}
                    for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))


def unit_table(group):
    """Units of one metric group as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[group]}


def cpu_ticks():
    """(total, steal) jiffies from /proc/stat; (0, 0) where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return sum(fields), fields[7] if len(fields) > 7 else 0
    except (OSError, ValueError):
        return 0, 0


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so the driver process is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    main()
