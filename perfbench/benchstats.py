"""Statistics, correctness gates and span self times for the benchmark.

Pure functions over the raw record the perfbench binary writes; run.py
calls them and tests/test_benchstats.py checks them.
"""

import math
import statistics

INF = math.inf
# A failed request has no latency; it is counted beyond every percentile.
# Where such a percentile must be printed as a number, it reads as this.
FAILED_LATENCY_US = 1e12
# The percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99, 90, 50)
# The "_p99" metrics carry the p90: on a 4-core shared host the p99 of ten
# runs spread by 40-120% of its median (it did not repeat within a tenth),
# the p90 far less. See README.md.
REPORTED_TAILS = (90, 50)
# A tail percentile needs this many samples beyond it.
MIN_BEYOND = 10
# A request's layer self times must add up to its wall time within
# max(SELF_TIME_TOLERANCE * wall, SELF_TIME_FLOOR_US).
SELF_TIME_TOLERANCE = 0.05
SELF_TIME_FLOOR_US = 20.0


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else INF


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. Infinite samples (failures) sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples ranked above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(values, wanted=TAIL_PERCENTILES):
    """(p, value) for the highest percentile in `wanted` with at least
    MIN_BEYOND samples beyond it; None when even the lowest has too few."""
    for p in wanted:
        if beyond(len(values), p) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def geomean(values):
    # Sorted, so the same values give bit-identical results in any order
    # (the deterministic metrics are gated exactly).
    values = sorted(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def finite(value):
    return value if math.isfinite(value) else FAILED_LATENCY_US


def stream_latencies(stream):
    """Latency of each request of an open-loop stream, measured from the
    time it was due (not from when the generator got to send it), so a
    stall also charges the requests queued behind it. A failed request
    (done < 0) is infinitely late."""
    return [d - due if d >= 0 else INF
            for due, d in zip(stream["due"], stream["done"])]


def stream_lags(stream):
    """How late the generator sent each request: submit minus due."""
    return [s - d for d, s in zip(stream["due"], stream["submit"])]


def stream_rows(stream):
    """Successful latencies grouped by row name."""
    rows = {}
    for lat, row in zip(stream_latencies(stream), stream["row"]):
        if math.isfinite(lat):
            rows.setdefault(stream["rows"][row], []).append(lat)
    return rows


def tail_metrics(prefix, latencies):
    """{prefix_p50, prefix_p99} from latencies (failures as INF). The p99
    name carries the highest of REPORTED_TAILS the tail rule allows; the
    second value says which one it was."""
    out = {prefix + "_p50": finite(percentile(latencies, 50))}
    t = tail(latencies, REPORTED_TAILS)
    p, v = t if t else (50, percentile(latencies, 50))
    out[prefix + "_p99"] = finite(v)
    return out, p


def end_to_end(raw, e2e):
    """The end-to-end metrics of one run from its raw record. Returns
    (metrics, notes) where notes records the tail percentiles used."""
    notes = {}
    m = {"setup_s": median(e2e["setup_s"])}
    attempted = max(1, raw["attempted"])
    m["ok_frac"] = (attempted - raw["failed"]) / attempted
    m["peak_rss_mib"] = raw["peak_rss_mib"]

    streams = e2e.get("streams", {})
    if "warm_rows" in e2e:
        rows = e2e["warm_rows"]
    else:
        rows = stream_rows(streams[e2e["warm_stream"]])
    m["warm_launch_ms_geomean"] = geomean(
        median(v) / 1000.0 for v in rows.values() if v)
    m["modeled_kcycles_geomean"] = geomean(e2e["kcycles_rows"].values())
    m["static_regs_sum"] = sum(e2e["regs"])
    m["static_smem_bytes_sum"] = sum(e2e["smem"])
    m["compile_ms_p50"] = median(e2e["compile_us"]) / 1000.0
    m["first_result_ms_p50"] = median(e2e["first_result_us"]) / 1000.0
    if "bystander_cpu_rows" in e2e:
        # apps_warm's probe: CPU time per kernel. The two kernels differ in
        # cost, so the p50 is the median of their medians (a pooled median
        # would sit between the two and jump); the tail stays pooled.
        rows = e2e["bystander_cpu_rows"]
        kernels = [k for k in rows if not k.endswith("_failed")]
        bystanders = [x for k in kernels for x in rows[k]]
        bystanders += [INF] * sum(rows[k + "_failed"] for k in kernels)
        vals, notes["bystander_launch_us_p99"] = tail_metrics(
            "bystander_launch_us", bystanders)
        if not any(rows[k + "_failed"] for k in kernels):
            vals["bystander_launch_us_p50"] = median(
                [median(rows[k]) for k in kernels])
    else:
        vals, notes["bystander_launch_us_p99"] = tail_metrics(
            "bystander_launch_us", stream_latencies(streams["bystander"]))
    m.update(vals)
    return m, notes


def loadgen_layers(e2e):
    """p99 generator lag of every open-loop stream of a run, and of the
    closed-loop client (the gap between one request's end and the next
    one's start) where the main stream is a closed loop."""
    out = {}
    for name, stream in e2e.get("streams", {}).items():
        lags = stream_lags(stream)
        if lags:
            out["loadgen.lag_us_p99." + name] = percentile(lags, 99)
    if e2e.get("client_gap_us"):
        out["loadgen.lag_us_p99.main"] = percentile(e2e["client_gap_us"], 99)
    return out


def gate(raw):
    """Correctness verdict of a run: every request succeeded and every
    output matched its reference (host reference, bytecode run or the
    expected hash). Returns (ok, reasons)."""
    reasons = []
    if raw["failed"]:
        reasons.append("%d of %d requests failed or mismatched"
                       % (raw["failed"], raw["attempted"]))
    if raw.get("mismatches"):
        reasons.append("%d output mismatches" % raw["mismatches"])
    if raw["attempted"] < 1:
        reasons.append("nothing was attempted")
    reasons.extend(raw.get("errors", [])[:3])
    return not reasons, reasons


def check_environment(env):
    """Refuse Debug and sanitizer builds: their timings are not the
    program's. `env` is what the driver binary reports about its build,
    which is also the libraries' build."""
    problems = []
    if env.get("build_type", "").lower() not in ("release", "relwithdebinfo"):
        problems.append("build type is %r" % env.get("build_type"))
    if not env.get("ndebug"):
        problems.append("built with assertions")
    if env.get("sanitizer"):
        problems.append("built with sanitizer %r" % env["sanitizer"])
    return problems


# --- Span self times --------------------------------------------------------


def _union(segs):
    out = []
    for a, b in sorted(segs):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _length(segs):
    return sum(b - a for a, b in segs)


def _clip(segs, within):
    out = []
    for a, b in segs:
        for c, d in within:
            lo, hi = max(a, c), min(b, d)
            if hi > lo:
                out.append([lo, hi])
    return out


def node_duration(node):
    if "s" in node:
        return _length(_union(node["s"]))
    return node.get("d", 0.0)


def self_times(node, acc=None):
    """Accumulate each layer's self time over a span tree: a node's
    duration minus the part its children cover. Children with intervals
    cover their union (clipped to the node's own intervals); children that
    only carry a duration (spans the library recorded without a start) are
    taken to cover that much time disjointly."""
    if acc is None:
        acc = {}
    kids = node.get("c", [])
    timed = [s for k in kids if "s" in k for s in k["s"]]
    if "s" in node:
        covered = _length(_union(_clip(timed, _union(node["s"]))))
    else:
        covered = _length(_union(timed))
    covered += sum(k.get("d", 0.0) for k in kids if "s" not in k)
    own = node_duration(node) - covered
    acc[node["l"]] = acc.get(node["l"], 0.0) + max(0.0, own)
    for k in kids:
        self_times(k, acc)
    return acc


def self_time_check(tree):
    """(layers, wall, ok): the tree's layer self times, the root's wall
    time, and whether the self times add up to it within tolerance."""
    layers = self_times(tree)
    wall = node_duration(tree)
    tol = max(SELF_TIME_TOLERANCE * wall, SELF_TIME_FLOOR_US)
    return layers, wall, abs(sum(layers.values()) - wall) <= tol


def self_time_summary(trees):
    """Per request kind: mean wall, mean self time per layer, and the share
    of requests whose self times add up to their wall time."""
    kinds = {}
    for t in trees:
        layers, wall, ok = self_time_check(t)
        k = kinds.setdefault(t.get("kind", "?"),
                             {"n": 0, "ok": 0, "wall": 0.0, "layers": {}})
        k["n"] += 1
        k["ok"] += ok
        k["wall"] += wall
        for name, v in layers.items():
            k["layers"][name] = k["layers"].get(name, 0.0) + v
    for k in kinds.values():
        k["wall"] /= k["n"]
        k["layers"] = {n: v / k["n"] for n, v in k["layers"].items()}
    return kinds
