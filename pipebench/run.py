#!/usr/bin/env python3
"""Pipeline benchmark: one command per workload.

    python3 pipebench/run.py --workload stream-churn --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout. It builds the harness (pipebench/
CMakeLists.txt, into $CARGO_TARGET_DIR or .bench_build), runs one
seeded workload, checks the outputs, prints every metric by name with
its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
It exits non-zero when the build fails, the harness fails, or an
output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pbstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A reported latency percentile must have at least this many polls
# beyond it; fewer is not a distribution.
MIN_POLLS_BEYOND = 10


def harness_timeout_s(seconds):
    """Wall-clock limit of one harness run: the timed replays plus an
    allowance for the untimed phases (generation, model, warm-up, check
    and, when traced, the extra replays), which grow with program cost."""
    return 120 + 3 * seconds


def fail(message, code=2):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the harness; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no cloudsurv sources next to the benchmark (missing %s)"
                 % needed)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "pipebench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pipebench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail("build failed, see " + log_path, 1)
    return os.path.join(build_dir, "pipebench")


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def span_totals(spans, name):
    """(count, summed items, summed seconds) of every span named `name`."""
    hits = [s for s in spans if s["name"] == name]
    return (len(hits), sum(s["items"] for s in hits),
            1e-9 * sum(s["end_ns"] - s["start_ns"] for s in hits))


def stage_report(spans, job_s):
    """Self time per span name inside the traced job, and its share of
    job_s. Returns (rows, unattributed_s)."""
    roots = [s for s in spans if s["name"] == "job"]
    if not roots:
        return [], 0.0
    root = roots[-1]
    inside = set(pbstats.subtree(spans, root["id"]))
    selfs = pbstats.self_times(spans)
    rows = {}
    for s in spans:
        if s["id"] not in inside or s["id"] == root["id"]:
            continue
        count, total, self_s = rows.get(s["name"], (0, 0.0, 0.0))
        rows[s["name"]] = (count + 1,
                           total + 1e-9 * (s["end_ns"] - s["start_ns"]),
                           self_s + 1e-9 * selfs[s["id"]])
    table = [(name, c, t, st, st / job_s) for name, (c, t, st) in
             sorted(rows.items(), key=lambda kv: -kv[1][2])]
    return table, 1e-9 * selfs[root["id"]]


def end_to_end(raw):
    """End-to-end metric values plus the sample counts behind them."""
    policies = raw["policies"]
    m = {
        "decision_accuracy":
            raw["accuracy"]["correct"] / raw["accuracy"]["labelled"],
        "plan_cost_ratio": policies["longevity"]["total_cost"] /
                           policies["naive"]["total_cost"],
        "plan_sla_ratio": policies["longevity"]["sla_violations"] /
                          policies["naive"]["sla_violations"],
        "setup_s": statistics.median(raw["setup_s"]),
    }
    # Window metrics summarise replays with fast_half_median (see
    # pbstats): the replays repeat identical work, so the slower half
    # mostly measures interference from outside the process. The
    # latency percentiles apply the same summary to each poll.
    fast = pbstats.fast_half_median
    if raw["kind"] == "stream":
        reps = raw["reps"]
        m["job_s"] = fast([r["job_s"] for r in reps])
        m["cpu_s"] = fast([r["cpu_s"] for r in reps])
        m["events_per_s"] = reps[0]["events"] / m["job_s"]
        m["bytes_per_database"] = statistics.median(
            [r["resident_bytes"] / r["tracked"] for r in reps])
        replays = [r["polls"] for r in reps]
        notes = {"replays": len(reps), "polls_per_replay": len(replays[0]),
                 "poll_decisions_per_replay":
                     sum(n for _, n in replays[0]),
                 "drain_decisions_per_replay": reps[0]["drain_decisions"]}
    else:
        m["job_s"] = fast(raw["job_s"])
        m["cpu_s"] = fast(raw["cpu_s"])
        m["events_per_s"] = raw["events"] / m["job_s"]
        m["bytes_per_database"] = statistics.median(raw["bytes_per_database"])
        replays = [[(lat, 1) for lat in calls] for calls in raw["assess_ms"]]
        notes = {"replays": len(raw["job_s"]),
                 "assess_calls_per_replay": len(replays[0])}
    for q, name in ((0.50, "p50"), (0.95, "p95")):
        value, beyond = pbstats.replay_percentile(replays, q)
        m["decision_latency_%s_ms" % name] = value
        notes["polls_beyond_" + name] = beyond
    notes["setup_samples"] = len(raw["setup_s"])
    notes["labelled_decisions"] = raw["accuracy"]["labelled"]
    return m, notes


def per_layer(raw, spans, untraced_job_s):
    """Per-layer metric values of a traced run."""
    traced = raw["traced"]
    window = traced["window_delta"]
    setup = traced["setup_delta"]

    def fam(delta, name, field):
        return delta.get(name, {}).get(field, 0.0)

    def both(name, field):
        return fam(setup, name, field) + fam(window, name, field)

    m = {}
    stream = raw["kind"] == "stream"
    _, events, busy = span_totals(spans, "serving.ingest")
    m["serving.ingest.events"], m["serving.ingest.busy_s"] = events, busy
    calls, _, busy = span_totals(spans, "serving.poll")
    m["serving.poll.calls"], m["serving.poll.busy_s"] = calls, busy
    tasks = fam(window, "cloudsurv_pool_tasks_total", "value")
    if stream:
        m["serving.decisions"] = traced["scored"]
        m["serving.tracked"] = traced["tracked"]
        m["serving.skipped"] = traced["skipped"]
        m["serving.cancelled_share"] = traced["cancelled"] / traced["tracked"]
        m["serving.rows_per_batch"] = traced["scored"] / tasks
        m["serving.direct_read_share"] = traced["direct_reads"] / tasks
        m["serving.poll.busy_s_1worker"] = traced["poll_busy_s_1worker"]
    else:
        for name in ("serving.decisions", "serving.tracked",
                     "serving.skipped", "serving.cancelled_share",
                     "serving.rows_per_batch", "serving.direct_read_share",
                     "serving.poll.busy_s_1worker"):
            m[name] = 0
    m["common.pool.tasks"] = tasks
    m["common.pool.run_s"] = fam(window, "cloudsurv_pool_task_run_us",
                                 "sum") / 1e6
    m["common.pool.wait_s"] = fam(window, "cloudsurv_pool_task_wait_us",
                                  "sum") / 1e6
    _, events, busy = span_totals(spans, "telemetry.append")
    m["telemetry.append.events"], m["telemetry.append.busy_s"] = events, busy
    m["telemetry.finalize.busy_s"] = span_totals(spans,
                                                 "telemetry.finalize")[2]
    m["telemetry.resident_bytes"] = traced["resident_bytes"]
    m["telemetry.segments"] = both("cloudsurv_telemetry_segments_total",
                                   "value")
    extract = "cloudsurv_features_extract_latency_us"
    rows = fam(window, "cloudsurv_features_rows_total", "value")
    m["features.extract.calls"] = fam(window, extract, "count")
    m["features.extract.rows"] = rows
    m["features.extract.busy_s"] = fam(window, extract, "sum") / 1e6
    m["features.extract.us_per_row"] = (
        fam(window, extract, "sum") / rows if rows else 0)
    m["features.subscription_groups"] = fam(
        window, "cloudsurv_features_subscription_groups_total", "value")
    traverse = "cloudsurv_inference_batch_latency_us"
    calls = fam(window, traverse, "count")
    rows = fam(window, "cloudsurv_inference_rows_total", "value")
    m["ml.traverse.calls"] = calls
    m["ml.traverse.rows"] = rows
    m["ml.traverse.busy_s"] = fam(window, traverse, "sum") / 1e6
    m["ml.traverse.rows_per_call"] = rows / calls if calls else 0
    m["ml.binning.busy_s"] = fam(window, "cloudsurv_ml_binning_build_us",
                                 "sum") / 1e6
    m["ml.tree_fit.trees"] = fam(window, "cloudsurv_ml_tree_fit_us", "count")
    m["ml.tree_fit.busy_s"] = fam(window, "cloudsurv_ml_tree_fit_us",
                                  "sum") / 1e6
    m["ml.compile.busy_s"] = both("cloudsurv_inference_compile_ms",
                                  "sum") / 1e3
    m["core.train.busy_s"] = span_totals(spans, "core.train")[2]
    _, rows, busy = span_totals(spans, "core.assess")
    m["core.assess.rows"], m["core.assess.busy_s"] = rows, busy
    m["core.place.assign_s"] = span_totals(spans, "core.place.assign")[2]
    _, tenants, busy = span_totals(spans, "core.place.replay")
    m["core.place.replay_s"], m["core.place.tenants"] = busy, tenants
    m["artifact.load.busy_s"] = span_totals(spans, "artifact.load")[2]
    _, events, busy = span_totals(spans, "simulator.generate")
    m["simulator.generate.events"] = events
    m["simulator.generate.busy_s"] = busy
    table, unattributed = stage_report(spans, traced["job_s"])
    m["trace.overhead"] = traced["job_s"] / untraced_job_s
    m["trace.unattributed_s"] = unattributed
    return m, table


def main():
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("missing BENCHMARK.json at the checkout root")
    with open(bench_path) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    harness = build(build_dir)
    work_dir = os.path.join(build_dir, "pipebench-run")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    timeout = harness_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %g s" % timeout, 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("harness exited with code %d" % proc.returncode, 1)
    doc = json.loads(lines[-1])
    raw = doc["raw"]

    e2e, notes = end_to_end(raw)
    print("workload %s seed %d: %d pool workers, %d training threads, "
          "%d shards" % (args.workload, args.seed, doc["pool_workers"],
                         doc["train_threads"], doc["shards"]))
    print("samples: " + ", ".join("%s=%s" % kv for kv in notes.items()))
    for note in doc["failures"]:
        print("FAILED: " + note)
    for name in ("p50", "p95"):
        if notes["polls_beyond_" + name] < MIN_POLLS_BEYOND:
            fail("decision_latency_%s_ms has %d polls beyond it, fewer "
                 "than %d" % (name, notes["polls_beyond_" + name],
                              MIN_POLLS_BEYOND), 1)
    if args.trace:
        spans = load_spans(doc["spans"])
        metrics, table = per_layer(raw, spans, e2e["job_s"])
        wanted = spec["per_layer"]
        print("spans: " + doc["spans"])
        print("%-24s %7s %10s %10s %8s" % ("stage (self time)", "spans",
                                           "total_s", "self_s", "of_job"))
        for name, count, total, self_s, share in table:
            print("%-24s %7d %10.4f %10.4f %7.1f%%" % (name, count, total,
                                                       self_s, 100 * share))
        print("%-24s %7s %10s %10.4f %7.1f%%" % (
            "(unattributed)", "", "", metrics["trace.unattributed_s"],
            100 * metrics["trace.unattributed_s"] / raw["traced"]["job_s"]))
    else:
        metrics = e2e
        wanted = spec["end_to_end"]
    out = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print("%-30s %16.6g %s" % (entry["name"], value, entry["unit"]))
    correct = doc["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
