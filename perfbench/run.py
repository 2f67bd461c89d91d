#!/usr/bin/env python3
"""ATLAS pipeline benchmark.

Builds perfbench/ (the ATLAS library from this checkout plus the
atlas_perfbench binary), runs one workload through the library's public API,
checks its outputs against pinned digests, and prints one JSON object as the
last line of stdout:

    python3 perfbench/run.py --workload paper_week --seed 7 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics (medians over the run's passes),
--trace 1 the per-layer metrics of the traced rounds. A manifest line
("manifest: {...}") precedes the result; the full raw result, spans
included, is kept under <build dir>/perfbench/runs/.

    python3 perfbench/run.py --self-check   # tiny-scale end-to-end checks
    python3 perfbench/run.py --pin          # rewrite perfbench/references.json

The build directory is $CARGO_TARGET_DIR when set, else .bench_build; both
live inside the checkout. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
# atlas_perfbench is stopped after this many seconds.
RUN_TIMEOUT_S = 170

# The workloads BENCHMARK.json names. trend_report also runs on request, and
# every traced run times it as the trend probe (see README.md for why it is
# not a benchmark workload of its own).
BENCHMARKED = ("paper_week", "crash_resume")
WORKLOADS = BENCHMARKED + ("trend_report",)

# The end-to-end times are host-speed adjusted: each pass's seconds are
# scaled by PROBE_REFERENCE_S over the speed probe's time around that pass,
# so they read as seconds on a host where the probe takes PROBE_REFERENCE_S
# (about what it takes on the 4-vCPU guest this was built on). The raw
# seconds stay in the manifest and the raw result.
PROBE_REFERENCE_S = 0.5
ADJUSTED = ("setup_s", "simulate_s", "analyze_s", "wall_s", "cpu_s")

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "synth.build_s": "s",
    "synth.generate_s": "s",
    "synth.generate_cpu_over_wall": "ratio",
    "synth.events": "count",
    "cdn.engine_s": "s",
    "cdn.engine_cpu_over_wall": "ratio",
    "cdn.first_record_s": "s",
    "cdn.records": "count",
    "cdn.sink_writes": "count",
    "trace.encode_s": "s",
    "trace.decode_s": "s",
    "trace.bytes": "bytes",
    "trace.blocks": "count",
    "analysis.ingest_s": "s",
    "analysis.finalize_s": "s",
    "analysis.finalize_cpu_over_wall": "ratio",
    "analysis.render_s": "s",
    "analysis.report_bytes": "bytes",
    "cluster.objects": "count",
    "cluster.dtw_pairs": "count",
    "ckpt.engine_overhead_s": "s",
    "ckpt.read_s": "s",
    "ckpt.resume_first_record_s": "s",
    "ckpt.analysis_save_s": "s",
    "ckpt.analysis_restore_s": "s",
    "ckpt.snapshots": "count",
    "ckpt.snapshot_bytes": "bytes",
    "energy.report_s": "s",
    "energy.epochs": "count",
    "bench.tracing_overhead_pct": "%",
}

# Self-check scales: every workload small enough to run in seconds, large
# enough that the crash pass still stops mid-trace.
SELF_CHECK_SCALES = {"paper_week": 0.03, "crash_resume": 0.03}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds atlas_perfbench; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    binary = os.path.join(out, "atlas_perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "atlas_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def expect_args(refs, workload):
    args = []
    for seed, d in sorted(refs["workloads"].get(workload, {}).items()):
        args += ["--expect",
                 "%s:%s:%s:%s" % (seed, d["trace"], d["report"], d["energy"])]
    return args


def drive(binary, mode, workload, seeds, seconds, extra=()):
    """Runs atlas_perfbench and returns its parsed result object."""
    workdir = os.path.join(build_dir(), "perfbench", "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--mode", mode, "--workload", workload,
           "--seconds", str(seconds), "--root", ROOT, "--workdir", workdir]
    for seed in seeds:
        cmd += ["--seed", str(seed)]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(rows, key, scale=None):
    """Median of rows[key], each first multiplied by scale(row) if given."""
    values = [r[key] * (scale(r) if scale else 1.0) for r in rows if key in r]
    return statistics.median(values) if values else None


def measured_passes(raw):
    return [p for p in raw["passes"] if p["kind"] == "untraced" and p["ok"]]


def host_adjust(p):
    return PROBE_REFERENCE_S / p["probe_s"]


def summarize(raw, trace):
    """The result line from one raw atlas_perfbench result."""
    metrics = {}
    if trace:
        rounds = [r["layers"] for r in raw["rounds"]]
        for name, unit in PER_LAYER.items():
            value = median_of(rounds, name)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
    else:
        passes = measured_passes(raw)
        for name, unit in END_TO_END.items():
            value = median_of(passes, name,
                              host_adjust if name in ADJUSTED else None)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
    wanted = PER_LAYER if trace else END_TO_END
    correct = (raw["failed"] == 0 and raw["attempted"] > 0 and
               set(metrics) == set(wanted))
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def git_describe():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                               "--dirty"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def manifest(raw, trace, seconds, spans):
    keys = ("workload", "seed", "pass_seeds", "scale", "threads", "nproc",
            "compiler", "build_type", "spec_fingerprints", "drift_probe_s",
            "gate_seed")
    m = {k: raw.get(k) for k in keys}
    m.update({"git_describe": git_describe(), "trace": trace,
              "run_seconds": seconds,
              "passes": len(raw["passes"]), "rounds": len(raw["rounds"]),
              "errors": raw["errors"]})
    if not trace:
        # The end-to-end times as measured, before the host-speed adjustment.
        passes = measured_passes(raw)
        m["unadjusted_s"] = {k: median_of(passes, k) for k in ADJUSTED}
    if spans:
        m["spans"] = os.path.relpath(spans, ROOT)
    return m


def run_workload(args):
    binary = build()
    refs = load_references()
    runs = os.path.join(build_dir(), "perfbench", "runs")
    os.makedirs(runs, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(runs, stem + ".spans.json") if args.trace else None
    # Every run also passes the workload at a pinned seed first (its
    # warm-up): the default seed untraced, the held-out seed traced.
    gate = refs["held_out_seed"] if args.trace else refs["default_seed"]
    extra = expect_args(refs, args.workload) + ["--gate-seed", str(gate)]
    if spans:
        extra += ["--spans-out", spans]
    raw = drive(binary, "traced" if args.trace else "measure", args.workload,
                [args.seed], args.seconds, extra)
    m = manifest(raw, args.trace, args.seconds, spans)
    with open(os.path.join(runs, stem + ".json"), "w") as f:
        json.dump({"manifest": m, "raw": raw}, f, indent=1)
    for error in raw["errors"]:
        log("error:", error)
    print("manifest: " + json.dumps(m, sort_keys=True))
    print(json.dumps(summarize(raw, args.trace)))
    return 0


def pin():
    """Rewrites references.json: plain-pass digests of every workload at the
    default and the held-out seed. Only for a change to the workloads
    themselves; a program change must match the pinned digests as they are."""
    binary = build()
    refs = load_references()
    seeds = [refs["default_seed"], refs["held_out_seed"]]
    refs["workloads"] = {}
    for workload in WORKLOADS:
        raw = drive(binary, "pin", workload, seeds, 0)
        if raw["failed"]:
            raise SystemExit("pin failed: %s" % raw["errors"])
        refs["workloads"][workload] = {
            str(p["seed"]): {k: p[k] for k in ("trace", "report", "energy")}
            for p in raw["passes"]}
        log("pinned", workload, refs["workloads"][workload])
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def self_check():
    """Runs both benchmark workloads at a tiny scale and checks the benchmark
    itself: metric names and units against BENCHMARK.json, traced spans
    against the untraced phase times, and that the digest gate fires on a
    wrong reference."""
    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []

    def check(ok, what):
        log(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    check(declared_e2e == END_TO_END, "end-to-end metric names and units")
    check(declared_layers == PER_LAYER, "per-layer metric names and units")
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(BENCHMARKED),
          "workload names")
    seeds = [42, 1729]
    for workload in BENCHMARKED:
        scale = ["--scale", str(SELF_CHECK_SCALES[workload])]
        pinned = drive(binary, "pin", workload, seeds, 0, scale)
        refs = {"workloads": {workload: {
            str(p["seed"]): p for p in pinned["passes"]}}}
        extra = scale + expect_args(refs, workload)

        # Long enough, with the speed probe after each pass, for the gate
        # pass and six untraced ones: the five derived seeds come round
        # again, so the same-seed check runs too.
        raw = drive(binary, "measure", workload, [7], 8,
                    extra + ["--gate-seed", "42"])
        result = summarize(raw, False)
        check(result["correct"] and raw["attempted"] >= 7,
              "%s: untraced passes match the pins (%d passes)"
              % (workload, raw["attempted"]))
        check(set(result["metrics"]) == set(END_TO_END) and
              all(m["value"] > 0 for m in result["metrics"].values()),
              "%s: every end-to-end metric present and non-zero" % workload)

        # Twelve seconds of rounds: at this scale a phase lasts tens of ms,
        # and a median over fewer rounds moved past the slack below.
        raw = drive(binary, "traced", workload, [1729], 12,
                    extra + ["--gate-seed", "42"])
        result = summarize(raw, True)
        check(result["correct"] and raw["rounds"],
              "%s: traced passes reproduce the untraced digests" % workload)
        check(set(result["metrics"]) == set(PER_LAYER),
              "%s: every per-layer metric present" % workload)
        for phase in ("setup_s", "simulate_s", "analyze_s", "wall_s"):
            def med(key):
                return statistics.median(r[key][phase] for r in raw["rounds"])
            spans, traced, plain = (med("span_phases"), med("traced_phases"),
                                    med("untraced_phases"))
            check(abs(spans - traced) <= 0.03 * traced,
                  "%s: spans cover the traced %s (%.4f s of %.4f s)"
                  % (workload, phase, spans, traced))
            # Tiny scales leave phases of tens of ms, where two passes differ
            # by a few ms from noise alone: hence the slack.
            check(abs(spans - plain) <= 0.10 * plain + 0.005,
                  "%s: traced spans account for the untraced %s "
                  "(%.4f s vs %.4f s)" % (workload, phase, spans, plain))

        wrong = dict(pinned["passes"][0])
        wrong["trace"] = "%016x" % (int(wrong["trace"], 16) ^ 1)
        bad = {"workloads": {workload: {str(wrong["seed"]): wrong}}}
        raw = drive(binary, "measure", workload, [7], 0,
                    scale + expect_args(bad, workload) +
                    ["--gate-seed", str(wrong["seed"])])
        result = summarize(raw, False)
        check(not result["correct"] and raw["failed"] == 1,
              "%s: the digest gate fires on a wrong reference" % workload)
    log("self-check: %s" % ("ok" if not failures else
                            "%d check(s) failed" % len(failures)))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check()
        if args.pin:
            return pin()
        if not args.workload:
            parser.error("--workload is required")
        return run_workload(args)
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
