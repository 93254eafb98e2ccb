#!/usr/bin/env python3
"""Run one workload of the suca benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds `perfbench/` (a Rust
package with path dependencies on the stack's crates) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then repeats runs of the
workload, each in its own process pinned to one CPU: always at least
two untraced runs, then more while `--seconds` have not passed. One run
simulates the workload on several seeds derived from `--seed` and pools
their samples; every correctness check must pass on every one of them.

* `--trace 0` prints every end-to-end metric. Host-time metrics are
  medians over the repetitions, whose virtual-time metrics must agree
  exactly.
* `--trace 1` runs untraced, traced and untraced repetitions (benchmark
  spans, engine profiler, critical-path stage times) and prints every
  per-layer metric. The traced runs must reproduce the untraced runs'
  virtual-time metrics exactly; the host-time difference is reported as
  `obs.trace_overhead_pct`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
every check passed, 1 when a check failed, 2 on a usage or build error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("tenant_mix", "pubsub_pipeline", "kv_rate", "bcl_ring")
# Each run must end well inside 180 s; no repetition starts after this.
DEADLINE_S = 150.0


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        die(f"no stack sources under {ROOT}/crates; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("build failed")
    return os.path.join(target, "release", "suca-perfbench"), target


def pin_cpu():
    """One CPU for every run: the engine dispatches one simulated party at
    a time, and pinning removes cross-CPU thread hand-offs, which made
    unpinned wall time swing several-fold."""
    return sorted(os.sched_getaffinity(0))[-1]


def run_once(exe, spans_dir, workload, seed, traced, cpu, budget):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--spans", spans_dir]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=max(budget, 1.0),
                           preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        die(f"{workload} seed {seed} did not finish in {budget:.0f} s", 1)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        die(f"{workload} seed {seed} exited with {r.returncode}", 1)
    lines = r.stdout.strip().splitlines()
    if not lines:
        die(f"{workload} seed {seed} printed nothing", 1)
    return json.loads(lines[-1])


def virt_values(rep):
    return {k: v["value"] for k, v in rep["virt"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = args.trace == "1"

    exe, target = build()
    spans_dir = os.path.join(target, "perfbench-spans")
    cpu = pin_cpu()
    # Repetitions: the whole plan always, so that a program that does not
    # repeat itself fails every run alike, however fast the host; then
    # more cycles of it while time is left. In trace mode the plan is
    # untraced, traced, untraced, so that a traced run that differs from
    # the untraced ones is told apart from a program that does not repeat
    # itself.
    plan = [False, True, False] if traced else [False, False]
    reps = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= len(plan) and elapsed >= args.seconds:
            break
        if len(reps) >= len(plan) and elapsed + elapsed / len(reps) > DEADLINE_S:
            break
        tr = plan[len(reps) % len(plan)]
        reps.append(run_once(exe, spans_dir, args.workload, args.seed, tr, cpu,
                             DEADLINE_S + 20 - elapsed))

    failures = []
    for rep in reps:
        for name, detail in sorted(rep["checks"].items()):
            if detail:
                failures.append(f"{name}: {detail}")
    first = virt_values(reps[0])
    for r in reps[1:]:
        if virt_values(r) != first:
            diff = sorted(k for k in first if virt_values(r).get(k) != first[k])
            kind = "traced and untraced" if r["traced"] else "repeated"
            failures.append(f"{kind} runs differ in {', '.join(diff)}")

    untraced = [r for r in reps if not r["traced"]]
    host = {k: statistics.median(r["host"][k]["value"] for r in untraced)
            for k in untraced[0]["host"]}
    virt = reps[0]["virt"]

    metrics = {}
    if traced:
        traced_reps = [r for r in reps if r["traced"]]
        layer = {k: statistics.median(r["layer"][k]["value"] for r in traced_reps)
                 for k in traced_reps[0]["layer"]}
        units = {k: v["unit"] for k, v in traced_reps[0]["layer"].items()}
        with_spans = statistics.median(r["host"]["host_s"]["value"] for r in traced_reps)
        layer["obs.trace_overhead_pct"] = (with_spans - host["host_s"]) / host["host_s"] * 100.0
        units["obs.trace_overhead_pct"] = "%"
        for m in spec["per_layer"]:
            if m["name"] in units and units[m["name"]] != m["unit"]:
                die(f"{m['name']}: unit {units[m['name']]} != {m['unit']}", 1)
            # A layer the workload never calls reads 0.
            metrics[m["name"]] = {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            if m["name"] in host:
                value = host[m["name"]]
            elif m["name"] in virt:
                value = virt[m["name"]]["value"]
                if virt[m["name"]]["unit"] != m["unit"]:
                    die(f"{m['name']}: unit {virt[m['name']]['unit']} != {m['unit']}", 1)
            else:
                die(f"{args.workload} does not produce {m['name']}", 1)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    # Human-readable report: every metric with its unit and sample count.
    print(f"# {args.workload} seed {args.seed}, {len(reps)} runs pinned to cpu {cpu}, "
          f"{time.monotonic() - start:.1f} s")
    for k in sorted(host):
        print(f"  {k:<40} {host[k]:>14.6g}  {untraced[0]['host'][k]['unit']:<6} "
              f"median of {len(untraced)}")
    for k, v in sorted(virt.items()):
        n = "" if v["samples"] is None else f"n={v['samples']}"
        print(f"  {k:<40} {v['value']:>14.6g}  {v['unit']:<6} {n}")
    if traced:
        # Every layer metric the workload reports, listed or not.
        for k in sorted(layer):
            print(f"  {k:<40} {layer[k]:>14.6g}  {units[k]}")
    for f in failures:
        print(f"  CHECK FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": int(reps[0]["attempted"]),
        "failed": int(reps[0]["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
