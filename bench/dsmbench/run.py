#!/usr/bin/env python3
"""dsmbench runner: builds the dsmbench binary, runs the workloads, checks every output
and prints every metric by name with its unit and clock.

  run.py --workload W --seed N --seconds S --trace 0|1
      One benchmark run of workload W: repeats the binary on seed N for S
      seconds (at least three times), checks it, and prints the end-to-end
      metrics (--trace 0) or the per-layer metrics (--trace 1). The last line
      of standard output is one JSON object: correct, attempted, failed,
      metrics.
  run.py [--scale smoke|full] [--runs N] [--seed N] [--trace 0|1] [--out F]
      Every workload, N runs each (seeds N, N+1, ...): one table of metrics,
      optionally saved to F for compare mode. Exits nonzero on any failure.
  run.py compare PARENT.json CHANGE.json
  run.py compare PARENT.json... -- CHANGE.json...
      For each workload and end-to-end metric of saved result files (runs
      of several files on one side are pooled): both sides' median and
      quartiles and a verdict under the bounds in BENCHMARK.json. Exits
      nonzero when a metric regressed.
  run.py repro
      The paper cells the harness must reproduce: Fig. 4 li_hudak on 8 nodes
      and Fig. 5 java_ic on 4 nodes.

The binary is built into .bench_build/dsmbench at the repository root unless
--binary names one. Simulated metrics are deterministic: a run fails when
they differ between repeats, or between traced and untraced repeats.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "dsmbench"
WORKLOADS = ["tsp_fig4", "mapcolor_ic_fig5", "jacobi_hbrc", "mixed_adaptive"]
# Paper cells (ms of simulated time) that `repro` must print exactly.
REPRO = {"tsp_fig4": 91.43, "mapcolor_ic_fig5": 561.47}
INSTANCE_TIMEOUT_S = 150
CLOCK = {"sim": "simulated clock or count", "host": "host clock", "trace": "traced run"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build():
    """Builds the binary from the repository's sources; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no platform sources under {ROOT / 'src'}: run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "dsmbench", "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed; see {log}")
    return BUILD / "dsmbench"


def run_instance(binary, workload, seed, scale, trace_path, out_path):
    """Runs the binary once; returns its JSON, or None when it crashed."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--json", str(out_path)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    out_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not out_path.is_file():
        print(f"run.py: {workload} seed {seed} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out_path.read_text())


def measure(binary, workload, seed, scale, trace, seconds):
    """Repeats one workload for `seconds` and merges the repeats.

    Untraced and traced repeats alternate when `trace` is set. Returns the
    tally and every metric: simulated ones from the first repeat (all must
    match it), host ones as the median over untraced repeats, traced ones as
    the median over traced repeats.
    """
    runs = BUILD / "runs"
    traces = BUILD / "traces"
    runs.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    min_repeats = 4 if trace else 3
    if seconds <= 0:
        min_repeats = 2 if trace else 1
    deadline = time.monotonic() + seconds
    results = []
    attempted = failed = 0
    i = 0
    while i < min_repeats or time.monotonic() < deadline:
        traced = trace and i % 2 == 1
        out = run_instance(binary, workload, seed, scale,
                           traces / f"{workload}.json" if traced else None,
                           runs / f"{workload}.json")
        i += 1
        if out is None:
            attempted += 1
            failed += 1
            break
        attempted += out["attempted"]
        failed += out["failed"]
        results.append(out)
    values = {}
    if results:
        attempted += 1  # the determinism check
        if any(r["sim"] != results[0]["sim"] for r in results):
            failed += 1
            print(f"run.py: {workload} seed {seed}: simulated metrics differ between "
                  "repeats", file=sys.stderr)
        values = {k: ("sim", v) for k, v in results[0]["sim"].items()}
        plain = [r for r in results if not r["traced"]]
        traced_runs = [r for r in results if r["traced"]]
        for group, group_runs in (("host", plain), ("trace", traced_runs)):
            for key in (group_runs[0][group] if group_runs else {}):
                values[key] = (group, statistics.median(r[group][key] for r in group_runs))
        if plain and traced_runs:
            untraced_s = statistics.median(r["host"]["host_s"] for r in plain)
            traced_s = statistics.median(r["host"]["host_s"] for r in traced_runs)
            values["trace.overhead_pct"] = ("trace", (traced_s / untraced_s - 1) * 100)
    return {"attempted": attempted, "failed": failed, "repeats": len(results),
            "values": values}


def select(measured, metric_specs):
    """Picks the listed metrics; a missing one is a harness bug, so it fails."""
    picked = {}
    for spec in metric_specs:
        if spec["name"] not in measured["values"]:
            if measured["failed"]:
                continue
            fail(f"dsmbench reported no metric {spec['name']}")
        group, value = measured["values"][spec["name"]]
        picked[spec["name"]] = (group, value, spec["unit"])
    return picked


def print_metrics(workload, picked):
    for name, (group, value, unit) in picked.items():
        print(f"{workload:18s} {name:36s} {value:18.6f} {unit:6s} [{CLOCK[group]}]")


def bench_run(args, spec):
    binary = args.binary or build()
    measured = measure(binary, args.workload, args.seed, args.scale, args.trace,
                       args.seconds)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    picked = select(measured, specs)
    print(f"{args.workload}: seed {args.seed}, {measured['repeats']} repeats, "
          f"{measured['failed']}/{measured['attempted']} checks failed")
    print_metrics(args.workload, picked)
    correct = measured["failed"] == 0 and len(picked) == len(specs)
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (_, v, u) in picked.items()},
    }))


def suite(args, spec):
    binary = args.binary or build()
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    saved = {"scale": args.scale, "trace": bool(args.trace), "workloads": {}}
    any_failed = False
    for workload in WORKLOADS:
        rows = []
        for r in range(args.runs):
            measured = measure(binary, workload, args.seed + r, args.scale, args.trace, 0)
            any_failed |= measured["failed"] > 0
            picked = select(measured, specs)
            rows.append({n: v for n, (_, v, _) in picked.items()})
            ratio = measured["failed"] / measured["attempted"]
            print(f"{workload:18s} {'fail_ratio':36s} {ratio:18.6f} {'ratio':6s} "
                  f"[{measured['failed']} of {measured['attempted']} checks]")
            print_metrics(workload, picked)
        saved["workloads"][workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(saved, indent=1) + "\n")
    if any_failed:
        fail("some output checks failed")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, bound, better):
    """improved / unchanged / regressed by more than `bound`, or unresolved
    when either side's spread is wider than the bound and the runs overlap."""
    pm, cm = statistics.median(parent), statistics.median(change)
    sign = 1 if better == "lower" else -1
    worse = sign * (cm - pm) / pm if pm else 0.0
    spread = 0.0
    for values, median in ((parent, pm), (change, cm)):
        q1, q3 = quartiles(values)
        spread = max(spread, (q3 - q1) / median if median else 0.0)
    separated = all(sign * (c - p) < 0 for c in change for p in parent) or \
        all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not separated:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def load_results(paths):
    """Merges the runs of saved result files, workload by workload."""
    merged = {}
    for path in paths:
        for workload, rows in json.loads(Path(path).read_text())["workloads"].items():
            merged.setdefault(workload, []).extend(rows)
    return merged


def compare(parent_paths, change_paths, spec):
    parent = load_results(parent_paths)
    change = load_results(change_paths)
    counts = {"unchanged": 0, "improved": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':18s} {'metric':18s} {'parent median [q1, q3]':>38s} "
          f"{'change median [q1, q3]':>38s}  verdict")
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        for m in spec["end_to_end"]:
            p = [row[m["name"]] for row in parent[workload] if m["name"] in row]
            c = [row[m["name"]] for row in change[workload] if m["name"] in row]
            if not p or not c:
                continue
            v = verdict(p, c, m["bound"], m["better"])
            counts[v] += 1
            cells = []
            for values in (p, c):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:18s} {m['name']:18s} {cells[0]:>38s} {cells[1]:>38s}  {v}")
    print("verdicts: " + ", ".join(f"{n} {k}" for k, n in counts.items()))
    if counts["regressed"]:
        sys.exit(1)


def repro(args, spec):
    binary = args.binary or build()
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload, want in REPRO.items():
        out = run_instance(binary, workload, 0, "paper", None, runs / f"{workload}.repro.json")
        got = out["sim"]["sim_makespan_ms"] if out else None
        good = out is not None and out["failed"] == 0 and round(got, 2) == want
        ok &= good
        print(f"{workload:18s} sim_makespan_ms {got if got is None else round(got, 2)} ms "
              f"(paper cell {want} ms): {'PASS' if good else 'FAIL'}")
    if not ok:
        sys.exit(1)


def main():
    argv = sys.argv[1:]
    mode = argv.pop(0) if argv and argv[0] in ("compare", "repro") else "run"
    if mode == "compare":
        parent = change = []
        if "--" in argv:
            cut = argv.index("--")
            parent, change = argv[:cut], argv[cut + 1:]
        elif len(argv) == 2:
            parent, change = argv[:1], argv[1:]
        if not parent or not change:
            fail("usage: run.py compare PARENT.json CHANGE.json\n"
                 "       run.py compare PARENT.json... -- CHANGE.json...")
        compare(parent, change, load_spec())
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--binary", type=Path, help="use this dsmbench binary instead of building")
    if mode == "run":
        parser.add_argument("--workload", choices=WORKLOADS)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--seconds", type=float, default=0)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--scale", choices=("smoke", "full"), default="full")
        parser.add_argument("--runs", type=int, default=1)
        parser.add_argument("--out", help="save the suite's metrics for compare mode")
    args = parser.parse_args(argv)
    spec = load_spec()
    if mode == "repro":
        repro(args, spec)
    elif args.workload:
        bench_run(args, spec)
    else:
        suite(args, spec)


if __name__ == "__main__":
    main()
