#!/usr/bin/env python3
"""Run the pipeline benchmark binary and summarise its results.

run.sh builds pipeline_bench and hands over to this script; see
README.md for the workloads and metrics. Modes:

  --workload W            one run; the last stdout line is the result
                          JSON ({"correct", "attempted", "failed",
                          "metrics"})
  (no --workload)         every workload in turn
  --repeat N              N runs per workload on seeds seed..seed+N-1;
                          prints median and quartiles per metric and
                          flags spreads wider than the metric's bound
  --bless                 full untraced and traced runs of every
                          workload, written with provenance to
                          results/BENCH_pipeline_seed<N>.json and
                          appended to results/history.jsonl

An untraced run's setup_s is the median over SETUP_SAMPLES processes:
the measured one and SETUP_SAMPLES - 1 that only set up.
"""

import argparse
import datetime
import json
import os
import platform
import socket
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["gpm_warm", "fsm_cold", "tensor_uncached", "mixed_service"]
SETUP_SAMPLES = 5
RESULTS = os.path.join(HERE, "results")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--bin", required=True, help="pipeline_bench binary")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--bless", action="store_true")
    p.add_argument("--out", default=os.path.join("build", "bench_pipeline"))
    return p.parse_args()


def run_binary(args, workload, seed, flags):
    """One pipeline_bench process: (last stdout line as JSON, the lines
    before it), or (None, ..) when it crashed or printed no JSON."""
    cmd = [args.bin, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--out", args.out] + flags
    if args.smoke:
        cmd.append("--smoke")
    p = subprocess.run(cmd, capture_output=True, text=True, check=False)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), lines[:-1]
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(p.stdout)
        return None, lines


def run_once(args, workload, seed, trace, echo=True):
    """One benchmark run; returns its result object (None on a crash)."""
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup, _ = run_binary(args, workload, seed, ["--setup-only"])
            if setup is None:
                return None
            setups.append(setup["setup_s"])
    result, lines = run_binary(args, workload, seed,
                               ["--trace", str(trace)])
    if result is None or "metrics" not in result:
        return None
    if echo:
        print("\n".join(lines))
    if setups:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        if echo:
            print("  setup_s is the median of %d set-ups: %s" % (
                len(setups), " ".join("%.4f" % s for s in setups)))
    return result


def bounds():
    """Metric bounds from BENCHMARK.json (empty when absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def repeat(args, workloads):
    limits = bounds()
    ok = True
    for w in workloads:
        runs = []
        for i in range(args.repeat):
            r = run_once(args, w, args.seed + i, args.trace, echo=False)
            if r is None or not r["correct"]:
                ok = False
            if r is not None:
                runs.append(r)
        print("%s: %d runs, seeds %d..%d" % (w, len(runs), args.seed,
                                             args.seed + args.repeat - 1))
        print("  %-30s %14s %14s %14s %8s %7s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, m in runs[0]["metrics"].items() if runs else []:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = limits.get(name)
            flag = ""
            if bound is not None and spread > bound and name != "setup_s":
                flag = "UNRESOLVED"
                ok = False
            print("  %-30s %14.6g %14.6g %14.6g %7.2f%% %7s %s %s" % (
                name, med, q1, q3, 100 * spread,
                "" if bound is None else "%.0f%%" % (100 * bound),
                m["unit"], flag))
    return ok


def provenance(args):
    def git(*cmd):
        try:
            return subprocess.run(["git", "-C", ROOT] + list(cmd),
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build = json.loads(subprocess.run([args.bin, "--build-info"],
                                      capture_output=True, text=True,
                                      check=True).stdout)
    status = git("status", "--porcelain")
    return {
        "host": socket.gethostname(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "compiler": build["compiler"],
        "build_type": build["build_type"],
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "seed": args.seed,
        "seconds": args.seconds,
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def bless(args):
    if args.smoke:
        sys.exit("run.sh: --bless refuses --smoke; blessed results are "
                 "full runs")
    stamp = provenance(args)
    results = {}
    ok = True
    for w in WORKLOADS:
        results[w] = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = run_once(args, w, args.seed, trace)
            if r is None or not r["correct"]:
                ok = False
                continue
            results[w][kind] = r
    if not ok:
        print("run.sh: a run failed; nothing blessed", file=sys.stderr)
        return False
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "BENCH_pipeline_seed%d.json" % args.seed)
    with open(path, "w") as f:
        json.dump({"provenance": stamp, "workloads": results}, f, indent=1)
        f.write("\n")
    headline = {w: {k: v["value"] for k, v in
                    results[w]["end_to_end"]["metrics"].items()}
                for w in WORKLOADS}
    with open(os.path.join(RESULTS, "history.jsonl"), "a") as f:
        f.write(json.dumps({"provenance": stamp, "end_to_end": headline})
                + "\n")
    print("blessed %s" % os.path.relpath(path, ROOT))
    return True


def main():
    args = parse_args()
    if args.bless:
        sys.exit(0 if bless(args) else 1)
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.repeat:
        sys.exit(0 if repeat(args, workloads) else 1)
    ok = True
    result = None
    for w in workloads:
        result = run_once(args, w, args.seed, args.trace)
        ok = ok and result is not None and result["correct"]
    if args.workload and result is not None:
        print(json.dumps(result))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
