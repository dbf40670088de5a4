#!/usr/bin/env python3
"""The sldm benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        Builds perfbench from source into .bench_build/ (first run only),
        runs one workload, and forwards its output; the last line is the
        JSON result.

    python3 perfbench/run.py --repeat <n> --workload <name> [--first-seed <k>]
                             [--seconds <s>] [--save <set.json>]
        Runs the workload n times with seeds k, k+1, ... and prints each
        end-to-end metric's median, quartiles and spread (quartile
        distance over median) -- the numbers the bounds in BENCHMARK.json
        are set from.  --save keeps the results for --compare.

    python3 perfbench/run.py --compare <first.json> <second.json>
        Compares two saved sets of one workload: both medians and spreads
        of every end-to-end metric, how much worse the second median is,
        and whether the answer digests match seed for seed.  Exits 1 when
        a spread (setup_s aside) or that change exceeds the metric's
        bound in BENCHMARK.json.

    python3 perfbench/run.py --self-test
        Builds and runs the benchmark's own unit tests.

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TARGETS = ["perfbench", "perfbench_test"]


def build():
    """Configures once, then builds incrementally; logs go to stderr."""
    if not (BUILD / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j4", "--target", *TARGETS],
        stdout=sys.stderr, check=True)


def clean_env():
    """The caller's ledger and failpoint settings must not reach the run."""
    env = dict(os.environ)
    env.pop("SLDM_LEDGER", None)
    env.pop("SLDM_FAILPOINTS", None)
    return env


def run_once(workload, seed, seconds, trace, capture=False):
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, env=clean_env(), text=True,
                          stdout=subprocess.PIPE if capture else None)


def summarize(values):
    """Median, quartiles and spread (quartile distance over median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def repeat(workload, runs, first_seed, seconds, save):
    results = []
    for i in range(runs):
        seed = first_seed + i
        proc = run_once(workload, seed, seconds, 0, capture=True)
        lines = proc.stdout.strip().splitlines()
        digest = next((l.split()[-1] for l in lines
                       if l.strip().startswith("answer digest")), "?")
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}")
            sys.stdout.write(proc.stdout)
            return 1
        result = json.loads(lines[-1])
        results.append({"seed": seed, "digest": digest, **result})
        values = "  ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"digest={digest}  {values}", flush=True)
    print(f"\n{workload}: {runs} runs")
    print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>10}")
    for name, first in results[0]["metrics"].items():
        med, q1, q3, spread = summarize(
            [r["metrics"][name]["value"] for r in results])
        print(f"  {name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{100 * spread:>9.2f}%  {first['unit']}")
    if save:
        Path(save).write_text(json.dumps(
            {"workload": workload, "seconds": seconds, "runs": results},
            indent=1) + "\n")
    return 0


def compare(first, second):
    """Checks two saved sets of one workload against BENCHMARK.json: each
    spread (setup_s aside) within its bound, the second median no worse
    than the first by more than the bound, and equal digests per seed."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(p).read_text()) for p in (first, second))
    ok = True
    digests = {r["seed"]: r["digest"] for r in a["runs"]}
    for r in b["runs"]:
        if r["seed"] in digests and digests[r["seed"]] != r["digest"]:
            print(f"seed {r['seed']}: answer digest differs")
            ok = False
    print(f"{a['workload']}: {len(a['runs'])} / {len(b['runs'])} runs")
    print(f"  {'metric':<14}{'median A':>12}{'median B':>12}"
          f"{'spread A':>10}{'spread B':>10}{'B vs A':>9}{'bound':>7}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        ma, _, _, sa = summarize([r["metrics"][name]["value"]
                                  for r in a["runs"]])
        mb, _, _, sb = summarize([r["metrics"][name]["value"]
                                  for r in b["runs"]])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        bad = worse > bound or (name != "setup_s" and max(sa, sb) > bound)
        ok = ok and not bad
        print(f"  {name:<14}{ma:>12.5g}{mb:>12.5g}{100 * sa:>9.1f}%"
              f"{100 * sb:>9.1f}%{100 * worse:>8.1f}%{100 * bound:>6.0f}%"
              f"{'  FAIL' if bad else ''}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([str(BUILD / "perfbench_test")]).returncode
    if not args.workload:
        p.error("--workload is required")
    if args.repeat:
        return repeat(args.workload, args.repeat, args.first_seed,
                      args.seconds, args.save)
    return run_once(args.workload, args.seed, args.seconds,
                    args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
