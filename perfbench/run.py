#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

The first form builds perfbench/main.exe with dune (from source, inside
the checkout) and runs one workload; the last line it prints is the
result JSON.  The pool size is set to min(2, cores) through ZKDET_DOMAINS.

--selfcheck runs every workload at its tiny size with --trace 0 and 1 and
asserts that each prints every metric BENCHMARK.json names, with its unit,
and that every operation's check passed.
"""

import json
import math
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
MAX_DOMAINS = 2


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    # --root . keeps dune from adopting a project above the checkout; the
    # shared cache is off so the build writes only inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % proc.returncode)


def run_exe(args, capture=False):
    nproc = cores()
    env = dict(os.environ, ZKDET_DOMAINS=str(min(MAX_DOMAINS, nproc)))
    env.pop("ZKDET_PROFILE", None)
    env.pop("ZKDET_TRACE", None)
    cmd = [EXE] + args + ["--nproc", str(nproc)]
    if capture:
        return subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=170)
    return subprocess.run(cmd, env=env, timeout=170)


def check_result(stdout, want):
    """Problems with one run's output: its result line must be well formed,
    all checks must pass, and it must carry exactly the metrics in [want]
    (name -> unit), each a finite number with that unit."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return ["result keys %s" % sorted(result)]
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append("checks failed (%d of %d)" %
                        (result["failed"], result["attempted"]))
    got = result["metrics"]
    if sorted(got) != sorted(want):
        problems.append("metrics differ: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for metric, unit in want.items():
        m = got.get(metric, {})
        v = m.get("value")
        if m and m.get("unit") != unit:
            problems.append("%s has unit %r, want %r" % (metric, m.get("unit"), unit))
        if m and (not isinstance(v, (int, float)) or not math.isfinite(v)):
            problems.append("%s value %r" % (metric, v))
    return problems


def selfcheck():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failed = False
    for wl in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = "%s --trace %s" % (wl["name"], trace)
            proc = run_exe(["--workload", wl["name"], "--seed", "1",
                            "--seconds", "1", "--trace", trace, "--tiny"],
                           capture=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            problems = check_result(proc.stdout, want)
            if proc.returncode != 0:
                problems.insert(0, "exit %d" % proc.returncode)
            print("selfcheck %-28s %s" % (name, "ok" if not problems else "FAIL"),
                  flush=True)
            for p in problems:
                print("  " + p)
            failed = failed or bool(problems)
    return 1 if failed else 0


def main():
    if not os.path.isdir("lib") or not os.path.isfile("perfbench/dune"):
        sys.exit("perfbench: run from the root of a repository checkout")
    build()
    if sys.argv[1:] == ["--selfcheck"]:
        sys.exit(selfcheck())
    sys.exit(run_exe(sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
