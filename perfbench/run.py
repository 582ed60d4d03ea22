#!/usr/bin/env python3
"""Pipeline ledger: build the benchmark, generate a seeded workload, measure.

Run from the repository root:

    python3 perfbench/run.py --workload fig10_follow --seed 1 --seconds 10 --trace 0

Steps, each in its own process:
  1. configure and build perfbench/ (the library under src/ plus the
     `ledger` driver) into .bench_build/ as a Release build;
  2. `ledger selftest`: the ledger's own arithmetic on synthetic timelines;
  3. `ledger gen`: simulate the workload's scenarios (independent traffic
     scenarios seeded from --seed) and write their traces, injection logs
     and sequential offline references (timed as gen_s, not a metric);
  4. `ledger run`: repeat the pipeline over every saved trace for
     --seconds, checking every pass against its reference.

Human-readable lines go first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1). `failed` / `attempted` is the failed_frac: victim checks whose
diagnosis was missing or differed from the reference. The exit code is 0
only when every check passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LEDGER = os.path.join(BUILD, "ledger")

# Hard ceilings so one run ends inside three minutes, and the first run of
# a checkout, which also builds, inside fifteen.
BUILD_TIMEOUT_S = 600
GEN_TIMEOUT_S = 50
RUN_TIMEOUT_S = 120


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def call(cmd, timeout, capture=False):
    """Run `cmd`, killing and reaping it on timeout."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, check=False,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        fail("timed out after %ss: %s" % (timeout, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Microscope sources next to perfbench/ (src/CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        r = call(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if r.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    left = max(1, int(deadline - time.monotonic()))
    r = call(["cmake", "--build", BUILD, "--target", "ledger", "-j", jobs],
             left)
    if r.returncode != 0:
        fail("build failed")


def last_json(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        fail("%s printed nothing" % what)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("%s printed no JSON result" % what)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    if call([LEDGER, "selftest"], 30).returncode != 0:
        fail("ledger selftest failed", 1)

    work = os.path.join(BUILD, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        t0 = time.monotonic()
        gen = call([LEDGER, "gen", "--workload", args.workload,
                    "--seed", str(args.seed), "--dir", work],
                   GEN_TIMEOUT_S, capture=True)
        gen_s = time.monotonic() - t0
        if gen.returncode != 0:
            fail("generator failed")
        shape = last_json(gen.stdout, "generator")

        cmd = [LEDGER, "run", "--workload", args.workload, "--dir", work,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans_dir = os.path.join(BUILD, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            cmd += ["--spans", os.path.join(
                spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
        run = call(cmd, RUN_TIMEOUT_S, capture=True)
        if run.returncode not in (0, 3):  # 3: ran, but some check failed
            fail("measurement failed")
        res = last_json(run.stdout, "ledger run")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in wanted}
    missing = [n for n in units if n not in res["metrics"]]
    if missing:
        fail("ledger did not report " + ", ".join(missing))
    attempted, failed = int(res["attempted"]), int(res["failed"])
    if attempted < 1:
        fail("no victim was checked")
    correct = failed == 0 and run.returncode == 0

    print("workload %s  seed %d  build %s  simd %s" %
          (args.workload, args.seed, res["build_type"], res["simd"]))
    print("gen_s %.3f  (generator process, not a metric; %d scenarios, "
          "%d records, %d reference victims, %.1f ms of traffic)" %
          (gen_s, shape["scenarios"], shape["records"], shape["victims"],
           shape["traffic_ms"]))
    print("repetitions %d over %d scenarios (per-scenario and per-window "
          "medians over repetitions, percentiles pooled across scenarios)" %
          (res["reps"], res["scenarios"]))
    samples = res["samples"]
    for name, unit in units.items():
        extra = ""
        if name in samples:
            extra = "  (n=%s)" % samples[name]
        print("  %-38s %14.6g %s%s" % (name, res["metrics"][name], unit, extra))
    for name, value in samples.items():
        if name not in units:
            print("  %-38s %14.6g" % (name, value))
    print("  %-38s %14.6g frac  (%d of %d victim checks failed)" %
          ("failed_frac", failed / attempted, failed, attempted))

    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": res["metrics"][n], "unit": u}
                    for n, u in units.items()},
    }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
