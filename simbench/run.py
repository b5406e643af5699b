#!/usr/bin/env python3
"""WindServe simulator benchmark.

Builds the simulator from source (the C++ program in this directory links
the library under ../src) and runs one workload in its own process:

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times the workload and reports the end-to-end metrics of
BENCHMARK.json; --trace 1 makes the separate traced run and reports the
per-layer metrics. Both print a table of every metric with its unit,
then, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.

Correctness: every simulated request counts as attempted. A request
that did not finish (or was aborted) counts as failed, and so does every
request of a run whose harness::result_checksum, finished count or
event count differs from the reference: the first run of the process,
and the value recorded in expected.json when the seed has one.

    python3 simbench/run.py --record

replays every workload once on the default seed (42), the held-out seed
(1729) and seeds 1-20, and rewrites expected.json. Do that only for a
change that is meant to alter simulated results.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
BINARY = os.path.join(BUILD, "simbench")
EXPECTED = os.path.join(HERE, "expected.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ["cluster512_chat", "pod8_longbench_3sys", "cluster64_ctrl_chaos"]
DEFAULT_SEED = 42
HELD_OUT_SEED = 1729
RECORDED_SEEDS = [DEFAULT_SEED, HELD_OUT_SEED] + list(range(1, 21))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def simbench(workload, seed, seconds, trace, iterations=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if iterations:
        cmd += ["--iterations", str(iterations)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def fingerprint(rec):
    return {k: rec[k] for k in ("checksum", "finished", "events")}


class Gate:
    """Counts attempted and failed simulated requests across runs."""

    def __init__(self, workload, seed):
        self.expected = load_expected().get(workload, {}).get(str(seed), {})
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, label, rec):
        system = rec["system"]
        got = fingerprint(rec)
        ref = self.reference.setdefault(system, got)
        want = self.expected.get(system)
        self.attempted += rec["requests"]
        bad = rec["unfinished"] + rec["aborted"]
        if got != ref:
            self.errors.append(f"{label} {system}: {got} != first run {ref}")
            bad = rec["requests"]
        elif want is not None and got != want:
            self.errors.append(f"{label} {system}: {got} != recorded {want}")
            bad = rec["requests"]
        self.failed += bad


def timed_metrics(raw):
    """End-to-end metrics from a timed run. The first iteration warms
    the heap and is checked but not timed."""
    iters = raw["iterations"]
    timed = iters[1:] if len(iters) > 1 else iters
    req_rate, ev_rate, setup = [], [], []
    for it in timed:
        run_s = sum(r["run_s"] for r in it["runs"])
        req_rate.append(sum(r["finished"] for r in it["runs"]) / run_s)
        ev_rate.append(sum(r["events"] for r in it["runs"]) / run_s)
    for it in iters:
        setup.append(it["make_trace_s"] +
                     sum(r["make_system_s"] for r in it["runs"]))
    setup += raw["setups"]
    first = iters[0]["runs"][0]
    rss_bytes = raw["peak_rss_kb"] * 1024.0
    return {
        "sim_requests_per_s": statistics.median(req_rate),
        "events_per_s": statistics.median(ev_rate),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_bytes / (1024.0 * 1024.0),
        "peak_rss_bytes_per_request": rss_bytes / first["requests"],
        "sim.ttft_p99_s": first["ttft_p99_s"],
        "sim.slo_attainment": first["slo_attainment"],
    }


def run_workload(args, spec):
    build()
    gate = Gate(args.workload, args.seed)
    if args.trace:
        raw = simbench(args.workload, args.seed, args.seconds, 1)
        for rep in raw["replays"]:
            gate.check(rep["label"], rep["record"])
        gate.errors += raw["errors"]
        values = raw["metrics"]
        wanted = spec["per_layer"]
    else:
        raw = simbench(args.workload, args.seed, args.seconds, 0)
        for i, it in enumerate(raw["iterations"]):
            for rec in it["runs"]:
                gate.check(f"iteration {i}", rec)
        values = timed_metrics(raw)
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise SystemExit(f"simbench: metric {m['name']} not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for e in gate.errors:
        log("simbench: CHECK FAILED:", e)
    for name, mv in metrics.items():
        print(f"{name:36s} {mv['value']:>22.10g} {mv['unit']}")
    print(json.dumps({
        "correct": not gate.errors and gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))


def record(seeds):
    build()
    table = {}
    for w in WORKLOADS:
        table[w] = {}
        for seed in seeds:
            raw = simbench(w, seed, 1.0, 0, iterations=1)
            table[w][str(seed)] = {r["system"]: fingerprint(r)
                                   for r in raw["iterations"][0]["runs"]}
            log(f"recorded {w} seed {seed}")
    with open(EXPECTED, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite expected.json from fresh replays")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if args.record:
        record(RECORDED_SEEDS)
        return
    if not args.workload:
        p.error("--workload is required")
    with open(SPEC) as f:
        spec = json.load(f)
    run_workload(args, spec)


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log("simbench:", e)
        sys.exit(1)
