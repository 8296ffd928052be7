#!/usr/bin/env python3
"""Benchmark of the wmlp paging stack: one command, one JSON result line.

    python3 wmlpbench/run.py --workload mlp-zipf --seed 1 --seconds 30 --trace 0

Builds the checkout's libraries, wmlp_run, wmlp_serve and the benchmark
binary (Release, under .bench_build/), writes the workload's trace for the
seed, then measures:

  * in-process (the wmlpbench binary): set-up time, then steady-state
    windows of randomized / waterfill / landlord / lru, or with --trace 1
    the traced pass that gives the per-layer metrics;
  * the file tools: `wmlp_run --trace-stream FILE --policy waterfill` and
    `wmlp_serve --trace FILE --policy waterfill --shards 2 --clients 1`,
    timed as whole processes.

Every output is checked (see README.md); the last stdout line is
{"correct", "attempted", "failed", "metrics"}. Exits non-zero when a check
fails or anything cannot be built or run.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wmlpbench")
OUT = os.path.join(ROOT, ".bench_build", "wmlpbench-out")

WORKLOADS = ("mlp-zipf", "weighted-phases", "rw-stream")
TOOL_SEED = 1
SERVE_SHARDS = 2
SERVE_CLIENTS = 1
MIN_ROUNDS = 3  # wmlpbench measure refuses fewer
# Tool runs per round: this many requests' worth, at least one run, so the
# short files get as many samples as the long one.
TOOL_REQUESTS_PER_ROUND = 3 * 262144

UNITS = {
    "setup_s": "s",
    "randomized_rps": "req/s",
    "waterfill_rps": "req/s",
    "landlord_rps": "req/s",
    "lru_rps": "req/s",
    "run_file_rps": "req/s",
    "serve_file_rps": "req/s",
    "serve_peak_rss_mb": "MB",
    "randomized_cost_per_kreq": "cost/1000req",
    "waterfill_cost_per_kreq": "cost/1000req",
    "trace.parse_ns_per_req": "ns",
    "trace.stream_ns_per_req": "ns",
    "engine.self_ns_per_req": "ns",
    "core.fractional.serve_ns_per_req": "ns",
    "core.fractional.last_changed_ns_per_req": "ns",
    "core.fractional.changed_pages_per_req": "count",
    "core.discretize.self_ns_per_req": "ns",
    "core.discretize.changed_pages_per_req": "count",
    "core.rounding.self_ns_per_req": "ns",
    "core.rounding.reset_evictions_per_kreq": "count",
    "core.randomized.attach_ms": "ms",
    "core.waterfill.serve_ns_per_req": "ns",
    "baselines.landlord.serve_ns_per_req": "ns",
    "baselines.lru.serve_ns_per_req": "ns",
    "server.serve_ns_per_req": "ns",
    "tracing.randomized_overhead_pct": "%",
}
END_TO_END = ("setup_s", "randomized_rps", "waterfill_rps", "landlord_rps",
              "lru_rps", "run_file_rps", "serve_file_rps",
              "serve_peak_rss_mb", "randomized_cost_per_kreq",
              "waterfill_cost_per_kreq")


class CheckError(Exception):
    pass


def log(msg):
    print("wmlpbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "wmlpbench", "wmlp_run", "wmlp_serve"],
                   check=True, stdout=sys.stderr)


def binary(name):
    if name == "wmlpbench":
        return os.path.join(BUILD, "wmlpbench")
    return os.path.join(BUILD, "wmlp", "tools", name)


def run_tool(argv):
    """Runs argv to completion; returns (output, wall seconds, peak RSS MB).
    The child is reaped with wait4 so its own peak RSS can be read."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise CheckError("%s exited %d: %s" % (os.path.basename(argv[0]),
                                               proc.returncode, out.strip()))
    return out, wall, usage.ru_maxrss / 1024.0


# ---- Tool output checks ---------------------------------------------------

def _field(out, pattern, what):
    m = re.search(pattern, out, re.MULTILINE)
    if m is None:
        raise CheckError("tool output lacks " + what)
    return m


def check_min_bound(evictions, cost, ref, who):
    forced = max(0, ref["min_faults_file"] - ref["k"])
    if evictions < forced:
        raise CheckError("%s: evictions %d below MIN faults - k = %d"
                         % (who, evictions, forced))
    # Costs are printed with two decimals.
    if cost + 0.005 < ref["w_min"] * forced:
        raise CheckError("%s: eviction cost %.2f below w_min * (MIN - k)"
                         % (who, cost))


def check_run_output(out, path, ref):
    """wmlp_run --trace-stream: names waterfill, the file and the request
    count; its cost equals the in-process engine's on the same file."""
    m = _field(out, r"^policy (\S+) on (.+) \(streamed, (\d+) requests\)$",
               "the policy/file/requests line")
    if m.group(1) != "waterfill":
        raise CheckError("wmlp_run ran policy '%s', not waterfill"
                         % m.group(1))
    if m.group(2) != path:
        raise CheckError("wmlp_run read '%s', not %s" % (m.group(2), path))
    if int(m.group(3)) != ref["requests"]:
        raise CheckError("wmlp_run served %s requests, not %d"
                         % (m.group(3), ref["requests"]))
    cost = _field(out, r"^  eviction cost: (\S+)$", "the cost line").group(1)
    if cost != ref["waterfill_file_cost"]:
        raise CheckError("wmlp_run cost %s != in-process engine cost %s"
                         % (cost, ref["waterfill_file_cost"]))
    ev = int(_field(out, r"^  evictions:\s+(\d+)$", "evictions").group(1))
    if ev != ref["waterfill_file_evictions"]:
        raise CheckError("wmlp_run evictions %d != in-process %d"
                         % (ev, ref["waterfill_file_evictions"]))
    check_min_bound(ev, float(cost), ref, "wmlp_run")
    return cost


def check_serve_output(out, path, ref):
    """wmlp_serve: names waterfill, the file, the request count and the
    shard/client layout; its totals respect the MIN lower bound."""
    m = _field(out, r"^policy (\S+) on (.+) \((\d+) requests, ",
               "the policy/file/requests line")
    if m.group(1) != "waterfill":
        raise CheckError("wmlp_serve ran policy '%s', not waterfill"
                         % m.group(1))
    if m.group(2) != path:
        raise CheckError("wmlp_serve read '%s', not %s" % (m.group(2), path))
    if int(m.group(3)) != ref["requests"]:
        raise CheckError("wmlp_serve served %s requests, not %d"
                         % (m.group(3), ref["requests"]))
    lay = _field(out, r"^  shards=(\d+) clients=(\d+) ", "the layout line")
    if (int(lay.group(1)), int(lay.group(2))) != (SERVE_SHARDS,
                                                  SERVE_CLIENTS):
        raise CheckError("wmlp_serve ran shards=%s clients=%s"
                         % lay.groups())
    cost = _field(out, r"^  eviction cost: (\S+)$", "the cost line").group(1)
    ev = int(_field(out, r"^  evictions:\s+(\d+)$", "evictions").group(1))
    check_min_bound(ev, float(cost), ref, "wmlp_serve")
    return cost


def self_test():
    """Shows each tool-output check fires on a corrupted output."""
    ref = {"requests": 1000, "waterfill_file_cost": "120.00",
           "waterfill_file_evictions": 120, "min_faults_file": 130, "k": 10,
           "w_min": 1.0}
    run_ok = ("policy waterfill on t.wmlp (streamed, 1000 requests)\n"
              "  eviction cost: 120.00\n  hit rate:      0.5000\n"
              "  evictions:     120\n")
    serve_ok = ("policy waterfill on t.wmlp (1000 requests, Instance(...))\n"
                "  shards=2 clients=1 batch=256 engine-batch=256 seed=1\n"
                "  eviction cost: 130.00\n  hit rate:      0.5000\n"
                "  evictions:     125\n")
    check_run_output(run_ok, "t.wmlp", ref)
    check_serve_output(serve_ok, "t.wmlp", ref)
    corrupt = [
        # What `wmlp_run --policies waterfill` prints: the misspelt flag is
        # ignored and the default policy runs.
        (check_run_output, run_ok.replace("waterfill", "lru")),
        (check_run_output, run_ok.replace("t.wmlp", "u.wmlp")),
        (check_run_output, run_ok.replace("1000 requests", "999 requests")),
        (check_run_output, run_ok.replace("cost: 120.00", "cost: 121.00")),
        (check_run_output, run_ok.replace("120\n", "119\n")),
        (check_serve_output, serve_ok.replace("waterfill", "landlord")),
        (check_serve_output, serve_ok.replace("shards=2", "shards=4")),
        (check_serve_output, serve_ok.replace("125\n", "119\n")),
        (check_serve_output, serve_ok.replace("130.00", "110.00")),
    ]
    for i, (check, out) in enumerate(corrupt):
        try:
            check(out, "t.wmlp", ref)
        except CheckError:
            continue
        raise CheckError("tool check %d did not fire on a corrupted output"
                         % i)


# ---- The run --------------------------------------------------------------

class Tools:
    """The file tools: alternating wmlp_run / wmlp_serve process runs."""

    def __init__(self, path, ref):
        self.path, self.ref = path, ref
        self.run_argv = [binary("wmlp_run"), "--trace-stream", path,
                         "--policy", "waterfill", "--seed", str(TOOL_SEED)]
        self.serve_argv = [binary("wmlp_serve"), "--trace", path, "--policy",
                           "waterfill", "--shards", str(SERVE_SHARDS),
                           "--clients", str(SERVE_CLIENTS), "--seed",
                           str(TOOL_SEED)]
        self.run_walls, self.serve_walls, self.rss = [], [], []
        self.serve_cost = None

    def rep(self):
        out, wall, _ = run_tool(self.run_argv)
        check_run_output(out, self.path, self.ref)
        self.run_walls.append(wall)
        out, wall, peak = run_tool(self.serve_argv)
        cost = check_serve_output(out, self.path, self.ref)
        if self.serve_cost is not None and cost != self.serve_cost:
            raise CheckError("wmlp_serve cost differs between identical runs:"
                             " %s vs %s" % (self.serve_cost, cost))
        self.serve_cost = cost
        self.serve_walls.append(wall)
        self.rss.append(peak)

    def metrics(self):
        n = self.ref["requests"]
        return {"run_file_rps": n / min(self.run_walls),
                "serve_file_rps": n / min(self.serve_walls),
                # A server's peak RSS depends on how far the client runs
                # ahead of the shards (67-83 MB on rw-stream); the largest
                # over the run repeats between runs, a median does not.
                "serve_peak_rss_mb": max(self.rss)}

    def attempted(self):
        return self.ref["requests"] * (len(self.run_walls) +
                                       len(self.serve_walls))


def cold_setup(workload, path):
    """One more cold set-up, in a fresh process: seconds from its spawn until
    the trace is in memory and every policy is attached."""
    t0 = time.monotonic_ns()  # wmlpbench's steady_clock is the same clock
    out = subprocess.run([binary("wmlpbench"), "setup", "--workload",
                          workload, "--file", path, "--t0-ns", str(t0)],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return float(out.split()[-1])


def measure(workload, path, seconds, trace):
    """Runs `wmlpbench measure` and drives its rounds (timed repetitions under
    --trace 0, traced ones under --trace 1) until `seconds` have passed, at
    least MIN_ROUNDS of them. Under --trace 0 each file tool runs after
    every round, so that every timed figure samples the whole run; under
    --trace 1 each tool runs once, for its checks. Under --trace 0 one
    more cold set-up also runs after every round, and setup_s is the
    fastest of these and its own. Returns (its result, Tools)."""
    argv = [binary("wmlpbench"), "measure", "--workload", workload,
            "--file", path, "--trace", str(trace),
            "--spans-out", os.path.join(OUT, workload + ".spans.tsv")]
    t0 = time.monotonic_ns()  # wmlpbench's steady_clock is the same clock
    proc = subprocess.Popen(argv + ["--t0-ns", str(t0)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    tools = None
    setups = []
    try:
        line = proc.stdout.readline()
        if line.startswith("ready "):
            tools = Tools(path, json.loads(line[len("ready "):]))
            tool_reps = 0 if trace else max(
                1, TOOL_REQUESTS_PER_ROUND // tools.ref["requests"])
            start = time.perf_counter()
            rounds = 0
            while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
                proc.stdin.write("round\n")
                proc.stdin.flush()
                if proc.stdout.readline().strip() != "ok":
                    break
                for _ in range(tool_reps):
                    tools.rep()
                if not trace:
                    setups.append(cold_setup(workload, path))
                rounds += 1
        proc.stdin.close()
        rest = proc.stdout.read()
    finally:
        if not proc.stdin.closed:
            proc.stdin.close()
        proc.wait()
    lines = (line + rest).strip().splitlines()
    if not lines:
        raise CheckError("wmlpbench printed nothing (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise CheckError("wmlpbench checks failed: " +
                         "; ".join(result.get("errors", [])))
    if not tools.run_walls:
        tools.rep()
    if setups:
        result["metrics"]["setup_s"] = min([result["metrics"]["setup_s"]] +
                                           setups)
    return result, tools


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build()
    os.makedirs(OUT, exist_ok=True)
    subprocess.run([binary("wmlpbench"), "selftest"], check=True,
                   stdout=sys.stderr)
    self_test()

    path = os.path.join(OUT, args.workload + ".wmlp")
    subprocess.run([binary("wmlpbench"), "gen", "--workload", args.workload,
                    "--seed", str(args.seed), "--out", path], check=True)

    result, tools = measure(args.workload, path, args.seconds, args.trace)
    metrics = dict(result["metrics"])
    metrics.update(tools.metrics())
    attempted = result["attempted"] + tools.attempted()

    names = (END_TO_END if args.trace == 0
             else [n for n in UNITS if n not in END_TO_END])
    missing = [n for n in names if n not in metrics]
    if missing:
        raise CheckError("metrics not measured: " + ", ".join(missing))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]}
                    for n in names},
    }))


if __name__ == "__main__":
    try:
        main()
    except (CheckError, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        sys.exit(1)
