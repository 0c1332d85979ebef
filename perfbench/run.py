#!/usr/bin/env python3
"""Benchmark driver for the ibpower workflows.

Builds the perfbench program from source, runs one workload for a fixed
time, checks every run's output, and prints the metrics BENCHMARK.json
declares as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload gt-table3 --seed 42 --seconds 30 --trace 0

Run it from the repository root. With --trace 0 each sample is a fresh
process making the workload's timed call; the end-to-end metrics are
medians over the samples. With --trace 1 each round runs the workload
untraced, then traced, then (where it records telemetry) with telemetry
off, and the per-layer metrics are medians over the rounds.

Build outputs, the Go build cache and the packed trace files live under
.bench_build (or $CARGO_TARGET_DIR) in the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 42  # the seed whose output digests expected.json records
TIME_LIMIT = 170  # seconds a run may take, build excluded


class BenchError(Exception):
    pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise BenchError("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)
        build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        binary = build(build_dir)
        workdir = os.path.join(build_dir, "work")
        os.makedirs(workdir, exist_ok=True)
        runner = Runner(binary, workdir, args.workload, args.seed,
                        expected.get(args.workload) if args.seed == DEFAULT_SEED else None)
        if args.trace:
            result = runner.traced(args.seconds, bench["per_layer"])
        else:
            result = runner.end_to_end(args.seconds, bench["end_to_end"])
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
    print(json.dumps(result))


def build(build_dir):
    """Builds perfbench with a Go cache inside the checkout; returns the binary."""
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        raise BenchError("no go.mod at %s: run from a full ibpower checkout" % ROOT)
    build_dir = os.path.abspath(build_dir)
    env = dict(os.environ,
               GOCACHE=os.path.join(build_dir, "gocache"),
               GOPATH=os.path.join(build_dir, "gopath"),
               HOME=os.path.join(build_dir, "home"),
               XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
               XDG_CACHE_HOME=os.path.join(build_dir, "cache"),
               GOFLAGS="-mod=readonly", GOPROXY="off", GOTOOLCHAIN="local",
               GOWORK="off", CGO_ENABLED="0")
    binary = os.path.join(build_dir, "perfbench")
    try:
        done = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                              cwd=HERE, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("go build: %s" % e)
    if done.returncode != 0:
        raise BenchError("go build failed:\n" + done.stdout)
    return binary


class Runner:
    """Starts perfbench processes for one workload and checks their output."""

    def __init__(self, binary, workdir, workload, seed, expected):
        self.binary = binary
        self.workdir = workdir
        self.workload = workload
        self.seed = seed
        self.expected = expected  # digests for the default seed, else None
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.reference = None  # digests of the first sample

    def sample(self, *flags):
        """Runs one process and returns its report, or None if it errored.

        A report whose digests are wrong counts as failed but is returned:
        its timings are still measurements."""
        self.attempted += 1
        cmd = [self.binary, "-workload", self.workload, "-seed", str(self.seed),
               "-workdir", self.workdir] + list(flags)
        remaining = TIME_LIMIT - (time.monotonic() - self.start)
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            print("perfbench: %s timed out" % " ".join(cmd), file=sys.stderr)
            self.failed += 1
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            self.failed += 1
            return None
        rep = json.loads(done.stdout.strip().splitlines()[-1])
        if not self.check(rep):
            self.failed += 1
        return rep

    def check(self, rep):
        """Checks a report's digests against the expected or first ones.

        A run with telemetry off renders the same text and no time series."""
        got = {"output_sha256": rep["output_sha256"]}
        if "timeseries_sha256" in rep:
            got["timeseries_sha256"] = rep["timeseries_sha256"]
        want = self.expected or self.reference
        if want is None:
            self.reference = got
            return True
        for key, digest in got.items():
            if want.get(key) != digest:
                print("perfbench: %s %s mismatch: got %s, want %s"
                      % (self.workload, key, digest, want.get(key)), file=sys.stderr)
                return False
        return True

    def loop(self, seconds, round_fn):
        """Repeats round_fn until the next round would overrun the budget."""
        deadline = time.monotonic() + seconds
        while True:
            t = time.monotonic()
            round_fn()
            took = time.monotonic() - t
            if time.monotonic() + took > deadline:
                return

    def result(self, metrics):
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def end_to_end(self, seconds, declared):
        reports = []
        self.loop(seconds, lambda: reports.append(self.sample()))
        good = [r for r in reports if r is not None]
        if not good:
            raise BenchError("no run of %s completed" % self.workload)
        values = {
            "wall_s": [r["wall_s"] for r in good],
            "events_per_s": [r["events"] / r["wall_s"] for r in good],
            "setup_s": [r["setup_s"] for r in good],
            "alloc_mb": [r["alloc_bytes"] / 1e6 for r in good],
            "peak_rss_mb": [r["peak_rss_bytes"] / 1e6 for r in good],
        }
        return self.result(medians(values, declared))

    def traced(self, seconds, declared):
        rounds = []

        def one_round():
            base = self.sample()
            traced = self.sample("-trace")
            if base is None or traced is None:
                return
            layers = dict(traced["layers"])
            layers["bench.trace_overhead_pct"] = 100 * (traced["wall_s"] / base["wall_s"] - 1)
            layers["stats.telemetry_s"] = 0.0
            layers["stats.telemetry_pct"] = 0.0
            if "timeseries_sha256" in base:
                off = self.sample("-telemetry=false")
                if off is None:
                    return
                saved = base["wall_s"] - off["wall_s"]
                layers["stats.telemetry_s"] = saved
                layers["stats.telemetry_pct"] = 100 * saved / base["wall_s"]
            rounds.append(layers)

        self.loop(seconds, one_round)
        if not rounds:
            raise BenchError("no traced round of %s completed" % self.workload)
        return self.result(medians({k: [r[k] for r in rounds] for k in rounds[0]}, declared))


def medians(values, declared):
    """Reports the median of each declared metric, in its declared unit."""
    out = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError("no measurement for metric %s" % m["name"])
        out[m["name"]] = {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
    return out


if __name__ == "__main__":
    main()
