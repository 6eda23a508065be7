"""diffwedge benchmark: one closed-loop client in one process and thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each request is what one ``diffeo`` invocation does minus argument
parsing (``cli.load_config`` -> ``cli.run`` -> ``cli.render_report``), or
for ``bundle-dual`` the library calls ``dual_bundle(tensor_product(V, W))``
and ``dual_bundle(direct_sum(V, W))``.  A request starts only after the
previous one finished; inputs come from ``workloads.py`` and every output
passes through ``gate.py``.

A run is a fixed number of whole workload cycles, set by ``--seconds``
and the time a cycle took at the commit that defined the benchmark.  Every
run therefore does the same work in the same mix on every commit, and its
percentiles fall at the same places of that mix whatever the machine's
speed.  ``--requests N`` runs exactly N requests instead.

``--trace 0`` measures the end-to-end metrics: import time in fresh
processes, then the requests.  ``--trace 1`` runs fewer cycles once
without tracing in a child process and once traced here, and prints the
per-layer metrics; spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl.gz``.

The metric names and units printed are those of ``BENCHMARK.json``.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gate
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_RUNS = 11
# Seconds per workload cycle, untraced and traced: a run covers one cycle
# per this many seconds of --seconds.  Untraced figures are the cycle times
# at the defining commit, a little rounded up; traced runs cover fewer
# cycles, so that with tracing's probes they stay well inside the time limit.
CYCLE_SECONDS = {"glued-check": 9, "dirac-eval": 2.8, "fibre-algebra": 4,
                 "bundle-dual": 1.1}
TRACE_CYCLE_SECONDS = {"glued-check": 20, "dirac-eval": 20,
                       "fibre-algebra": 20, "bundle-dual": 10}

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t = time.perf_counter()
import diffwedge.cli
elapsed = time.perf_counter() - t
if not diffwedge.cli.__file__.startswith({src!r}):
    sys.exit("imported diffwedge from outside the checkout")
print(elapsed)
"""


def load_package():
    """Import diffwedge from this checkout's src/, or exit without a result."""
    if not (SRC / "diffwedge" / "__init__.py").is_file():
        sys.exit(f"error: no diffwedge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import diffwedge
    from diffwedge import bundle, cli, dvspace, symexpr, wedge
    if not diffwedge.__file__.startswith(str(SRC)):
        sys.exit(f"error: imported diffwedge from {diffwedge.__file__}")
    return argparse.Namespace(bundle=bundle, cli=cli, dvspace=dvspace,
                              symexpr=symexpr, wedge=wedge)


class Runner:
    """Prepares, runs and checks the requests of one (workload, seed)."""

    def __init__(self, pkg, workload, seed, config_path, golden=None):
        self.pkg, self.workload, self.seed = pkg, workload, seed
        self.config_path = config_path
        self.gate = gate.Gate(workload, seed,
                              gate.load_golden() if golden is None else golden)
        self.evaluate = pkg.symexpr.evaluate   # untraced, for the gate

    def prepare(self, index):
        req = workloads.request(self.workload, self.seed, index)
        if req["kind"] == "cli":
            self.config_path.write_text(json.dumps(req["config"]))
        return req

    def run(self, req):
        """The timed part of a request: (seconds, outputs or exception)."""
        t0 = perf_counter()
        try:
            out = self._cli(req) if req["kind"] == "cli" else self._bundle(req)
        except Exception as exc:  # a raising request is a failed request
            return perf_counter() - t0, exc
        return perf_counter() - t0, out

    def _cli(self, req):
        cli = self.pkg.cli
        try:
            cfg = cli.load_config(str(self.config_path))
            report, code = cli.run(req["command"], cfg, req["run_seed"])
        except (cli.ConfigError, self.pkg.symexpr.ExprSyntaxError):
            return "", 2
        return cli.render_report(report), code

    def _bundle(self, req):
        b, models = self.pkg.bundle, self.pkg.dvspace
        base = self.pkg.wedge.line("a")
        v, w = (b.trivial_bundle(base, {"a": models.standard_model(len(m))},
                                 {"a": m}) for m in (req["v"], req["w"]))
        tensor, total = b.tensor_product(v, w), b.direct_sum(v, w)
        return [(tensor, b.dual_bundle(tensor)), (total, b.dual_bundle(total))]

    def check(self, index, req, out):
        """None when the outputs pass the gate, else the reason."""
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        if req["kind"] == "cli":
            return self.gate.check_cli(index, *out)
        # one point per request keeps the check's cost near the request's own
        x = gate.IDENTITY_POINTS[index % len(gate.IDENTITY_POINTS)]
        for bun, dual in out:
            try:
                reason = gate.check_inverse(self.evaluate, bun.metrics["a"],
                                            dual.metrics["a"], x)
            except ArithmeticError as exc:
                reason = f"inverse check raised {type(exc).__name__}: {exc}"
            if reason:
                return reason
        return None

    def execute(self, index):
        req = self.prepare(index)
        elapsed, out = self.run(req)
        return elapsed, self.check(index, req, out)


class Tally:
    def __init__(self):
        self.latencies, self.failures = [], []

    def add(self, index, elapsed, reason):
        self.latencies.append(elapsed)
        if reason is not None:
            self.failures.append((index, reason))
            print(f"request {index} failed: {reason}", file=sys.stderr)

    @property
    def attempted(self):
        return len(self.latencies)

    def throughput(self):
        """Requests per second of the timed phase (the requests' summed time)."""
        return len(self.latencies) / sum(self.latencies)


def tail(latencies):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with fewer than eleven
    samples no such percentile exists and the maximum is returned.
    """
    lat = sorted(latencies)
    k = len(lat) - 11 if len(lat) > 10 else len(lat) - 1
    return lat[k], 100.0 * (k + 1) / len(lat), len(lat) - k - 1


def measure_setup():
    """Median time to import diffwedge.cli in a fresh interpreter."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for i in range(SETUP_RUNS + 1):      # the first run warms the bytecode cache
        out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                             capture_output=True, text=True, timeout=60)
        if i:
            times.append(float(out.stdout))
    return statistics.median(times)


def end_to_end(runner, count):
    setup = measure_setup()
    runner.execute(-1)                   # warm-up request, not counted
    tally = Tally()
    for index in range(count):
        tally.add(index, *runner.execute(index))
    value, pct, beyond = tail(tally.latencies)
    n = tally.attempted
    print(f"{n} requests; latency_p50_ms over {n} samples; latency_tail_ms "
          f"is p{pct:.1f} with {beyond} beyond it")
    metrics = {
        "setup_s": setup,
        "throughput_rps": tally.throughput(),
        "latency_p50_ms": 1e3 * statistics.median(tally.latencies),
        "latency_tail_ms": 1e3 * value,
        "pass_ratio": (n - len(tally.failures)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally, metrics


def run_requests(workload, seconds, cycle_seconds):
    """Requests in a run: whole cycles, one per cycle_seconds[workload]."""
    cycles = max(1, round(seconds / cycle_seconds[workload]))
    return cycles * workloads.CYCLE[workload]


def traced(runner, args):
    count = args.requests or run_requests(args.workload, args.seconds,
                                          TRACE_CYCLE_SECONDS)
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--requests", str(count), "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        sys.exit(f"error: untraced pass exited {child.returncode}")
    base = json.loads(child.stdout.splitlines()[-1])
    runner.execute(-1)                   # warm-up request, not counted
    tracer = Tracer()
    tally = Tally()
    for index in range(count):
        req = runner.prepare(index)
        with tracer:
            tracer.begin_request(index)
            elapsed, out = runner.run(req)
            tracer.end_request()
        tally.add(index, elapsed, runner.check(index, req, out))
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (
        tally.throughput() / base["metrics"]["throughput_rps"]["value"])
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write_spans(spans)
    print(f"{count} traced requests; {len(tracer.spans)} spans in {spans}")
    return tally, metrics, base


def emit(correct, attempted, failed, values, declared):
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in values:
            sys.exit(f"error: no value for declared metric {name}")
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print(f"{name:44s} {values[name]:>14.6g} {spec['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=0,
                        help="run exactly this many requests")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pkg = load_package()
    WORK.mkdir(exist_ok=True)
    config_path = WORK / f"request-{os.getpid()}.json"
    runner = Runner(pkg, args.workload, args.seed, config_path)
    try:
        if args.trace:
            tally, values, base = traced(runner, args)
            declared = bench["per_layer"]
            attempted = tally.attempted + base["attempted"]
            failed = len(tally.failures) + base["failed"]
        else:
            count = args.requests or run_requests(args.workload, args.seconds,
                                                  CYCLE_SECONDS)
            tally, values = end_to_end(runner, count)
            declared = bench["end_to_end"]
            attempted, failed = tally.attempted, len(tally.failures)
    finally:
        config_path.unlink(missing_ok=True)
    emit(failed == 0, attempted, failed, values, declared)


if __name__ == "__main__":
    main()
