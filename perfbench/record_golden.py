"""Record the golden report digests of the default seeds.

    python3 perfbench/record_golden.py [--workload NAME ...]

For each CLI workload and each seed in ``gate.DEFAULT_SEEDS`` this runs
the first ``GOLDEN_REQUESTS[workload]`` requests, requires each to pass the
generic gate (exit 0, no failed verdict), and stores the digest of its
rendered report with its exit code in ``golden.json``.  Run it only on a
commit whose reports are the reference; benchmark runs of the default
seeds then fail any request whose report differs by a byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import gate
import run

# more requests per seed than a timed run of BENCHMARK.json's run_seconds
# reaches at the recording commit; later indices use the generic gate
GOLDEN_REQUESTS = {"glued-check": 63, "dirac-eval": 176, "fibre-algebra": 90}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(GOLDEN_REQUESTS))
    args = parser.parse_args(argv)
    pkg = run.load_package()
    recorded = {}
    run.WORK.mkdir(exist_ok=True)
    config_path = run.WORK / f"record-{os.getpid()}.json"
    for workload in args.workload or sorted(GOLDEN_REQUESTS):
        recorded[workload] = {}
        for seed in gate.DEFAULT_SEEDS:
            runner = run.Runner(pkg, workload, seed, config_path, golden={})
            entries = []
            for index in range(GOLDEN_REQUESTS[workload]):
                req = runner.prepare(index)
                _, out = runner.run(req)
                reason = runner.check(index, req, out)
                if reason is not None:
                    sys.exit(f"{workload} seed {seed} request {index}: {reason}")
                text, code = out
                entries.append(f"{gate.digest(text)}:{code}")
            recorded[workload][str(seed)] = entries
            print(f"{workload} seed {seed}: {len(entries)} digests", flush=True)
    config_path.unlink(missing_ok=True)
    golden = {**gate.load_golden(), **recorded}    # keep other workloads' digests
    gate.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
