"""Self-tests of the benchmark: tracer completeness, determinism, gate.

    python3 -m pytest perfbench -q

Planted defects (a one-byte report change, a wrong exit code, a perturbed
inverse entry) must each count as a failed request; the traced run must
wrap every named function in every module that binds it, read non-zero on
the workload each metric belongs to, repeat its counts exactly, and keep
reports byte-identical to the recorded digests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import gate
import run
import workloads
from tracer import MODULES, Tracer

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
COUNT_UNITS = ("count", "bytes")

# the workload on which each per-layer metric must read non-zero; a layer's
# metrics map to the workload the layer table names, except where only
# another workload reaches the function
HOME = {"cli": "fibre-algebra", "symexpr": "glued-check", "linalg": "fibre-algebra",
        "dvspace": "fibre-algebra", "clifford": "fibre-algebra", "wedge": "glued-check",
        "bundle": "bundle-dual", "forms": "glued-check", "connection": "glued-check",
        "dirac": "glued-check", "trace": "glued-check"}
EXCEPTIONS = {"clifford.cl_mul.calls": "glued-check",
              "bundle.glue_bundles.ms": "glued-check",
              "dirac.dirac_value_at.calls": "dirac-eval",
              "dirac.dirac_value_at.ms": "dirac-eval"}


def home(metric):
    return EXCEPTIONS.get(metric, HOME[metric.split(".")[0]])


def bench(*args, cwd=run.ROOT):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout


# short traced runs that still reach every command of the workload
TRACE_REQUESTS = {"glued-check": 1, "dirac-eval": 2, "fibre-algebra": 2,
                  "bundle-dual": 1}
_traced = {}


def traced_run(workload, seed=0, repeat=0):
    """Result of a short traced run, cached per (workload, seed, repeat)."""
    key = (workload, seed, repeat)
    if key not in _traced:
        code, stdout = bench("--workload", workload, "--seed", str(seed),
                             "--requests", str(TRACE_REQUESTS[workload]),
                             "--trace", "1")
        assert code == 0, stdout
        _traced[key] = json.loads(stdout.splitlines()[-1])
    return _traced[key]


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


# ---------------------------------------------------------------------------
# tracer

def test_named_functions_wrapped_in_every_binding_module(pkg):
    tracer = Tracer()
    named = {".".join(m.split(".")[:2]) for m in PER_LAYER
             if m.split(".")[0] in MODULES and not m.endswith(".self_ms")}
    originals = {}
    for name in named:
        module, fn = name.split(".")
        originals[name] = getattr(tracer.modules[module], fn)
    bindings = [(mod, attr, name) for name, fn in originals.items()
                for mod in tracer.modules.values()
                for attr, obj in vars(mod).items() if obj is fn]
    # the easy ones to miss: `from .symexpr import simplify`
    for m in ("connection", "dirac", "bundle", "forms"):
        assert (tracer.modules[m], "simplify", "symexpr.simplify") in bindings
    with tracer:
        for mod, attr, name in bindings:
            wrapped = getattr(mod, attr)
            assert getattr(wrapped, "__wrapped__", None) is originals[name], \
                f"{mod.__name__}.{attr} is not traced"
    for mod, attr, name in bindings:
        assert getattr(mod, attr) is originals[name]


def test_recursion_counts_once(pkg):
    sx = pkg.symexpr
    e = sx.parse_expr("(x+1)*(x-2)/(x^2+3)")
    tracer = Tracer()
    with tracer:
        tracer.begin_request(0)
        assert sx.evaluate(e, Fraction(1)) == Fraction(-1, 2)
        tracer.end_request()
    m = tracer.metrics()
    assert m["symexpr.evaluate.calls"] == 1
    assert m["symexpr.evaluate.nodes"] == 13     # x-2 parses as x+(-2)
    assert m["symexpr.evaluate.exact_ratio"] == 1


def test_per_layer_metrics_are_the_declared_ones():
    got = traced_run("glued-check")["metrics"]
    assert list(got) == PER_LAYER
    assert all(home(m) in workloads.WORKLOADS for m in PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_named_metrics_nonzero_on_their_workload(workload):
    got = traced_run(workload)
    assert got["correct"] and got["failed"] == 0
    zero = [m for m in PER_LAYER if home(m) == workload
            and not got["metrics"][m]["value"] > 0]
    assert not zero, f"zero on {workload}: {zero}"


@pytest.mark.parametrize("workload", ["glued-check", "bundle-dual"])
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload, repeat=1)
    for m in PER_LAYER:
        if first["metrics"][m]["unit"] in COUNT_UNITS + ("ratio",) \
                and m != "trace.overhead_ratio":
            assert first["metrics"][m]["value"] == second["metrics"][m]["value"], m


@pytest.mark.parametrize("workload", ["glued-check", "dirac-eval", "fibre-algebra"])
def test_traced_reports_match_golden_digests(workload):
    # every request of a default-seed run, traced or not, has a digest
    golden = gate.load_golden()
    for seed in gate.DEFAULT_SEEDS:
        assert len(golden[workload][str(seed)]) >= run.run_requests(
            workload, BENCH["run_seconds"], run.CYCLE_SECONDS)
    got = traced_run(workload)
    assert got["correct"] and got["failed"] == 0


# ---------------------------------------------------------------------------
# gate: planted defects

def e2e(workload, seed, capsys):
    run.main(["--workload", workload, "--seed", str(seed), "--requests", "1",
              "--trace", "0"])
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_clean_requests_pass(pkg, capsys):
    for workload in workloads.WORKLOADS:
        out = e2e(workload, 0, capsys)
        assert out["correct"] and out["attempted"] == 1 and out["failed"] == 0


def test_one_byte_report_change_fails(pkg, capsys, monkeypatch):
    render = pkg.cli.render_report

    def flipped(report):
        text = render(report)
        k = len(text) // 2
        return text[:k] + chr(ord(text[k]) ^ 1) + text[k + 1:]

    monkeypatch.setattr(pkg.cli, "render_report", flipped)
    out = e2e("dirac-eval", 0, capsys)
    assert not out["correct"] and out["failed"] == 1


@pytest.mark.parametrize("seed", [0, 987654])   # recorded digest / generic gate
def test_wrong_exit_code_fails(pkg, capsys, monkeypatch, seed):
    real = pkg.cli.run
    monkeypatch.setattr(pkg.cli, "run",
                        lambda *a, **k: (real(*a, **k)[0], 1))
    out = e2e("dirac-eval", seed, capsys)
    assert not out["correct"] and out["failed"] == 1


def test_perturbed_inverse_entry_fails(pkg, capsys, monkeypatch):
    real = pkg.bundle.emat_inverse

    def perturbed(m):
        inv = real(m)
        inv[0][-1] = inv[0][-1] + pkg.symexpr.Const(Fraction(1, 1000))
        return inv

    monkeypatch.setattr(pkg.bundle, "emat_inverse", perturbed)
    out = e2e("bundle-dual", 0, capsys)
    assert not out["correct"] and out["failed"] == 1


def test_raising_request_fails(pkg, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("planted")

    monkeypatch.setattr(pkg.cli, "run", boom)
    out = e2e("fibre-algebra", 0, capsys)
    assert not out["correct"] and out["failed"] == 1


# ---------------------------------------------------------------------------
# inputs and harness

def test_requests_are_deterministic_and_distinct():
    for workload in workloads.WORKLOADS:
        stream = [workloads.request(workload, 3, i) for i in range(24)]
        assert stream == [workloads.request(workload, 3, i) for i in range(24)]
        keys = {json.dumps([r.get("config", r.get("v")), r.get("w"),
                            r.get("run_seed")], sort_keys=True) for r in stream}
        assert len(keys) == len(stream)


def test_fibre_configs_have_kernel_exactly_k(pkg):
    dv = pkg.dvspace
    for index in range(len(workloads.FIBRE_CYCLE)):
        fibre = workloads.request("fibre-algebra", 5, index)["config"]["fibre"]
        model = dv.DvsModel(fibre["dim"], tuple(map(tuple, fibre["nonsmooth"])))
        assert dv.is_pseudo_metric(model, fibre["metric"]).ok


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(30)))
    assert (value, beyond) == (19, 10) and pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = bench("--workload", "glued-check", "--seed", "0",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in stdout
