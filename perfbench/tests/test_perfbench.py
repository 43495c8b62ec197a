"""The benchmark's own tests: metric names, self-time arithmetic, the
correctness checks, wrapper restoration and a smoke run per workload.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS, checks, spans, worker  # noqa: E402

worker.import_koopctl()

from perfbench import run, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _smoke(name, rundir, trace=True):
    prepared = workloads.setup(name, 0, rundir, smoke=True)
    reference = {"mask": checks.load_reference(name)["mask"]}
    return worker.run_once(name, 0, prepared, rundir, trace, reference)


@pytest.fixture(scope="module")
def single_outputs(tmp_path_factory):
    rundir = tmp_path_factory.mktemp("single")
    prepared = workloads.setup("single-pendulum", 0, rundir, smoke=True)
    out = workloads.run(prepared, spans.NullTracer())
    workloads.finish(prepared, out)
    return out


# -- metric names ------------------------------------------------------------

def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(spans.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name, *_ in e2e + layers:
        assert NAME.fullmatch(name), name


# -- self time -----------------------------------------------------------------

def _span(i, parent, start, end, counter_s=0.0):
    return {"id": i, "parent": parent, "start": start, "end": end,
            "counter_s": counter_s, "name": f"s{i}", "layer": "x"}


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0, counter_s=0.5),   # overlaps span 2
        _span(2, 0, 3.0, 6.0),
        _span(3, 1, 2.0, 3.0),
        _span(4, 0, 9.5, 12.0),                 # runs past its parent
    ]
    got = spans.self_times(tree)
    assert got[0] == pytest.approx(10.0 - 5.0 - 0.5)   # [1, 6] and [9.5, 10]
    assert got[1] == pytest.approx(3.0 - 1.0 - 0.5)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(2.5)


def test_hot_counters_split_nested_time():
    tracer = spans.Tracer("t")
    calls = []

    def inner(owner, x):
        calls.append(x)

    def outer(owner, x):
        wrapped_inner(owner, x)

    wrapped_inner = tracer._hot_wrapper(inner, "rk4_step")
    wrapped_outer = tracer._hot_wrapper(outer, "rollout")
    with tracer.span("stage", "evaluation"):
        wrapped_outer(None, [[1.0, 2.0], [3.0, 4.0]])
    counters = tracer.counters
    assert counters["rk4_step"]["calls"] == 1
    assert counters["rk4_step"]["rows"] == 1      # a list has no shape
    assert counters["rollout"]["total_s"] >= counters["rk4_step"]["total_s"]
    assert counters["rollout"]["self_s"] == pytest.approx(
        counters["rollout"]["total_s"] - counters["rk4_step"]["total_s"])
    stage = tracer.spans[0]
    assert stage["counter_s"] == pytest.approx(counters["rollout"]["total_s"])
    assert len(calls) == 1


# -- correctness checks --------------------------------------------------------

def test_checks_reject_tampered_results(single_outputs):
    out = single_outputs
    reference = {"mask": [int(v) for v in out.pair.mask],
                 "lam": out.result.lam}
    assert checks.check_run(out, reference) == []

    raised = dataclasses.replace(out.result, lam=out.result.lam + 0.01)
    assert checks.check_run(dataclasses.replace(out, result=raised), reference)
    at_one = dataclasses.replace(out.result, lam=1.0)
    assert checks.check_run(dataclasses.replace(out, result=at_one),
                            {"mask": reference["mask"]})

    flipped = out.pair.mask.copy()
    flipped[0] = 1 - flipped[0]
    pair = dataclasses.replace(out.pair, mask=flipped)
    assert checks.check_run(dataclasses.replace(out, pair=pair), reference)

    failing = dataclasses.replace(out, success_gate=1.01)
    assert checks.check_run(failing, reference)

    good = checks.digests(out.content)
    content = dict(out.content)
    changed = bytearray(content["result"])
    changed[len(changed) // 2] ^= 1
    content["result"] = bytes(changed)
    assert checks.check_set([good, checks.digests(out.content)]) == []
    assert checks.check_set([good, checks.digests(content)])


def test_certificate_matches_the_reported_min_eig(single_outputs):
    out = single_outputs
    assert checks.certificate(out) == pytest.approx(
        out.result.diagnostics["min_eig"], abs=1e-12)


# -- traced run ----------------------------------------------------------------

def _site_values():
    values = {}
    for path, attr, *_ in spans.STAGE_SITES + spans.HOT_SITES:
        owner = spans._resolve(path)
        values[(path, attr)] = owner.__dict__.get(attr) \
            if isinstance(owner, type) else getattr(owner, attr, None)
    return values


def test_wrappers_are_restored_when_the_run_raises(tmp_path):
    before = _site_values()
    broken = workloads.Stagewise(config_path=tmp_path / "missing.json",
                                 outdir=tmp_path / "out")
    with pytest.raises(workloads.RunFailed):
        worker.run_once("stagewise-cli", 0, broken, tmp_path, True,
                        {"mask": []})
    after = _site_values()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_covers_each_workload(name, tmp_path):
    before = _site_values()
    record = _smoke(name, tmp_path)
    after = _site_values()
    assert all(after[k] is before[k] for k in before)
    assert record["failures"] == []
    layers = record["layers"]
    assert list(layers) == [n for n, _, _ in spans.LAYER_METRICS]
    assert layers["plants.rk4_calls"] > 0
    assert layers["factorization.peak_traced_mb"] > 0
    trace_file = Path(record["trace_file"])
    header, recorded, counters = spans.read_trace(trace_file)
    assert header["workload"] == name
    assert {s["run"] for s in recorded} == {f"{name}-seed0"}
    if name == "stagewise-cli":
        assert layers["evaluation.wall_s"] == 0
        assert layers["cli.bytes_written"] > 0
        assert layers["babbling.files_written"] > 0
    else:
        assert layers["evaluation.rollout_calls"] > 0
        assert layers["cli.bytes_written"] == 0
        assert layers["babbling.save_s"] == 0


def test_traced_and_untraced_runs_give_identical_artifacts(single_outputs,
                                                          tmp_path):
    traced = _smoke("single-pendulum", tmp_path, trace=True)
    untraced = checks.digests(single_outputs.content)
    assert checks.check_set([untraced, traced["digests"]]) == []


def test_refuses_to_run_without_koopctl_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single-pendulum",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
