"""koopctl benchmark: run a workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload single-pendulum --seed 0 \\
        --seconds 30 --trace 0

``--workload all`` (the default) runs the three workloads in turn.  Each
workload run happens in a fresh worker process (``perfbench/worker.py``),
one at a time: a closed loop with one client.  With ``--trace 0`` the
worker runs repeat until ``--seconds`` have passed and the end-to-end
metrics are their medians; extra set-up-only workers bring the set-up
samples to at least five.  With ``--trace 1`` one untraced run is
followed by one traced run, and the per-layer metrics come from it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every run passed its checks and 1 otherwise; 2 means the
benchmark could not start (for example, no koopctl sources in the
checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS, checks, machine, spans  # noqa: E402

RUN_DIR = Path(".perfbench_run")   # relative to ROOT, the workers' cwd
TIME_LIMIT_S = 170.0               # one invocation must end within 180 s
SETUP_SAMPLES = 5

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lmi_margin", "1"),
)


class Invocation:
    """The worker processes of one workload invocation, started in turn."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.rundir = RUN_DIR / name
        self.t_start = time.monotonic()
        self.spawned = 0

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.monotonic() - self.t_start)

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict:
        """Start one worker, wait for it, and return its record."""
        abs_rundir = ROOT / self.rundir
        shutil.rmtree(abs_rundir / "out", ignore_errors=True)
        abs_rundir.mkdir(parents=True, exist_ok=True)
        result = self.rundir / f"worker-{self.spawned}.json"
        self.spawned += 1
        cmd = [sys.executable, "-m", "perfbench.worker",
               "--workload", self.name, "--seed", str(self.seed),
               "--rundir", str(self.rundir), "--result", str(result),
               "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        try:
            subprocess.run(cmd + ["--spawned", repr(time.monotonic())],
                           cwd=ROOT, stdout=subprocess.DEVNULL,
                           timeout=max(1.0, self.remaining()), check=False)
            with open(ROOT / result) as fh:
                record = json.load(fh)
        except subprocess.TimeoutExpired:
            record = {"failures": ["worker exceeded the time limit"]}
        except (OSError, json.JSONDecodeError) as exc:
            record = {"failures": [f"no worker record: {exc}"]}
        finally:
            (ROOT / result).unlink(missing_ok=True)
        record["wall_s"] = time.monotonic() - t0
        return record

    def repeat(self, seconds: float, trace: bool = False) -> list:
        """Run back to back until ``seconds`` pass or time would run out."""
        records = []
        while True:
            rec = self.spawn(trace=trace)
            records.append(rec)
            if rec["failures"]:
                break
            used = time.monotonic() - self.t_start
            if used >= seconds or rec["wall_s"] * 1.5 > self.remaining():
                break
        return records

    def cleanup(self) -> None:
        shutil.rmtree(ROOT / self.rundir / "out", ignore_errors=True)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def bench_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload invocation; returns (result, run records, notes)."""
    inv = Invocation(name, seed)
    # a traced invocation needs one untraced run for trace.overhead_s
    runs = inv.repeat(0.0 if trace else seconds)
    traced = []
    setups = []
    if trace:
        if not any(r["failures"] for r in runs):
            traced = [inv.spawn(trace=True)]
    else:
        setups = [inv.spawn(setup_only=True)
                  for _ in range(SETUP_SAMPLES - len(runs))
                  if inv.remaining() > 20.0]
    inv.cleanup()

    everything = runs + traced + setups
    failed = sum(1 for r in everything if r["failures"])
    notes = [f"{name} run {i}: {'; '.join(r['failures'])}"
             for i, r in enumerate(everything) if r["failures"]]
    completed = [r for r in runs + traced if "digests" in r]
    set_failures = checks.check_set([r["digests"] for r in completed])
    if set_failures and completed:
        first = completed[0]["digests"]["all"]
        failed += sum(1 for r in completed[1:]
                      if r["digests"]["all"] != first and not r["failures"])
        notes += [f"{name}: {msg}" for msg in set_failures]

    untraced_run_s = _median(r.get("run_s") for r in runs)
    if trace:
        layers = traced[0].get("layers") if traced else None
        metrics = {}
        if layers is not None:
            layers["trace.overhead_s"] = layers["trace.run_s"] - untraced_run_s
            metrics = {n: {"value": layers[n], "unit": u}
                       for n, u, _ in spans.LAYER_METRICS}
    else:
        # a failed synthesis reports lambda* as NaN, which JSON cannot carry
        lam = _median(r["science"]["lam"] for r in runs if "science" in r
                      and math.isfinite(r["science"]["lam"]))
        values = {
            "run_s": untraced_run_s,
            "setup_s": _median(r.get("setup_s") for r in runs + setups),
            "peak_rss_mb": _median(r.get("peak_rss_mb") for r in runs),
            "lmi_margin": None if lam is None else 1.0 - lam,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END
                   if values[n] is not None}
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": len(everything), "failed": failed,
              "metrics": metrics}
    return result, runs + traced, notes


def describe(name: str, result: dict, records: list) -> list:
    """Human-readable lines: science outputs, then every metric."""
    lines = []
    for i, r in enumerate(records):
        sci = r.get("science", {})
        status = "FAIL" if r["failures"] else "ok"
        text = f"{name} run {i} ({'traced' if r.get('trace') else 'untraced'})"
        if sci.get("lam") is not None:
            text += f": {status}, lambda* {sci['lam']:.5f}"
            if "success_rate" in sci:
                text += f", success {sci['success_rate']:.3f}"
            text += f", mask {sci['mask']}"
            if "run_s" in r:
                text += f", run {r['run_s']:.2f} s"
        else:
            text += f": {status}"
        lines.append(text)
    for metric, v in result["metrics"].items():
        lines.append(f"{name} {metric} = {v['value']:.6g} {v['unit']}")
    lines.append(f"{name}: attempted {result['attempted']}, "
                 f"failed {result['failed']}, correct {result['correct']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "koopctl" / "__init__.py").is_file():
        print(f"error: no koopctl sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" \
        else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    shapes = []
    for name in names:
        result, records, notes = bench_workload(name, args.seed, args.seconds,
                                                bool(args.trace))
        for line in describe(name, result, records) + notes:
            print(line)
        shapes += [r["shape"] for r in records[:1] if "shape" in r]
        if len(names) == 1:
            combined = result
        else:
            print(json.dumps(result, sort_keys=True))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}.{k}": v for k, v in result["metrics"].items()})
    env = machine.environment(ROOT, args.seed)
    print(json.dumps({"environment": env, "workloads": shapes},
                     sort_keys=True))
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
