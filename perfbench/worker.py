"""One benchmark run in a fresh process: set up, run once, check, report.

``run.py`` starts this as ``python3 -m perfbench.worker`` from the
checkout root, so ``setup_s`` covers interpreter start, imports and
set-up, and ``peak_rss_mb`` is the peak of a process that ran exactly
one workload run.  The record goes to the ``--result`` JSON file; the
exit code is 0 when the run passed its checks and 1 otherwise.
"""

import time  # noqa: I001  first import: set-up is timed from process start

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_koopctl():
    """Import koopctl from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import koopctl

    if Path(koopctl.__file__).resolve().parent != SRC / "koopctl":
        raise ImportError(f"koopctl imported from {koopctl.__file__}, "
                          f"expected {SRC / 'koopctl'}")
    return koopctl


def run_once(name: str, seed: int, prepared, rundir: Path, trace: bool,
             reference: dict) -> dict:
    """Run a prepared workload once, check it, and return its record."""
    from perfbench import checks, spans, workloads

    record = {"workload": name, "seed": seed, "trace": int(trace),
              "failures": []}
    tracer = spans.Tracer(f"{name}-seed{seed}") if trace \
        else spans.NullTracer()
    if trace:
        tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span("run", "bench"):
            out = workloads.run(prepared, tracer)
        record["run_s"] = time.perf_counter() - t0
    finally:
        if trace:
            tracer.restore()
    workloads.finish(prepared, out)
    record["failures"] = checks.check_run(out, reference)
    record["digests"] = checks.digests(out.content)
    record["science"] = checks.science_record(out)
    record["shape"] = workloads.shape_record(name, out)
    record["io"] = {"files_written": out.files_written,
                    "dataset_bytes": out.dataset_bytes,
                    "bytes_written": out.bytes_written}
    if trace:
        record["layers"] = spans.layer_metrics(tracer.spans, tracer.counters,
                                               record)
        path = rundir / f"trace-seed{seed}.jsonl"
        tracer.dump(path, {"workload": name, "seed": seed,
                           "run_s": record["run_s"]})
        record["trace_file"] = str(path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rundir", required=True,
                        help="per-workload directory; <rundir>/out must not exist")
    parser.add_argument("--result", required=True, help="record JSON path")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    rundir = Path(args.rundir)
    record = {"workload": args.workload, "seed": args.seed,
              "failures": ["worker did not finish"]}
    try:
        import_koopctl()
        from perfbench import checks, workloads

        prepared = workloads.setup(args.workload, args.seed, rundir)
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            record = {"setup_s": setup_s, "failures": []}
        else:
            record = run_once(args.workload, args.seed, prepared, rundir,
                              bool(args.trace),
                              checks.load_reference(args.workload))
            record["setup_s"] = setup_s
            record["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception as exc:  # the boundary: report, never hide, the failure
        traceback.print_exc()
        record["failures"] = [f"{type(exc).__name__}: {exc}"]
    with open(args.result, "w") as fh:
        json.dump(record, fh, sort_keys=True)
    return 0 if not record["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
