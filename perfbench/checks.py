"""Correctness checks on every benchmark run.

A run passes when all of these hold:

* synthesis status is ``optimal`` and lambda* < 1;
* lambda* is no worse than the recorded reference (``reference.json``)
  by more than one bisection tolerance;
* the full-block LMI certificate, recomputed here with
  ``synthesis.LmiProblem(...).min_eig(K_u, lambda*)``, is >= -1e-8;
* the evaluation success rate is at least the protocol gate (0.9 single,
  0.8 double) where the workload evaluates;
* the factorization mask equals the recorded reference mask.

A set of runs passes when, in addition, the SHA-256 of every content
artifact is identical across its runs.  A failing seed is reported as a
failure; neither the seed nor a gate is ever adjusted to make it pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CERT_FLOOR = -1e-8
LAM_SLACK = 1e-3   # synthesis.DEFAULT_LAM_TOL: one bisection step

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]


def certificate(out) -> float:
    """Smallest eigenvalue of the full LMI block matrix at (K_u, lambda*)."""
    from koopctl import synthesis

    problem = synthesis.LmiProblem(
        P=out.result.P, K_xx=out.model.K_xx, K_xu=out.model.K_xu,
        H=out.pair.H, d_S=out.pair.d_S, d_u=out.model.input_dim,
        d_psi_u=out.pair.d_psi_u)
    return problem.min_eig(out.result.K_u, out.result.lam)


def check_run(out, reference: dict) -> list:
    """Failure messages for one run; an empty list means it passed."""
    failures = []
    result = out.result
    if result.status != "optimal":
        return [f"synthesis status {result.status!r}, expected 'optimal'"]
    if not result.lam < 1.0:
        failures.append(f"lambda* {result.lam} is not below 1")
    ref_lam = reference.get("lam")
    if ref_lam is not None and result.lam > ref_lam + LAM_SLACK:
        failures.append(f"lambda* {result.lam} worse than reference {ref_lam}")
    cert = certificate(out)
    if not cert >= CERT_FLOOR:
        failures.append(f"LMI certificate {cert:.3e} below {CERT_FLOOR:g}")
    mask = [int(v) for v in out.pair.mask]
    if mask != reference["mask"]:
        failures.append(f"mask {mask} differs from reference {reference['mask']}")
    if out.success_gate is not None:
        if not out.reports:
            failures.append("no evaluation report")
        elif not out.reports[0].success_rate >= out.success_gate:
            failures.append(f"success rate {out.reports[0].success_rate:.3f} "
                            f"below gate {out.success_gate}")
    return failures


def digests(content: dict) -> dict:
    """SHA-256 of each content artifact, and of all of them in name order."""
    out = {k: hashlib.sha256(v).hexdigest() for k, v in sorted(content.items())}
    whole = hashlib.sha256()
    for k in sorted(content):
        whole.update(k.encode() + b"\0" + content[k])
    out["all"] = whole.hexdigest()
    return out


def check_set(run_digests: list) -> list:
    """Failure messages when the runs of one set differ in any artifact."""
    failures = []
    if not run_digests:
        return ["no run completed"]
    first = run_digests[0]
    for i, d in enumerate(run_digests[1:], start=1):
        changed = sorted(k for k in first if d.get(k) != first[k] and k != "all")
        if changed or d.get("all") != first["all"]:
            failures.append(f"run {i} artifacts differ from run 0: "
                            f"{', '.join(changed) or 'all'}")
    return failures


def science_record(out) -> dict:
    """The outputs a reader checks at a glance, and the per-layer counts
    that come from the results rather than from the trace."""
    diag = out.result.diagnostics
    cands = diag.get("candidates", [])
    rec = {"lam": float(out.result.lam),
           "mask": [int(v) for v in out.pair.mask],
           "kept_blocks": int(sum(out.pair.mask)),
           "candidates": len(cands),
           "feasible": sum(bool(c["feasible"]) for c in cands),
           "iterations": int(diag.get("iterations", 0))}
    if out.reports:
        rec["success_rate"] = float(out.reports[0].success_rate)
        rec["diverged"] = sum(bool(r.diverged) for rep in out.reports
                              for r in rep.records)
        rec["trajectories"] = sum(len(rep.records) for rep in out.reports)
    return rec
