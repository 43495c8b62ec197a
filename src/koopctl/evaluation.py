"""Closed-loop assessment of synthesized controllers on the true plant.

Each initial condition is rolled out under u = clip(K_u psi_u(x))
alongside an uncontrolled twin (u = 0) from the same state, in one
batched rollout.  The report records convergence against an
infinity-norm settle tolerance at the horizon, settling times, input
peaks, Lyapunov-decrease fractions along the true trajectories, and
lifted-model fidelity metrics, which compare lifted predictions with a
prefix of those same closed-loop trajectories.  The Lyapunov
certificate itself applies to the lifted model; the true-plant decrease
fraction is reported but is not a feasibility criterion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .edmd import BilinearKoopmanModel
from .factorization import FactorizationPair, assemble_ktilde
from .observables import ObservableMap, decoding_operator
from .plants import ControlAffinePlant, rollout
from .synthesis import SynthesisResult

# the controlled and uncontrolled trajectory files ``export_plot_data`` writes
PLOT_FILES = ("trajectories_controlled.csv", "trajectories_uncontrolled.csv")


@dataclass
class TrajectoryRecord:
    initial_state: np.ndarray
    final_state: np.ndarray
    converged: bool
    settling_time: float          # seconds; horizon when never settled
    max_input: float
    lyap_decrease_fraction: float
    steady_state_error: float     # ||x||_inf averaged over the last second
    diverged: bool = False


@dataclass
class EvaluationReport:
    records: list
    uncontrolled_final: list      # ||x(horizon)||_inf for the u = 0 twins
    success_rate: float
    median_settling_time: float
    lam: float
    settle_tol: float
    horizon_seconds: float
    dt: float
    fidelity: dict = field(default_factory=dict)
    eval_ranges: list = field(default_factory=list)
    train_ranges: list = field(default_factory=list)
    controlled_trajs: list = field(default_factory=list)
    uncontrolled_trajs: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "kind": "koopctl/report",
            "success_rate": self.success_rate,
            "median_settling_time": self.median_settling_time,
            "lambda": self.lam,
            "settle_tol": self.settle_tol,
            "horizon_seconds": self.horizon_seconds,
            "dt": self.dt,
            "fidelity": self.fidelity,
            "eval_ranges": self.eval_ranges,
            "train_ranges": self.train_ranges,
            "uncontrolled_final": [float(v) for v in self.uncontrolled_final],
            "records": [
                {
                    "initial_state": [float(v) for v in r.initial_state],
                    "final_state": [float(v) for v in r.final_state],
                    "converged": bool(r.converged),
                    "settling_time": float(r.settling_time),
                    "max_input": float(r.max_input),
                    "lyap_decrease_fraction": float(r.lyap_decrease_fraction),
                    "steady_state_error": float(r.steady_state_error),
                    "diverged": bool(r.diverged),
                }
                for r in self.records
            ],
        }


def feedback_controller(map_u: ObservableMap, K_u: np.ndarray):
    """u(x) = K_u psi_u(x) as a state-feedback callable on (..., d_x)."""
    K_u = np.atleast_2d(np.asarray(K_u, dtype=float))

    def control(x):
        # matmul on a trailing column matches the single-state K_u @ psi
        # bitwise, for one state or a batch
        return np.matmul(K_u, map_u(x)[..., None])[..., 0]

    return control


def lyapunov_trace(result: SynthesisResult, psis: np.ndarray,
                   slack: float = 0.0) -> dict:
    """V_k = psi_k^T P psi_k along a lifted or lifted-from-state trajectory.

    Returns the V sequence and the fraction of steps with
    V_{k+1} <= lam* V_k + slack.  Lifted-model rollouts satisfy the
    decrease exactly up to the LMI certificate; true-plant rollouts only
    approximately.
    """
    psis = np.asarray(psis, dtype=float)
    v = np.einsum("ij,ij->i", psis @ result.P, psis)
    if v.size < 2:
        return {"V": v, "decrease_fraction": 1.0}
    ok = v[1:] <= result.lam * v[:-1] + slack
    return {"V": v, "decrease_fraction": float(np.mean(ok))}


def lifted_rollout(ktilde: np.ndarray, psi0: np.ndarray,
                   steps: int) -> np.ndarray:
    """Iterate psi+ = Ktilde psi; returns (steps+1, d_psi)."""
    out = np.zeros((steps + 1, len(psi0)))
    out[0] = psi0
    for k in range(steps):
        out[k + 1] = ktilde @ out[k]
    return out


def _median(values: list) -> float:
    """float(np.median(values)), bitwise, for a nonempty list of
    nonnegative floats (settling times), without the ``numpy.ma`` import
    (about 20 ms) that np.median's first call makes."""
    s = sorted(values)
    mid = len(s) // 2
    return float(s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2)


def evaluate_closed_loop(plant: ControlAffinePlant, map_u: ObservableMap,
                         K_u: np.ndarray, initial_states,
                         horizon_s: float, dt: float,
                         settle_tol: float = 0.05,
                         result: SynthesisResult = None,
                         map_x: ObservableMap = None,
                         train_ranges=None) -> EvaluationReport:
    """Roll out the feedback law and its uncontrolled twins, and score them."""
    initial_states = np.asarray(initial_states, dtype=float)
    n = initial_states.shape[0]
    steps = int(round(horizon_s / dt))
    feedback = feedback_controller(map_u, K_u)

    def control(x):  # rows [:n] closed loop, rows [n:] their u = 0 twins
        u = np.zeros(x.shape[:-1] + (plant.input_dim,))
        u[:n] = feedback(x[:n])
        return u

    trajs = rollout(plant, np.concatenate([initial_states, initial_states]),
                    control, steps, dt)
    controlled, uncontrolled = trajs[:n], trajs[n:]
    # the Lyapunov decrease is scored on the lifted states of each
    # trajectory that did not diverge, lifted one trajectory at a time
    lift_map = None
    if result is not None and result.status == "optimal":
        lift_map = map_x if map_x is not None else map_u
    tail = max(1, int(round(1.0 / dt)))  # last second of the horizon
    records = []
    unc_final = []
    for x0, traj, twin in zip(initial_states, controlled, uncontrolled):
        norms = np.max(np.abs(traj.states), axis=1)
        converged = (not traj.diverged) and norms[-1] <= settle_tol
        settled_at = horizon_s
        if converged:
            above = np.nonzero(norms > settle_tol)[0]
            k_settle = 0 if above.size == 0 else int(above[-1]) + 1
            settled_at = k_settle * dt
        lyap_frac = float("nan")
        if lift_map is not None and not traj.diverged:
            # a huge finite state can overflow psi, the slack or V; that
            # row is NaN, as a diverged one, and nothing is warned
            with np.errstate(all="ignore"):
                psis = lift_map(traj.states)
                slack = 1e-9 * max(1.0, float(np.max(psis ** 2)))
                trace = lyapunov_trace(result, psis, slack=slack)
            if (np.isfinite(slack) and np.all(np.isfinite(psis))
                    and np.all(np.isfinite(trace["V"]))):
                lyap_frac = trace["decrease_fraction"]
        records.append(TrajectoryRecord(
            initial_state=x0,
            final_state=traj.states[-1],
            converged=bool(converged),
            settling_time=float(settled_at),
            max_input=float(np.max(np.abs(traj.inputs)) if traj.inputs.size
                            else 0.0),
            lyap_decrease_fraction=lyap_frac,
            steady_state_error=float(np.mean(norms[-tail:])),
            diverged=bool(traj.diverged),
        ))
        unc_final.append(float(np.max(np.abs(twin.states[-1]))))
    success = float(np.mean([r.converged for r in records])) if records else 0.0
    settle_times = [r.settling_time for r in records if r.converged]
    report = EvaluationReport(
        records=records, uncontrolled_final=unc_final,
        success_rate=success,
        median_settling_time=_median(settle_times)
        if settle_times else float("nan"),
        lam=result.lam if result is not None else float("nan"),
        settle_tol=settle_tol, horizon_seconds=horizon_s, dt=dt,
        eval_ranges=[[float(np.min(initial_states[:, d])),
                      float(np.max(initial_states[:, d]))]
                     for d in range(initial_states.shape[1])],
        train_ranges=[list(map(float, r)) for r in train_ranges]
        if train_ranges is not None else [],
        controlled_trajs=controlled, uncontrolled_trajs=uncontrolled,
    )
    return report


def lifted_vs_true(model: BilinearKoopmanModel, pair: FactorizationPair,
                   K_u: np.ndarray, map_x: ObservableMap, trajs,
                   steps: int) -> dict:
    """Decoded lifted predictions against true closed-loop trajectories.

    ``trajs`` are closed-loop rollouts of the plant under the gain K_u,
    such as ``EvaluationReport.controlled_trajs``; each supplies x0 and
    the true states x_true(k) for its first ``steps`` steps, fewer when
    it diverged or ends sooner (those steps count as NaN).  Reports
    per-step error statistics ||A_dec Ktilde^k psi(x0) - x_true(k)||.
    """
    a_dec = decoding_operator(map_x)
    ktilde = assemble_ktilde(model, K_u, pair.H).Ktilde
    errs = np.full((len(trajs), steps), np.nan)
    # a huge state or error overflows to inf and a step that no trajectory
    # reaches is a mean of nothing, NaN: both silently
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Mean of empty slice",
                                RuntimeWarning)
        for i, traj in enumerate(trajs):
            psi_traj = lifted_rollout(ktilde, map_x(traj.states[0]), steps)
            n_ok = min(steps, len(traj.states) - 1)
            err = psi_traj[1 : n_ok + 1] @ a_dec.T - traj.states[1 : n_ok + 1]
            errs[i, :n_ok] = np.linalg.norm(err, axis=1)
        return {
            "one_step_rmse": float(np.sqrt(np.nanmean(errs[:, 0] ** 2))),
            "final_step_rmse": float(np.sqrt(np.nanmean(errs[:, -1] ** 2))),
            "per_step_mean": np.nanmean(errs, axis=0).tolist(),
            "steps": steps,
        }


def export_plot_data(report: EvaluationReport, outdir) -> list:
    """``trajectories_controlled.csv`` and ``trajectories_uncontrolled.csv``,
    one row per stored state with the columns traj, k, t, x1..xd.

    Each row is one formatted string, the bytes ``csv.writer`` writes:
    a float as its repr, the shortest string that round-trips, so
    re-reading the files reproduces the stored floats exactly (t is
    k * dt), and "\\r\\n" line ends.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, trajs in zip(PLOT_FILES, (report.controlled_trajs,
                                        report.uncontrolled_trajs)):
        d_x = trajs[0].states.shape[1] if trajs else 1
        path = outdir / name
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["traj", "k", "t"]
                              + [f"x{i + 1}" for i in range(d_x)]) + "\r\n")
            for tid, traj in enumerate(trajs):
                fh.write("".join([
                    f"{tid},{k},{k * report.dt!r},{','.join(map(repr, x))}\r\n"
                    for k, x in enumerate(traj.states.tolist())]))
        written.append(path)
    return written
