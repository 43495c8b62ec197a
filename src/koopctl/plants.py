"""Continuous-time control-affine plants and the fixed-step RK4 discretizer.

Angle convention: theta = 0 is the upright (inverted) position for both
pendulums, so gravity destabilizes the origin and "stabilize around the
origin" means balancing upright.  States are never wrapped; observables
use sines/cosines and polynomials of the raw state.

Double-pendulum convention (used consistently by the simulation and the
relative-angle observable th_r = th1 - th2): absolute link angles from
the upright vertical, point masses at the link tips, torques at both
joints.  With q = [th1, th2]:

    M(q) q'' + c(q, q') + g(q) = u - B q'
    M   = [[(m1+m2) l1^2,        m2 l1 l2 cos(th_r)],
           [m2 l1 l2 cos(th_r),  m2 l2^2           ]]
    c   = [ m2 l1 l2 sin(th_r) th2_dot^2,
           -m2 l1 l2 sin(th_r) th1_dot^2]
    g   = [-(m1+m2) G l1 sin(th1),  -m2 G l2 sin(th2)]

    det M = m2 l1^2 l2^2 (m1 + m2 sin(th_r)^2) > 0 for positive masses.
In floats, det = a c - b^2 with b = m2 l1 l2 cos(th_r) is at least the
rounded a c - (m2 l1 l2)^2, since |cos| <= 1 and rounding is monotone;
``double_pendulum`` rejects parameters where that bound is not positive
(m1 far below m2, say), so no state can make the mass matrix singular.
B is optional viscous joint damping, zero by default.

All dynamics are written with elementwise numpy operations only (the
2x2 mass-matrix solve is closed form), so stepping a batch of states
produces bitwise the same numbers as stepping each state alone.  Each
plant has one fused right-hand side rhs(x, u) = f(x) + g(x) u, which
builds no stacked f and no zero-filled g; the double pendulum's shares
the mass-matrix terms between f and g.  Zeros of g enter as 0.0 * u, so
each row keeps the sign of zero that composing f + g u would give.

The coefficients of each rhs, 0.0 included, are built once, at plant
construction, as 0-d float64 arrays, and ``rk4_step`` takes 0.5 dt, dt,
dt / 6 and 2 the same way: numpy resolves a Python float operand anew as
a weak scalar on every call, which on the 2-62 row batches of a rollout
costs more than the arithmetic.  The operations and their operand order
are those of the Python-float formulas, so the bits are the same.  A 0-d
array is a strong operand under numpy 2's promotion rules (NEP 50), so
states must be float64, as ``rk4_step`` makes them; a float32 state
handed to an rhs would be promoted to float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .tensor import as_number, constants


@lru_cache(maxsize=8)
def _rk4_constants(dt: float) -> tuple:
    """0.5 * dt, dt, dt / 6.0 and 2.0 for ``rk4_step``, built once per dt.

    0.5 * dt * k evaluates as (0.5 * dt) * k anyway."""
    return constants(0.5 * dt, dt, dt / 6.0, 2.0)


@dataclass(frozen=True)
class ControlAffinePlant:
    """Immutable descriptor of dynamics x' = f(x) + g(x) u, given as one
    right-hand side: float states (..., d_x) and inputs (..., d_u) that
    broadcast against them map to f(x) + g(x) u, shaped (..., d_x)."""

    name: str
    state_dim: int
    input_dim: int
    rhs: callable             # (x, u) -> f(x) + g(x) u
    input_bounds: np.ndarray  # (d_u, 2) rows [u_min, u_max]
    params: dict = field(default_factory=dict)


@dataclass
class Trajectory:
    """Rollout record: states (T+1, d_x), inputs (T, d_u) applied at step k."""

    states: np.ndarray
    inputs: np.ndarray
    dt: float
    diverged: bool = False


def single_pendulum(m: float = 1.0, L: float = 1.0, b: float = 0.3,
                    gravity: float = 9.81,
                    input_bound: float = 5.0) -> ControlAffinePlant:
    """Damped point-mass pendulum, state [theta, theta_dot], torque input.

    theta'' = (gravity / L) sin(theta) - b / (m L^2) theta_dot + u / (m L^2)

    An m L^2 that is 0 or not finite, or an infinite coefficient, is rejected.
    """
    m, L = as_number(m, "m", "positive"), as_number(L, "L", "positive")
    b = as_number(b, "b", "nonnegative")
    gravity = as_number(gravity, "gravity", "nonnegative")
    input_bound = as_number(input_bound, "input_bound", "positive")
    inertia = m * L * L
    if not 0 < inertia < math.inf:
        raise ValueError(f"m and L give m L^2 = {inertia!r}, not in (0, inf)")
    k_sin, k_om, k_u = gravity / L, b / inertia, 1.0 / inertia
    if not all(map(math.isfinite, (k_sin, k_om, k_u))):
        raise ValueError("m, L, b and gravity give an infinite coefficient")

    zero, k_sin, k_om, k_u = constants(0.0, k_sin, k_om, k_u)

    def rhs(x, u):
        # f + g[..., 0] u0 with g = [0, k_u]: 0.0 * u0 keeps the sign of
        # zero the angle row gets from the composition
        th, om, u0 = x[..., 0], x[..., 1], u[..., 0]
        out = np.empty(x.shape)  # u broadcasts against x's rows
        np.add(om, zero * u0, out=out[..., 0])
        np.add(k_sin * np.sin(th) - k_om * om, k_u * u0, out=out[..., 1])
        return out

    return ControlAffinePlant(
        name="single_pendulum", state_dim=2, input_dim=1, rhs=rhs,
        input_bounds=np.array([[-input_bound, input_bound]]),
        params={"m": m, "L": L, "b": b, "gravity": gravity},
    )


def double_pendulum(m1: float = 1.0, m2: float = 1.0, l1: float = 1.0,
                    l2: float = 1.0, gravity: float = 9.81,
                    damping: tuple = (0.0, 0.0),
                    input_bound: float = 5.0) -> ControlAffinePlant:
    """Point-mass double pendulum, both joints actuated, upright origin.

    State [th1, th2, th1_dot, th2_dot]; see the module docstring for the
    equations of motion.  Joint damping defaults to zero.
    """
    m1, m2 = as_number(m1, "m1", "positive"), as_number(m2, "m2", "positive")
    l1, l2 = as_number(l1, "l1", "positive"), as_number(l2, "l2", "positive")
    gravity = as_number(gravity, "gravity", "nonnegative")
    input_bound = as_number(input_bound, "input_bound", "positive")
    if not (isinstance(damping, (list, tuple)) and len(damping) == 2):
        raise ValueError(f"damping must hold two entries, got {damping!r}")
    b1, b2 = (as_number(b, f"damping[{i}]", "nonnegative")
              for i, b in enumerate(damping))
    # the same float expressions as the dynamics below; the module
    # docstring shows det >= a * c - k * k for every state
    a = (m1 + m2) * l1 * l1
    c = m2 * l2 * l2
    k = m2 * l1 * l2
    if not a * c - k * k > 0:
        raise ValueError("m1, m2, l1 and l2 give a singular mass matrix: "
                         "(m1 + m2) l1^2 m2 l2^2 - (m2 l1 l2)^2 is not "
                         "positive in floats")
    g1 = (m1 + m2) * gravity * l1
    g2 = m2 * gravity * l2
    zero, a, c, k, ac, g1, g2, b1, b2 = constants(
        0.0, a, c, k, a * c, g1, g2, b1, b2)

    def rhs(x, u):
        # f + g[..., 0] u0 + g[..., 1] u1 in that order, zeros of g
        # included: 0.0 * u keeps the sign of zero a velocity row gets
        th1, th2, w1, w2 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
        th_r = th1 - th2
        bb = k * np.cos(th_r)
        det = ac - bb * bb
        ks_r = k * np.sin(th_r)
        r1 = zero - ks_r * w2 * w2 + g1 * np.sin(th1) - b1 * w1
        r2 = zero + ks_r * w1 * w1 + g2 * np.sin(th2) - b2 * w2
        # closed-form 2x2 solve keeps batch and single paths identical
        acc1 = (c * r1 - bb * r2) / det
        acc2 = (a * r2 - bb * r1) / det
        u0, u1 = u[..., 0], u[..., 1]
        z0, z1 = zero * u0, zero * u1
        nb = -bb / det
        out = np.empty(x.shape)  # u broadcasts against x's rows
        np.add(w1 + z0, z1, out=out[..., 0])
        np.add(w2 + z0, z1, out=out[..., 1])
        np.add(acc1 + c / det * u0, nb * u1, out=out[..., 2])
        np.add(acc2 + nb * u0, a / det * u1, out=out[..., 3])
        return out

    return ControlAffinePlant(
        name="double_pendulum", state_dim=4, input_dim=2, rhs=rhs,
        input_bounds=np.array([[-input_bound, input_bound]] * 2),
        params={"m1": m1, "m2": m2, "l1": l1, "l2": l2,
                "gravity": gravity, "damping": [b1, b2]},
    )


def rk4_step(plant: ControlAffinePlant, x, u, dt: float) -> np.ndarray:
    """Classical RK4 update with zero-order-hold input over the step.

    Accepts a single state (d_x,) or a batch (N, d_x); u broadcasts the
    same way.  A non-finite update is returned as it is; ``rollout``
    detects and records divergence.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    f = plant.rhs
    h, dt, sixth, two = _rk4_constants(float(dt))
    k1 = f(x, u)
    k2 = f(x + h * k1, u)
    k3 = f(x + h * k2, u)
    k4 = f(x + dt * k3, u)
    return x + sixth * (k1 + two * k2 + two * k3 + k4)


def rollout(plant: ControlAffinePlant, x0, controller, T: int, dt: float):
    """Roll the plant forward T steps under a feedback law.

    ``x0`` is one state (d_x,) or a batch (B, d_x); the whole batch is
    stepped together.  ``controller`` maps states shaped like ``x0`` to
    inputs (d_u,) or (B, d_u), or to one (d_u,) input for every row.
    Controls are clipped to the plant input bounds before integration.

    A row whose update goes non-finite at step k is truncated to its
    first k + 1 states and k inputs and flagged ``diverged``; it is
    parked at the origin so the other rows, which are stepped exactly
    as they would be alone, carry on.  Returns a Trajectory for a single
    state and a list of Trajectories, one per row, for a batch.
    """
    x = np.asarray(x0, dtype=float).copy()
    lead = x.shape[:-1]
    d_u = plant.input_dim
    lo = plant.input_bounds[:, 0]
    hi = plant.input_bounds[:, 1]
    states = np.zeros(lead + (T + 1, plant.state_dim))
    inputs = np.zeros(lead + (T, d_u))
    states[..., 0, :] = x
    n_ok = np.full(lead, T)  # steps completed before the first non-finite one
    # diverging rows overflow on their way out; n_ok records them instead
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(T):
            # np.clip(u, lo, hi) bitwise, NaNs and signed zeros included,
            # written where the input is stored: a (d_u,) input broadcasts
            # into its rows, and the entries of a row that fails at this
            # step lie past its cut
            u = inputs[..., k, :]
            np.minimum(hi, np.maximum(lo, controller(x), out=u), out=u)
            x = rk4_step(plant, x, u, dt)
            if not np.isfinite(x).all():
                bad = ~np.all(np.isfinite(x), axis=-1)
                n_ok[bad & (n_ok == T)] = k
                if np.all(n_ok < T):
                    break
                x[bad] = 0.0
            states[..., k + 1, :] = x
    trajs = [Trajectory(states=xs[: n + 1], inputs=us[:n], dt=dt,
                        diverged=bool(n < T))
             for xs, us, n in zip(states.reshape(-1, T + 1, plant.state_dim),
                                  inputs.reshape(-1, T, d_u), n_ok.ravel())]
    return trajs if lead else trajs[0]
