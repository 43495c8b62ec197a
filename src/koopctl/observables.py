"""Lifting maps from plant states to observable vectors.

A map is an ordered tuple of primitive features, each the product of

* a monomial in the state components,
* zero or more sine/cosine factors of linear state combinations, and
* an optional rational factor 1 / (offset + scale * cos(c . x)).

The first ``state_dim`` features must be the raw state components in
order, so that the decoding operator [I 0] recovers the state exactly.
Feature ordering is frozen: every downstream matrix is indexed against it
and serialized map descriptors record it.

A map is compiled once into a lift plan of its distinct pieces: powers
of state components, linear combinations, sin/cos terms keyed by (kind,
coefficients) and denominators.  Each call evaluates every piece once
and writes each feature into its column of one preallocated output.
``evaluate_batch`` hands the plan, one chunk of states at a time, the
transpose of that chunk's columns of a feature-major (d_psi, N) array as
its output, so each feature is written into one contiguous row and the
pieces are one chunk wide; ``ObservableMap.__call__`` keeps the C-ordered
(..., d_psi) output that single states and small batches use.
The plan keeps the per-feature operation order, so every value is
bitwise what evaluating the feature on its own gives:

* a feature is 1.0 times its poly factors in index order, times its
  trig factors in listed order, divided by its denominator; the plan
  starts the product at the first factor, which is exact as 1.0 * y == y;
* a linear combination is 0.0 + c_i x_i + ... in index order over the
  nonzero coefficients; the leading 0.0 + stays, because it turns a
  -0.0 first term into +0.0;
* a denominator is offset + scale * cos(c . x).

Sums are accumulated term by term, never as dot products, so one state
and any batch shape give the same bits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tensor import row_chunks


@dataclass(frozen=True)
class Feature:
    """One scalar observable; ``ObservableMap`` evaluates it elementwise."""

    label: str
    poly: tuple = ()     # monomial exponents, one per state component
    trigs: tuple = ()    # ((kind, coeffs), ...) with kind "sin" or "cos"
    denom: tuple = None  # (offset, scale, coeffs) or None

    def to_descriptor(self) -> dict:
        d = {"label": self.label, "poly": list(self.poly),
             "trigs": [[k, list(c)] for k, c in self.trigs]}
        if self.denom is not None:
            d["denom"] = {"offset": self.denom[0], "scale": self.denom[1],
                          "coeffs": list(self.denom[2])}
        return d


def _linear_combination(x, coeffs):
    """0.0 + c_i x_i + ... over the nonzero coefficients, in index order."""
    acc = None
    for i, c in enumerate(coeffs):
        if c:
            term = c * x[..., i]
            if acc is None:
                acc = np.add(term, 0.0, out=term)  # turns -0.0 into +0.0
            else:
                acc += term
    return np.zeros(x.shape[:-1]) if acc is None else acc


class LiftPlan:
    """The distinct pieces of a feature tuple, and each feature's recipe.

    ``powers`` holds (piece, i, p) for x_i ** p; ``combos`` holds each
    distinct linear combination with the (piece, kind) sin/cos terms of
    it; ``denoms`` holds (offset, scale, cos piece); ``columns`` holds
    each feature's factor pieces and denominator index (or None).
    """

    def __init__(self, features):
        pieces = {}  # ("pow", i, p) or ("trig", kind, coeffs) -> piece
        denoms = {}  # (offset, scale, cos piece) -> denominator index

        def piece(*key):
            return pieces.setdefault(key, len(pieces))

        def trig(kind, coeffs):
            return piece("trig", kind, tuple(float(c) for c in coeffs))

        columns = []
        for f in features:
            refs = [piece("pow", i, p) for i, p in enumerate(f.poly) if p]
            refs += [trig(kind, coeffs) for kind, coeffs in f.trigs]
            den = None
            if f.denom is not None:
                offset, scale, coeffs = f.denom
                den = denoms.setdefault(
                    (offset, scale, trig("cos", coeffs)), len(denoms))
            columns.append((tuple(refs), den))
        combos = {}
        for (tag, kind, coeffs), k in pieces.items():
            if tag == "trig":
                combos.setdefault(coeffs, []).append((k, kind))
        self.n_pieces = len(pieces)
        self.powers = tuple((k, i, p) for (tag, i, p), k in pieces.items()
                            if tag == "pow")
        self.combos = tuple((c, tuple(t)) for c, t in combos.items())
        self.denoms = tuple(denoms)
        self.columns = tuple(columns)

    def __call__(self, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Lift float states x of shape (..., d_x) to (..., n_features).

        ``out``, when given, is any float array of that shape (a transposed
        feature-major array among them); it is filled and returned.
        """
        if x.ndim == 1:  # one state: a batch of one keeps every piece an array
            return self(x[None], None if out is None else out[None])[0]
        # the output is allocated before any piece, so a large batch
        # peaks at the output plus the pieces, not pieces plus output
        if out is None:
            out = np.empty(x.shape[:-1] + (len(self.columns),))
        vals = [None] * self.n_pieces
        for k, i, p in self.powers:
            vals[k] = x[..., i] if p == 1 else x[..., i] ** p
        for coeffs, trigs in self.combos:
            arg = _linear_combination(x, coeffs)
            for k, kind in trigs:
                vals[k] = np.sin(arg) if kind == "sin" else np.cos(arg)
        dens = [offset + scale * vals[k] for offset, scale, k in self.denoms]
        for j, (refs, den) in enumerate(self.columns):
            col = out[..., j]
            if len(refs) > 1:
                np.multiply(vals[refs[0]], vals[refs[1]], out=col)
                for k in refs[2:]:
                    np.multiply(col, vals[k], out=col)
            else:
                col[...] = vals[refs[0]] if refs else 1.0
            if den is not None:
                np.divide(col, dens[den], out=col)
        return out


def feature_from_descriptor(d: dict) -> Feature:
    denom = None
    if d.get("denom") is not None:
        dd = d["denom"]
        denom = (float(dd["offset"]), float(dd["scale"]), tuple(dd["coeffs"]))
    return Feature(
        label=d["label"],
        poly=tuple(int(p) for p in d.get("poly", [])),
        trigs=tuple((k, tuple(c)) for k, c in d.get("trigs", [])),
        denom=denom,
    )


def state_feature(i: int, d_x: int, label: str) -> Feature:
    exps = [0] * d_x
    exps[i] = 1
    return Feature(label=label, poly=tuple(exps))


@dataclass(frozen=True)
class ObservableMap:
    """Ordered finite basis psi with the raw state as its leading block."""

    name: str
    state_dim: int
    features: tuple = field(default_factory=tuple)

    def __post_init__(self):
        d_x = self.state_dim
        if len(self.features) < d_x:
            raise ValueError(f"{len(self.features)} features cannot hold the "
                             f"{d_x} raw state components")
        for f in self.features:
            coeffs = [c for _, c in f.trigs]
            if f.denom is not None:
                coeffs.append(f.denom[2])
            if any(len(c) > d_x for c in [f.poly, *coeffs]):
                raise ValueError(f"feature {f.label!r} has more exponents or "
                                 f"coefficients than the {d_x} state components")
            if any(kind not in ("sin", "cos") for kind, _ in f.trigs):
                raise ValueError(f"feature {f.label!r} has a trig kind other "
                                 "than sin or cos")
        for i in range(d_x):
            f = self.features[i]
            want = tuple(1 if j == i else 0 for j in range(d_x))
            if f.poly != want or f.trigs or f.denom is not None:
                raise ValueError(
                    f"feature {i} must be the raw state component x[{i}]"
                )

    @property
    def dim(self) -> int:
        return len(self.features)

    @property
    def labels(self):
        return [f.label for f in self.features]

    @cached_property
    def plan(self) -> LiftPlan:
        return LiftPlan(self.features)

    def __call__(self, x, out: np.ndarray = None) -> np.ndarray:
        """Lift a single state (d_x,) or a batch (..., d_x) to (..., d_psi),
        into ``out`` when given (see ``LiftPlan.__call__``)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.state_dim:
            raise ValueError(
                f"state has dimension {x.shape[-1]}, map expects {self.state_dim}"
            )
        return self.plan(x, out)

    def to_descriptor(self) -> dict:
        return {"name": self.name, "state_dim": self.state_dim,
                "features": [f.to_descriptor() for f in self.features]}


def map_from_descriptor(d: dict) -> ObservableMap:
    return ObservableMap(
        name=d["name"],
        state_dim=int(d["state_dim"]),
        features=tuple(feature_from_descriptor(f) for f in d["features"]),
    )


def descriptor_hash(descriptor: dict) -> str:
    blob = json.dumps(descriptor, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def map_hash(m: ObservableMap) -> str:
    return descriptor_hash(m.to_descriptor())


def single_pendulum_map() -> ObservableMap:
    """9-feature map [x; 1; x^2; sin(x); cos(x)] with blocks elementwise."""
    feats = [
        state_feature(0, 2, "theta"),
        state_feature(1, 2, "theta_dot"),
        Feature(label="1"),
        Feature(label="theta^2", poly=(2, 0)),
        Feature(label="theta_dot^2", poly=(0, 2)),
        Feature(label="sin(theta)", trigs=(("sin", (1.0, 0.0)),)),
        Feature(label="sin(theta_dot)", trigs=(("sin", (0.0, 1.0)),)),
        Feature(label="cos(theta)", trigs=(("cos", (1.0, 0.0)),)),
        Feature(label="cos(theta_dot)", trigs=(("cos", (0.0, 1.0)),)),
    ]
    return ObservableMap(name="single_pendulum", state_dim=2,
                         features=tuple(feats))


def double_pendulum_map() -> ObservableMap:
    """14-feature map with rational terms scaled by D = 1/(3 - 2 cos(th_r)).

    th_r = th1 - th2; the denominator stays inside [1, 5], so every
    feature is bounded on bounded states.
    """
    D = (3.0, -2.0, (1.0, -1.0, 0.0, 0.0))  # 1 / (3 - 2 cos(th1 - th2))

    def rational(label, poly=(), trigs=()):
        return Feature(label=label, poly=poly, trigs=trigs, denom=D)

    feats = [
        state_feature(0, 4, "th1"),
        state_feature(1, 4, "th2"),
        state_feature(2, 4, "th1_dot"),
        state_feature(3, 4, "th2_dot"),
        Feature(label="1"),
        rational("D*sin(th1)", trigs=(("sin", (1, 0, 0, 0)),)),
        rational("D*sin(th_r)", trigs=(("sin", (1, -1, 0, 0)),)),
        rational("D*sin(th1-2*th2)", trigs=(("sin", (1, -2, 0, 0)),)),
        rational("D*sin(th_r)*cos(th1)",
                 trigs=(("sin", (1, -1, 0, 0)), ("cos", (1, 0, 0, 0)))),
        rational("D*cos(th_r)*sin(th1)",
                 trigs=(("cos", (1, -1, 0, 0)), ("sin", (1, 0, 0, 0)))),
        rational("D*th1_dot^2*sin(th_r)", poly=(0, 0, 2, 0),
                 trigs=(("sin", (1, -1, 0, 0)),)),
        rational("D*th2_dot^2*sin(th_r)", poly=(0, 0, 0, 2),
                 trigs=(("sin", (1, -1, 0, 0)),)),
        rational("D*th1_dot^2*sin(2*th_r)", poly=(0, 0, 2, 0),
                 trigs=(("sin", (2, -2, 0, 0)),)),
        rational("D*th2_dot^2*sin(2*th_r)", poly=(0, 0, 0, 2),
                 trigs=(("sin", (2, -2, 0, 0)),)),
    ]
    return ObservableMap(name="double_pendulum", state_dim=4,
                         features=tuple(feats))


def decoding_operator(m: ObservableMap) -> np.ndarray:
    """Binary [I_{d_x} 0] extracting the state from the lifted vector."""
    a = np.zeros((m.state_dim, m.dim))
    a[:, : m.state_dim] = np.eye(m.state_dim)
    return a


def evaluate_batch(m: ObservableMap, states) -> np.ndarray:
    """Lift a list of states into a C-contiguous (d_psi, N) matrix, one
    column per state: each feature is one contiguous row, which an
    ``ObservableMap`` writes directly.

    The states are lifted in ``row_chunks`` of QR_CHUNK, each straight
    into its columns, so the piece temporaries of a lift are one chunk
    wide whatever N is; every lift is row-wise, so the bits are those of
    one lift of all states.

    Raises on non-finite feature values, naming the offending state index.
    """
    states = np.asarray(states, dtype=float)
    if states.size == 0:
        return np.zeros((m.dim, 0))
    if states.ndim == 1:
        states = states.reshape(1, -1)
    cols = np.empty((m.dim, states.shape[0]))
    for s in row_chunks(states.shape[0]):
        with np.errstate(all="ignore"):  # non-finite values are flagged below
            if isinstance(m, ObservableMap):
                m(states[s], out=cols[:, s].T)
            else:  # any other callable map: its (n, d_psi) lift, copied
                cols[:, s] = m(states[s]).T
        bad = np.nonzero(~np.all(np.isfinite(cols[:, s]), axis=0))[0]
        if bad.size:
            raise ValueError(
                f"non-finite feature values at state index "
                f"{s.start + int(bad[0])}"
            )
    return cols


def polynomial_map(name: str, degrees, d_x: int = 1) -> ObservableMap:
    """Monomial map for scalar-state systems, e.g. degrees (1, 2, 3).

    The first degree must be 1 so the state leads the feature list.
    """
    if d_x != 1:
        raise ValueError("polynomial_map only supports scalar states")
    feats = [state_feature(0, 1, "x")]
    for d in degrees[1:]:
        feats.append(Feature(label=f"x^{d}", poly=(int(d),)))
    if tuple(degrees[:1]) != (1,):
        raise ValueError("first degree must be 1 (raw state leads)")
    return ObservableMap(name=name, state_dim=1, features=tuple(feats))
