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
coefficients) and denominators.  Each call copies the raw-state block
into one preallocated output in one assignment, evaluates every piece
once and writes each other feature into its column; a piece that is the
only factor of one column and of no other (a square, a sine or a
cosine) is computed straight into that column, with no temporary.
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
  -0.0 first term into +0.0, and a unit term is x_i itself, as
  1.0 * x_i == x_i exactly;
* x_i ** 2 is np.square(x_i), the ufunc x_i ** 2 calls;
* a denominator is offset + scale * cos(c . x).

Sums are accumulated term by term, never as dot products, so one state
and any batch shape give the same bits.

The plan holds its coefficients, offsets and scales as 0-d float64
arrays: numpy resolves a Python float operand anew as a weak scalar on
every call, which costs more than the arithmetic on a small batch.  A
0-d array is a strong operand under numpy 2's promotion rules (NEP 50),
so states must be float64, as ``ObservableMap.__call__`` makes them; a
float32 state handed to the plan would be promoted to float64.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tensor import as_number, constants, row_chunks


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


class LiftPlan:
    """The distinct pieces of a feature tuple, and each feature's recipe.

    The first ``d_x`` features are the raw state, copied as one block.
    ``powers`` holds (piece, i, p, j) for x_i ** p; ``combos`` holds each
    distinct linear combination, as its nonzero (i, c) terms with c None
    for a unit coefficient, with the (piece, np.sin or np.cos, j) terms
    of it; ``denoms`` holds (offset, scale, cos piece).  j is the column
    of a piece that is the only factor of that column and of no other
    (a square or a sin/cos), which is computed straight into it, or None.
    ``products`` holds (j, factor pieces) for each other column past the
    raw block; ``divides`` holds (j, denominator index).
    """

    def __init__(self, features, d_x: int):
        pieces = {}  # ("pow", i, p) or ("trig", kind, coeffs) -> piece
        denoms = {}  # (offset, scale, cos piece) -> denominator index

        def piece(*key):
            return pieces.setdefault(key, len(pieces))

        def trig(kind, coeffs):
            return piece("trig", kind, tuple(float(c) for c in coeffs))

        columns = []
        for f in features[d_x:]:
            refs = [piece("pow", i, p) for i, p in enumerate(f.poly) if p]
            refs += [trig(kind, coeffs) for kind, coeffs in f.trigs]
            den = None
            if f.denom is not None:
                offset, scale, coeffs = f.denom
                den = denoms.setdefault(
                    (offset, scale, trig("cos", coeffs)), len(denoms))
            columns.append((tuple(refs), den))
        keys = list(pieces)  # piece -> key
        uses = Counter([k for refs, _ in columns for k in refs]
                       + [k for _, _, k in denoms])
        home = {}  # piece -> the one column it is computed into
        for j, (refs, _) in enumerate(columns, d_x):
            if len(refs) == 1 and uses[refs[0]] == 1 and (
                    keys[refs[0]][0] == "trig" or keys[refs[0]][2] == 2):
                home[refs[0]] = j
        combos = {}
        for (tag, kind, coeffs), k in pieces.items():
            if tag == "trig":
                combos.setdefault(coeffs, []).append(
                    (k, np.sin if kind == "sin" else np.cos, home.get(k)))
        self.d_x = d_x
        self.n_columns = len(features)
        self.n_pieces = len(pieces)
        self.powers = tuple((k, i, p, home.get(k))
                            for (tag, i, p), k in pieces.items()
                            if tag == "pow")
        self.combos = tuple(
            (tuple((i, None if c == 1.0 else constants(c)[0])
                   for i, c in enumerate(coeffs) if c), tuple(t))
            for coeffs, t in combos.items())
        self.denoms = tuple((*constants(offset, scale), k)
                            for offset, scale, k in denoms)
        homed = set(home.values())
        self.products = tuple((j, refs) for j, (refs, _)
                              in enumerate(columns, d_x) if j not in homed)
        self.divides = tuple((j, den) for j, (_, den)
                             in enumerate(columns, d_x) if den is not None)
        self.zero, = constants(0.0)

    def __call__(self, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Lift float64 states x of shape (..., d_x) to (..., n_features).

        ``out``, when given, is any float64 array of that shape (a
        transposed feature-major array among them); it is filled and
        returned.
        """
        if x.ndim == 1:  # one state: a batch of one keeps every piece an array
            return self(x[None], None if out is None else out[None])[0]
        # the output is allocated before any piece, so a large batch
        # peaks at the output plus the pieces, not pieces plus output
        if out is None:
            out = np.empty(x.shape[:-1] + (self.n_columns,))
        out[..., : self.d_x] = x
        vals = [None] * self.n_pieces
        for k, i, p, j in self.powers:
            xi = x[..., i]
            if p == 1:
                vals[k] = xi
            elif p == 2:  # the ufunc x ** 2 calls
                vals[k] = np.square(xi, out=None if j is None else out[..., j])
            else:
                vals[k] = xi ** p
        for terms, trigs in self.combos:
            arg = self._linear_combination(x, terms)
            for k, fn, j in trigs:
                vals[k] = fn(arg, out=None if j is None else out[..., j])
        dens = [offset + scale * vals[k] for offset, scale, k in self.denoms]
        for j, refs in self.products:
            col = out[..., j]
            if len(refs) > 1:
                np.multiply(vals[refs[0]], vals[refs[1]], out=col)
                for k in refs[2:]:
                    np.multiply(col, vals[k], out=col)
            else:
                col[...] = vals[refs[0]] if refs else 1.0
        for j, den in self.divides:
            col = out[..., j]
            np.divide(col, dens[den], out=col)
        return out

    def _linear_combination(self, x, terms):
        """0.0 + c_i x_i + ... over the nonzero terms, in index order; a
        unit term is x_i itself, as 1.0 * x_i == x_i exactly."""
        acc = None
        for i, c in terms:
            term = x[..., i] if c is None else c * x[..., i]
            if acc is None:  # 0.0 + turns a -0.0 first term into +0.0
                acc = np.add(term, self.zero, out=None if c is None else term)
            else:
                acc += term
        return np.zeros(x.shape[:-1]) if acc is None else acc


def feature_from_descriptor(d: dict) -> Feature:
    dd, name = d.get("denom"), f"feature {d['label']!r} denominator"
    return Feature(
        label=d["label"],
        poly=tuple(d.get("poly", [])),
        trigs=tuple((k, tuple(c)) for k, c in d.get("trigs", [])),
        # checked, then stored as floats, so descriptors keep their bytes
        denom=None if dd is None else (
            as_number(dd["offset"], f"{name} offset"),
            as_number(dd["scale"], f"{name} scale"), tuple(dd["coeffs"])),
    )


def state_feature(i: int, d_x: int, label: str) -> Feature:
    return Feature(label=label, poly=tuple(int(j == i) for j in range(d_x)))


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
            # checked, not converted: the descriptor keeps them as given
            for v in [v for c in coeffs for v in c]:
                as_number(v, f"feature {f.label!r} coefficient")
            for p in f.poly:
                as_number(p, f"feature {f.label!r} exponent", integer=True)
            if any(kind not in ("sin", "cos") for kind, _ in f.trigs):
                raise ValueError(f"feature {f.label!r} has a trig kind other "
                                 "than sin or cos")
        for i, f in enumerate(self.features[:d_x]):
            if f != state_feature(i, d_x, f.label):
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
        return LiftPlan(self.features, self.state_dim)

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
    return np.eye(m.state_dim, m.dim)


def evaluate_batch(m: ObservableMap, *blocks, out: np.ndarray = None
                   ) -> np.ndarray:
    """Lift a list of states, or the row stack of several arrays of
    states ``blocks``, into a C-contiguous (d_psi, N) matrix (``out``,
    when given), one column per state: each feature is one contiguous
    row, which an ``ObservableMap`` writes directly.

    The states are lifted in ``row_chunks`` of QR_CHUNK, each straight
    into its columns, so the piece temporaries of a lift are one chunk
    wide whatever N is, and the blocks are never stacked: only a chunk
    that straddles two of them, or whose rows are not C-contiguous, is
    copied.  So ``out``'s own raw-state rows, transposed, may be the one
    block.  Every lift is row-wise, so the bits are those of one lift of
    all states.

    Raises on non-finite feature values, naming the offending state index.
    """
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    blocks = [b.reshape(1, -1) if b.ndim == 1 else b for b in blocks]
    if sum(b.size for b in blocks) == 0:
        return np.zeros((m.dim, 0))
    cols = np.empty((m.dim, sum(len(b) for b in blocks))) if out is None \
        else out
    for s in row_chunks(cols.shape[1]):
        states = _stacked_rows(blocks, s)
        with np.errstate(all="ignore"):  # non-finite values are flagged below
            if isinstance(m, ObservableMap):
                m(states, out=cols[:, s].T)
            else:  # any other callable map: its (n, d_psi) lift, copied
                cols[:, s] = m(states).T
        bad = np.nonzero(~np.all(np.isfinite(cols[:, s]), axis=0))[0]
        if bad.size:
            raise ValueError(
                f"non-finite feature values at state index "
                f"{s.start + int(bad[0])}"
            )
    return cols


def _stacked_rows(blocks, s: slice) -> np.ndarray:
    """Rows ``s`` of the row stack of ``blocks``, C-ordered: a view of one
    block, or a copy when ``s`` straddles several or its rows are
    strided."""
    parts, at = [], 0
    for b in blocks:
        if s.start < at + len(b) and at < s.stop:
            parts.append(b[max(s.start - at, 0): s.stop - at])
        at += len(b)
    return np.ascontiguousarray(parts[0]) if len(parts) == 1 \
        else np.concatenate(parts)


def polynomial_map(name: str, degrees) -> ObservableMap:
    """Monomial map for scalar-state systems, e.g. degrees (1, 2, 3).

    The first degree must be 1 so the state leads the feature list.
    """
    feats = [state_feature(0, 1, "x")]
    for d in degrees[1:]:
        feats.append(Feature(label=f"x^{d}", poly=(int(d),)))
    if tuple(degrees[:1]) != (1,):
        raise ValueError("first degree must be 1 (raw state leads)")
    return ObservableMap(name=name, state_dim=1, features=tuple(feats))
