"""Working memory of the N-column passes, measured with tracemalloc.

A pass over N snapshots may hold its lifted array psi (d_psi x N floats)
plus a fixed number of QR_CHUNK-wide buffers, whatever N is.  The bounds
are in units of such buffers on a double-pendulum dataset of about
3 QR_CHUNK snapshots (24,600, d_psi = 14), set from measurement with a
margin:

=================  ========  =====  =======================================
pass               measured  bound  unit
=================  ========  =====  =======================================
evaluate_batch     0.79      1.25   d_psi x QR_CHUNK floats
fit_pair           1.54      2      d_psi (d_psi + 1) / 2 x QR_CHUNK floats
identify_model     5.93      7      d_psi x QR_CHUNK floats
=================  ========  =====  =======================================

A whole-array lift (its pieces N wide) measures 2.36, a fit with a second
product buffer 2.40, and an identification that builds psi(x_next) 8.69.
LAPACK's workspaces are not traced.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from koopctl import babbling, edmd, factorization, observables, plants
from koopctl.tensor import QR_CHUNK

FLOAT = 8


@pytest.fixture(scope="module")
def dataset():
    m = observables.double_pendulum_map()
    cfg = babbling.BabblingConfig(
        num_gains=2, num_initial_conditions=123, gain_scale=1.0,
        state_grid=((-np.pi, np.pi), (-np.pi, np.pi), (-2.0, 2.0),
                    (-2.0, 2.0)),
        steps=100, dt=0.01, seed=0)
    ds = babbling.generate_dataset(plants.double_pendulum(gravity=1.0),
                                   m, m, cfg)
    assert 3 * QR_CHUNK < len(ds) < 3 * QR_CHUNK + 100
    return ds, m


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, its result included."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_batch_holds_psi_and_one_chunk(dataset):
    ds, m = dataset
    psi = m.dim * len(ds) * FLOAT
    chunk = m.dim * QR_CHUNK * FLOAT
    peak = traced_peak(lambda: observables.evaluate_batch(m, ds.x))
    assert peak <= psi + 1.25 * chunk


def test_fit_pair_holds_psi_and_two_product_chunks(dataset):
    ds, m = dataset
    psi = m.dim * len(ds) * FLOAT
    products = m.dim * (m.dim + 1) // 2 * QR_CHUNK * FLOAT
    peak = traced_peak(lambda: factorization.fit_pair(ds, m, m))
    assert peak <= psi + 2 * products


def test_identify_model_holds_psi_and_seven_chunks(dataset):
    ds, m = dataset
    s = factorization.fit_pair(ds, m, m).S
    # psi(x) and the lift of the ds.n_trajectories trajectory ends
    psi = m.dim * (len(ds) + ds.n_trajectories) * FLOAT
    chunk = m.dim * QR_CHUNK * FLOAT
    peak = traced_peak(lambda: edmd.identify_model(ds, m, s))
    assert peak <= psi + 7 * chunk
