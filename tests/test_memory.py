"""Working memory of the N-column passes, measured with tracemalloc.

A dataset holds each state once: x, u, traj_id and the tails of x_next
(with their row indices), nothing else N rows long.  A pass over N
snapshots may hold the dataset's lift psi (d_psi x (N + n_tails) floats)
plus a fixed number of QR_CHUNK-wide buffers, whatever N is.  The bounds
are on a double-pendulum dataset of about 3 QR_CHUNK snapshots (24,600,
d_psi = 14), set from measurement with a margin:

=====================  ========  =====  ===================================
pass                   measured  bound  unit
=====================  ========  =====  ===================================
generate_dataset held  1.004     1.05   bytes of x, u, traj_id and tails
load_dataset held      1.008     1.05   bytes of x, u, traj_id and tails
load_dataset peak      0.91      1.1    bytes of x, u, traj_id and tails,
                                        beyond two numpy read buffers
evaluate_batch         0.79      1.25   d_psi x QR_CHUNK floats, beyond psi
fit_pair               1.54      2      d_psi (d_psi + 1) / 2 x QR_CHUNK
                                        floats, beyond psi
identify_model         5.39      6      d_psi x QR_CHUNK floats, psi
                                        already lifted
identify_model         5.39      6      d_psi x QR_CHUNK floats, beyond
                                        psi, which it lifts
=====================  ========  =====  ===================================

Beyond the arrays, a load holds two ``np.lib.format.BUFFER_SIZE`` (256
KiB) buffers: numpy reads an npz member in pieces of that size, and
zipfile copies each piece once.  They do not grow with N; here they are
0.38 of the arrays.  A dataset that also holds x_next and the three
index arrays measures 2.02 held (a load that builds them peaks at 1.86
with the buffers), a whole-array lift (its pieces N wide) 2.36, a fit
with a second product buffer 2.40, and an identification that lifts
again and forms (S psi) kron u for every snapshot 8.97 on a lifted
dataset.  LAPACK's workspaces are not traced.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from koopctl import babbling, edmd, factorization, observables, plants
from koopctl.tensor import QR_CHUNK

FLOAT = 8


def babbled():
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


@pytest.fixture
def dataset():
    """A fresh dataset, so every test starts without a kept lift."""
    return babbled()


def traced(fn):
    """(bytes still held, peak bytes) of what ``fn()`` allocates, its
    result included."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        del result
        return held, peak
    finally:
        tracemalloc.stop()


def traced_peak(fn) -> int:
    return traced(fn)[1]


def lean_bytes(ds) -> int:
    return sum(a.nbytes for a in (ds.x, ds.u, ds.traj_id, ds.tails,
                                  ds.tail_rows))


@pytest.mark.parametrize("source", ["generated", "loaded"])
def test_dataset_holds_each_state_once(source, tmp_path):
    def make():
        if source == "generated":
            return babbled()[0]
        return babbling.load_dataset(tmp_path)

    babbling.save_dataset(babbled()[0], tmp_path)
    ds = make()   # first calls build lift plans and import lazily
    held, _ = traced(make)
    arrays = [v for v in vars(ds).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == lean_bytes(ds)
    assert ds._provenance == {} and ds._psi == {}
    assert ds.n_trajectories <= len(ds.tails) < ds.n_trajectories + 5
    assert held <= 1.05 * lean_bytes(ds)


def test_load_dataset_peaks_at_the_arrays_it_keeps(tmp_path):
    ds = babbled()[0]
    babbling.save_dataset(ds, tmp_path)
    babbling.load_dataset(tmp_path)   # first calls import lazily
    peak = traced_peak(lambda: babbling.load_dataset(tmp_path))
    assert peak <= 1.1 * lean_bytes(ds) + 2 * np.lib.format.BUFFER_SIZE


def test_evaluate_batch_holds_psi_and_one_chunk(dataset):
    ds, m = dataset
    psi = m.dim * len(ds) * FLOAT
    chunk = m.dim * QR_CHUNK * FLOAT
    peak = traced_peak(lambda: observables.evaluate_batch(m, ds.x))
    assert peak <= psi + 1.25 * chunk


def test_fit_pair_holds_psi_and_two_product_chunks(dataset):
    ds, m = dataset
    psi = m.dim * (len(ds) + len(ds.tails)) * FLOAT
    products = m.dim * (m.dim + 1) // 2 * QR_CHUNK * FLOAT
    peak = traced_peak(lambda: factorization.fit_pair(ds, m, m))
    assert peak <= psi + 2 * products


def test_identify_model_on_a_lifted_dataset_holds_six_chunks(dataset):
    ds, m = dataset
    s = factorization.fit_pair(ds, m, m).S   # lifts ds once, for both
    chunk = m.dim * QR_CHUNK * FLOAT
    peak = traced_peak(lambda: edmd.identify_model(ds, m, s))
    assert peak <= 6 * chunk


def test_identify_model_holds_psi_and_six_chunks(dataset):
    ds, m = dataset
    s = factorization.fit_pair(babbled()[0], m, m).S
    psi = m.dim * (len(ds) + len(ds.tails)) * FLOAT
    chunk = m.dim * QR_CHUNK * FLOAT
    peak = traced_peak(lambda: edmd.identify_model(ds, m, s))
    assert peak <= psi + 6 * chunk
