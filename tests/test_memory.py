"""Working memory of the N-column passes, measured with tracemalloc.

A dataset holds each state once: x, u, the tails of x_next (with their
row indices) and the trajectory ids as runs (``traj_ids`` and
``traj_ends``, one entry per run), nothing else N rows long.  Once
lifted, it holds each state inside its lift: x and the tails are views
of psi's raw-state rows, and psi and u are its only N-wide arrays.  A
load given the map reads x and the tails straight into those rows.  A
pass over N snapshots may hold the dataset's lift psi (d_psi x (N +
n_tails) floats) plus a fixed number of QR_CHUNK-wide buffers, whatever
N is.  The bounds are on a double-pendulum dataset of about 3 QR_CHUNK
snapshots (12,300, d_psi = 14), set from measurement with a margin:

=====================  ========  =====  ===================================
pass                   measured  bound  unit
=====================  ========  =====  ===================================
generate_dataset held  1.022     1.05   bytes of x, u, traj_ids, traj_ends,
                                        tail_rows and tails ("lean")
load_dataset held      1.019     1.05   lean bytes
load_dataset peak      2.08      3      QR_CHUNK-row pieces of x, beyond
                                        the lean bytes
load_dataset(m) held   1.008     1.05   bytes of psi, u, traj_ids,
                                        traj_ends and tail_rows ("own")
load_dataset(m) peak   3.08      4      pieces of x, beyond what it holds
lift (dataset)         1.01      1.25   d_psi x QR_CHUNK floats, beyond psi
lift (loaded)          1.01      1.25   d_psi x QR_CHUNK floats, psi
                                        already allocated by the load
lifted dataset held    1.010     1.05   own bytes
evaluate_batch         0.72      1.25   d_psi x QR_CHUNK floats, beyond psi
fit_pair               1.54      2      d_psi (d_psi + 1) / 2 x QR_CHUNK
                                        floats, beyond psi
identify_model         5.37      6      d_psi x QR_CHUNK floats, psi
                                        already lifted
identify_model         5.37      6      d_psi x QR_CHUNK floats, beyond
                                        psi, which it lifts
=====================  ========  =====  ===================================

A load reads each npz member one piece at a time, through zipfile's
bytes of that piece (and, with the map, one piece-sized buffer for the
strided raw-state rows); the pieces do not grow with N, and x alone is
3 pieces here.  A dataset's lift copies each chunk of states from the
raw-state rows before lifting it, 0.29 of a d_psi-row chunk.  Before
the trajectory ids went to runs, a dataset also held one int64 id per
snapshot (lean bytes 1.16 times today's), and a load read x into an
array of its own, held beside psi until the first lift.  On the same
fixture at twice the snapshots and QR_CHUNK 8192, a dataset that also
held x_next and the three index arrays measured 2.02 held (a load that
builds them peaked at 1.86 with numpy's read buffers), a dataset lift
that first copies [x; tails] 1.66, a lifted dataset that keeps its own
x and tails 1.24 held, a whole-array lift (its pieces N wide) 2.36, a
fit with a second product buffer 2.40, and an identification that
lifts again and forms (S psi) kron u for every snapshot 8.97 on a
lifted dataset.  LAPACK's workspaces are not traced.

tracemalloc sees neither those workspaces nor the heap the allocator
keeps, so two ``slow`` tests guard the process itself, each in a fresh
interpreter, against its peak RSS growth over the post-import baseline,
on the criterion-7 dataset (216,000 snapshots); a product chunk is
d_psi (d_psi + 1) / 2 x QR_CHUNK floats (3.3 MiB):

* babble, ``fit_pair`` and ``identify_model`` in one process may grow
  by psi + the babbled dataset - x + 4.25 product chunks.  That is
  40.7 MiB; it measured 38.5-38.6 MiB (3.58-3.62 chunks in three runs),
  and 47.7-47.8 MiB when the lift first copies [x; tails] and the
  dataset keeps its own x.  About 6 MiB of the transient beyond psi and
  the dataset does not scale with the chunk (it measured 17.8 MiB at
  QR_CHUNK 8192 and 11.9 at 4096), so the multiplier is larger than the
  3.25 that held at 8192.
* ``cli.main`` babble, factorize and identify, each command loading the
  dataset the one before wrote, may grow by psi + u + the runs + 4.25
  product chunks, 40.6 MiB.  It measured 38.5-38.6 MiB (3.61-3.64
  chunks in three runs), and 43.0-43.1 MiB (4.96-5.01 chunks) when a
  load reads x into an array of its own and the dataset keeps one id
  per snapshot.

Both were measured on a 2-vCPU VM, numpy 2.4, OpenBLAS's default two
threads.  Each script imports ``hashlib`` before it reads its base, so
OpenSSL is loaded before the window and ``numpy.random``'s first import
(through ``secrets`` and ``hmac``, at babble) inside it, the window in
which the bounds were set, when koopctl's own import loaded hashlib.
With OpenSSL loading inside the window instead, the first run's growth
measured 41.9 MiB against its 40.7 MiB bound (38.1-38.2 MiB with it),
the model's memory unchanged.

The peak is VmHWM, the high-water mark of the process image: Linux
carries ``ru_maxrss`` across fork and exec, so in a child of the test
runner it would start at the runner's own peak.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import koopctl
from koopctl import babbling, edmd, factorization, observables, plants
from koopctl.tensor import QR_CHUNK

FLOAT = 8


def babbled():
    m = observables.double_pendulum_map()
    cfg = babbling.BabblingConfig(
        num_gains=3, num_initial_conditions=41, gain_scale=1.0,
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
    return sum(a.nbytes for a in (ds.x, ds.u, ds.traj_ids, ds.traj_ends,
                                  ds.tail_rows, ds.tails))


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
    assert ds._psi == {}
    assert ds.gain_index is ds.ic_index is ds.step_index is None
    assert ds.n_trajectories <= len(ds.tails) < ds.n_trajectories + 5
    assert held <= 1.05 * lean_bytes(ds)


def piece_bytes(ds) -> int:
    """Bytes of one QR_CHUNK-row piece of x, as a load reads it."""
    return QR_CHUNK * ds.x.shape[1] * FLOAT


def own_bytes(ds) -> int:
    """Bytes of the arrays a lifted dataset holds beside its lift."""
    return sum(a.nbytes for a in (ds.u, ds.traj_ids, ds.traj_ends,
                                  ds.tail_rows))


def test_load_dataset_peaks_at_the_arrays_it_keeps(tmp_path):
    ds = babbled()[0]
    babbling.save_dataset(ds, tmp_path)
    babbling.load_dataset(tmp_path)   # first calls import lazily
    peak = traced_peak(lambda: babbling.load_dataset(tmp_path))
    assert peak <= lean_bytes(ds) + 3 * piece_bytes(ds)


def test_load_with_the_map_reads_the_states_into_the_lift(tmp_path):
    # x and the tails only ever exist as the lift's raw-state rows, which
    # the first lift fills around
    ds, m = babbled()
    babbling.save_dataset(ds, tmp_path)
    babbling.load_dataset(tmp_path, m)   # first calls import lazily
    held, peak = traced(lambda: babbling.load_dataset(tmp_path, m))
    back = babbling.load_dataset(tmp_path, m)
    block = back._unfilled[m]
    assert back.x.base is block and back.tails.base is block
    own = [v for v in vars(back).values()
           if isinstance(v, np.ndarray) and v.base is not block]
    assert sum(a.nbytes for a in own) == own_bytes(back)
    assert held <= 1.05 * (block.nbytes + own_bytes(back))
    assert peak <= held + 4 * piece_bytes(back)
    chunk = m.dim * QR_CHUNK * FLOAT
    assert traced_peak(lambda: back.lift(m)) <= 1.25 * chunk
    assert back.lift(m) is block


def test_dataset_lift_holds_psi_and_one_chunk(dataset):
    # no [x; tails] copy: only a chunk that straddles the two is gathered
    ds, m = dataset
    psi = m.dim * (len(ds) + len(ds.tails)) * FLOAT
    chunk = m.dim * QR_CHUNK * FLOAT
    peak = traced_peak(lambda: ds.lift(m))
    assert peak <= psi + 1.25 * chunk


def lifted():
    ds, m = babbled()
    ds.lift(m)
    return ds, m


def test_lifted_dataset_holds_each_state_in_its_lift():
    lifted()   # first calls build lift plans and import lazily
    held, _ = traced(lifted)
    ds, m = lifted()
    psi = ds.lift(m)
    assert np.shares_memory(ds.x, psi) and np.shares_memory(ds.tails, psi)
    own = [v for v in vars(ds).values()
           if isinstance(v, np.ndarray) and not np.shares_memory(v, psi)]
    assert sum(a.nbytes for a in own) == own_bytes(ds)
    assert held <= 1.05 * (psi.nbytes + own_bytes(ds))


def test_lifted_states_are_read_only(dataset):
    ds, m = dataset
    ds.lift(m)
    with pytest.raises(ValueError, match="read-only"):
        ds.x[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ds.tails[0, 0] = 1.0


def test_save_after_lift_writes_the_same_bytes(dataset, tmp_path):
    ds, m = dataset
    babbling.save_dataset(ds, tmp_path / "before")
    psi = ds.lift(m)
    assert np.shares_memory(ds.x, psi)
    babbling.save_dataset(ds, tmp_path / "after")
    for name in ("manifest.json", babbling.PAYLOAD):
        assert (tmp_path / "before" / name).read_bytes() \
            == (tmp_path / "after" / name).read_bytes()
    assert ds.x_next.flags.c_contiguous


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


CRITERION_7_RUN = """
import hashlib  # OpenSSL loads before the base: see the module docstring
import json
import numpy as np
from koopctl import babbling, edmd, factorization, observables, plants
from koopctl.tensor import QR_CHUNK

plant = plants.double_pendulum(m1=1.0, m2=1.0, l1=1.0, l2=1.0, gravity=1.0)
m = observables.double_pendulum_map()
cfg = babbling.BabblingConfig(
    num_gains=20, num_initial_conditions=108, gain_scale=1.0,
    state_grid=((-np.pi, np.pi), (-np.pi, np.pi), (-2.0, 2.0), (-2.0, 2.0)),
    steps=100, dt=0.01, seed=0)


def peak_rss():
    with open("/proc/self/status") as fh:
        return 1024 * int(next(l for l in fh if l.startswith("VmHWM:"))
                          .split()[1])


base = peak_rss()
ds = babbling.generate_dataset(plant, m, m, cfg)
held = {"x": ds.x.nbytes, "dataset": sum(a.nbytes for a in (
    ds.x, ds.u, ds.traj_ids, ds.traj_ends, ds.tail_rows, ds.tails))}
pair = factorization.fit_pair(ds, m, m)
edmd.identify_model(ds, m, pair.S)
print(json.dumps({
    "growth": peak_rss() - base,
    "psi": ds.lift(m).nbytes,
    "products": m.dim * (m.dim + 1) // 2 * QR_CHUNK * 8, **held}))
"""


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_criterion_7_rss_growth_is_psi_and_the_lean_dataset():
    env = {**os.environ, "PYTHONPATH": str(Path(koopctl.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", CRITERION_7_RUN], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    got = json.loads(run.stdout)
    bound = got["psi"] + got["dataset"] - got["x"] + 4.25 * got["products"]
    assert got["growth"] <= bound, (got, bound)


CRITERION_7_CLI = """
import hashlib  # OpenSSL loads before the base: see the module docstring
import json
import sys
from pathlib import Path

import numpy as np
from koopctl import cli
from koopctl.tensor import QR_CHUNK

out = Path(sys.argv[1])
config = out / "config.json"
config.write_text(json.dumps({
    "plant": {"kind": "double_pendulum", "params": {"gravity": 1.0}},
    "observables": {"kind": "double_pendulum"},
    "babbling": {"num_gains": 20, "num_initial_conditions": 108,
                 "gain_scale": 1.0, "steps": 100, "dt": 0.01,
                 "state_grid": [[-np.pi, np.pi], [-np.pi, np.pi],
                                [-2.0, 2.0], [-2.0, 2.0]]},
    "seed": 0, "output_dir": str(out / "out")}))


def peak_rss():
    with open("/proc/self/status") as fh:
        return 1024 * int(next(l for l in fh if l.startswith("VmHWM:"))
                          .split()[1])


base = peak_rss()
for stage in ("babble", "factorize", "identify"):
    assert cli.main([stage, "--config", str(config)]) == cli.EXIT_OK, stage
growth = peak_rss() - base
with np.load(out / "out" / "dataset" / "snapshots.npz") as f:
    arrays = {k: f[k] for k in ("u", "traj_ids", "traj_ends", "tail_rows")}
d_psi = len(json.loads((out / "out" / "pair.json").read_text())["mask"])
print(json.dumps({
    "growth": growth,
    "psi": d_psi * (len(arrays["u"]) + len(arrays["tail_rows"])) * 8,
    "u": arrays["u"].nbytes,
    "runs": arrays["traj_ids"].nbytes + arrays["traj_ends"].nbytes,
    "products": d_psi * (d_psi + 1) // 2 * QR_CHUNK * 8}))
"""


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_criterion_7_cli_rss_growth_is_psi_u_and_the_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(koopctl.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", CRITERION_7_CLI,
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    got = json.loads(run.stdout.splitlines()[-1])
    bound = got["psi"] + got["u"] + got["runs"] + 4.25 * got["products"]
    assert got["growth"] <= bound, (got, bound)
