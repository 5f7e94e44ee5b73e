"""The conv loops' thread pool: byte for byte the serial result at every pool
size, used only above its floor and with BLAS on one thread, no piece that
builds a Tensor, a bounded cost in memory, and a pool per forked process."""

import ctypes
import hashlib
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import gcaps.tensor as tensor_module
from gcaps.network import Adam, ArchConfig, build_model, evaluate, train_step
from gcaps.routing import RoutingConfig
from gcaps.tensor import Tensor, _conv2d_geometry, _spectrum, _values_at, conv2d

POOL_SIZES = (1, 2, 3)


def _openblas_threads():
    """The get and set functions of numpy's OpenBLAS thread count, or None."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
        if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
            return (getattr(lib, f"{prefix}get_num_threads{suffix}"),
                    getattr(lib, f"{prefix}set_num_threads{suffix}"))
    return None


@pytest.fixture
def one_blas_thread():
    """BLAS held at one thread for the test, as CI and perfbench pin it."""
    found = _openblas_threads()
    if found is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS whose thread count ctypes can set")
    get, set_ = found
    before = get()
    set_(1)
    yield
    set_(before)


class CountingPool(ThreadPoolExecutor):
    """A pool that counts the helpers ``_each`` hands it."""

    submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


def at_pool_sizes(monkeypatch, run, floor=None):
    """``(run(), helpers handed to the pool)`` serially (no loop reaches the
    floor), then with the module's pool replaced by one of each POOL_SIZES,
    at ``floor`` (the module's own by default)."""
    results = []
    for size in (0, *POOL_SIZES):
        with monkeypatch.context() as m, CountingPool(max(size, 1)) as pool:
            m.setattr(tensor_module, "_POOL", pool)
            m.setattr(tensor_module, "_POOL_FLOOR", math.inf if size == 0 else
                      tensor_module._POOL_FLOOR if floor is None else floor)
            results.append((run(), pool.submitted))
    return results


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def assert_same_bytes_and_pooled(results):
    (serial, handed), *pooled = results
    assert handed == 0
    for size, (got, handed) in zip(POOL_SIZES, pooled):
        assert handed > 0, f"pool size {size}: no loop went to the pool"
        assert got == serial, f"pool size {size}: bytes differ from the serial run"


@pytest.fixture
def pieces(monkeypatch):
    """The thread of every piece ``_each`` runs; a piece that builds a
    Tensor fails the test."""
    threads, in_piece = [], threading.local()
    each, init = tensor_module._each, Tensor.__init__

    def spied_each(run, parts, work):
        def piece(part):
            in_piece.on = True
            try:
                run(part)
            finally:
                in_piece.on = False
            threads.append(threading.get_ident())
        each(piece, parts, work)

    def spied_init(self, *args, **kwargs):
        assert not getattr(in_piece, "on", False), "a piece built a Tensor"
        init(self, *args, **kwargs)

    monkeypatch.setattr(tensor_module, "_each", spied_each)
    monkeypatch.setattr(Tensor, "__init__", spied_init)
    return threads


# compact primary conv at batch 64: spectral, with its input transform, the
# input gradient's values and all three channel products above the floor
SPECTRAL = ((64, 32, 20, 20), (64, 32, 9, 9), 2)
# default stem at batch 16: im2col, its product in 8 blocks above the floor
IM2COL = ((16, 1, 28, 28), (256, 1, 9, 9), 1)


def conv_both_grads(x_shape, k_shape, stride):
    rng = np.random.default_rng(120)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    k = Tensor(rng.standard_normal(k_shape), requires_grad=True)
    y = conv2d(x, k, stride)
    (y * Tensor(rng.standard_normal(y.shape))).sum().backward()
    return digest(y.data, x.grad, k.grad)


def spectral_conv(x_shape, k_shape, stride):
    """The spectral algorithm alone, with both gradients."""
    rng = np.random.default_rng(121)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    k = Tensor(rng.standard_normal(k_shape), requires_grad=True)
    out, grads = tensor_module._conv2d_spectral(
        x, k, _conv2d_geometry(x_shape, k_shape, stride), True, False)
    grads(rng.standard_normal(out.shape))
    return digest(out, x.grad, k.grad)


@pytest.mark.usefixtures("one_blas_thread")
class TestSameBytesAtEveryPoolSize:

    def test_blocked_transforms(self, monkeypatch):
        # grid 19x19: 689 signals per block, so five blocks and a remainder
        grid, rng = (19, 19), np.random.default_rng(122)
        values = rng.standard_normal((5 * 689 + 7, 19, 19))
        rows = cols = np.arange(19)

        def run():
            spec = _spectrum(values, rows, cols, grid, np.complex128)
            out = _values_at(spec, rows, cols, grid, np.empty_like(values))
            return digest(spec, out)

        assert_same_bytes_and_pooled(at_pool_sizes(monkeypatch, run, floor=0))

    @pytest.mark.parametrize("shapes", [SPECTRAL, IM2COL], ids=["spectral", "im2col"])
    def test_conv2d_forward_and_both_gradients_above_the_floor(self, monkeypatch, shapes):
        assert_same_bytes_and_pooled(at_pool_sizes(monkeypatch, lambda: conv_both_grads(*shapes)))

    def test_default_train_step_and_evaluate(self, monkeypatch):
        rng = np.random.default_rng(123)
        images, labels = rng.uniform(0, 1, (8, 1, 28, 28)), np.arange(8) % 10

        def run():
            model = build_model(ArchConfig(), RoutingConfig.from_name("alg1"), seed=0)
            step = train_step(model, Adam(model.params), images, labels)
            accuracy, loss, confusion, dc = evaluate(model, images, labels, capture_trace=True)
            return digest(np.array([*step, accuracy, loss]), confusion, dc,
                          *(model.params[name].data for name in sorted(model.params)))

        assert_same_bytes_and_pooled(at_pool_sizes(monkeypatch, run))


@pytest.mark.usefixtures("one_blas_thread")
class TestWhenThePoolRuns:

    def test_compact_train_step_at_batch_16_stays_on_the_caller(self, monkeypatch, pieces):
        rng = np.random.default_rng(124)
        model = build_model(ArchConfig.compact(), RoutingConfig.from_name("alg4"), seed=0)
        images, labels = rng.uniform(0, 1, (16, 1, 28, 28)), np.arange(16) % 10
        with CountingPool(3) as pool:
            monkeypatch.setattr(tensor_module, "_POOL", pool)
            train_step(model, Adam(model.params), images, labels)
        assert pool.submitted == 0
        assert pieces and set(pieces) == {threading.get_ident()}

    @pytest.mark.parametrize("count", [2, 0], ids=["two-threads", "unreadable"])
    def test_blas_on_other_than_one_thread_stays_on_the_caller(self, monkeypatch, pieces, count):
        monkeypatch.setattr(tensor_module, "_blas_threads", lambda: count)
        with CountingPool(3) as pool:
            monkeypatch.setattr(tensor_module, "_POOL", pool)
            conv_both_grads(*SPECTRAL)
        assert pool.submitted == 0
        assert pieces and set(pieces) == {threading.get_ident()}

    @pytest.mark.parametrize("shapes", [SPECTRAL, IM2COL], ids=["spectral", "im2col"])
    def test_no_piece_builds_a_tensor(self, monkeypatch, pieces, shapes):
        with CountingPool(3) as pool:
            monkeypatch.setattr(tensor_module, "_POOL", pool)
            conv_both_grads(*shapes)
        assert pool.submitted > 0 and pieces


def test_every_piece_runs_once_with_more_threads_than_cores(monkeypatch):
    # Four threads take pieces, switching as often as the interpreter allows:
    # a piece taken twice, or by no thread, shows in the counts.
    runs, lock = [0] * 2000, threading.Lock()

    def run(i):
        with lock:
            runs[i] += 1

    monkeypatch.setattr(tensor_module, "_blas_threads", lambda: 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CountingPool(3) as pool:
            monkeypatch.setattr(tensor_module, "_POOL", pool)
            for _ in range(5):
                tensor_module._each(run, list(range(len(runs))), tensor_module._POOL_FLOOR)
    finally:
        sys.setswitchinterval(interval)
    assert pool.submitted == 15
    assert runs == [5] * len(runs)


@pytest.mark.usefixtures("one_blas_thread")
def test_pooled_spectral_backward_holds_at_most_one_block_more_per_worker(monkeypatch):
    # A stem-like spectral conv at batch 64: the output gradient's transform
    # runs in 14 blocks.  A block's temporaries (its row spectra, their
    # transposed copy and the block's columns of the result) stay under two
    # blocks' bytes, and each worker holds one block's at a time.  Measured
    # (numpy 2.4): 29.7 MiB serially, then 3.4, 6.3 and 8.3 MiB more at pool
    # sizes 1, 2 and 3.
    rng = np.random.default_rng(125)
    x = Tensor(rng.standard_normal((64, 1, 28, 28)))
    k = Tensor(rng.standard_normal((64, 1, 9, 9)), requires_grad=True)
    geometry = _conv2d_geometry(x.shape, k.shape, 1)

    def backward_peak():
        out, grads = tensor_module._conv2d_spectral(x, k, geometry, True, False)
        g = rng.standard_normal(out.shape)
        del out
        k.clear_grad()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            grads(g)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    (serial, _), *pooled = at_pool_sizes(monkeypatch, backward_peak)
    for size, (peak, handed) in zip(POOL_SIZES, pooled):
        assert handed > 0
        assert peak - serial <= size * 2 * tensor_module._BLOCK_BYTES, size


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")   # fork with threads, Python 3.12+
@pytest.mark.usefixtures("one_blas_thread")
def test_a_forked_child_makes_its_own_pool(monkeypatch):
    # The parent's pool threads do not exist in the child: a pooled loop
    # there would wait forever on helpers no thread runs.
    monkeypatch.setattr(tensor_module, "_POOL", None)
    monkeypatch.setattr(tensor_module, "_CORES", max(tensor_module._CORES, 2))
    try:
        want = spectral_conv(*SPECTRAL)
        parent_pool = tensor_module._POOL
        assert parent_pool is not None
        pid = os.fork()
        if pid == 0:   # the child: exit 0 only for the same bytes from a pool of its own
            code = 1
            try:
                same = spectral_conv(*SPECTRAL) == want
                code = 2 if not same else 3 if tensor_module._POOL in (None, parent_pool) else 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's pooled conv did not finish in 120 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0
    finally:
        if tensor_module._POOL is not None:
            tensor_module._POOL.shutdown()
