"""total_loss runs each source's share of a level as one task, in parallel on
large levels: the results must not depend on where the tasks ran."""

import multiprocessing
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from viewsynth import gradcheck, losses, sampler

SERIAL = float("inf")   # PARALLEL_MIN_ELEMENTS that no level reaches
PARALLEL = 0            # PARALLEL_MIN_ELEMENTS that every level reaches


@pytest.fixture
def one_worker(monkeypatch):
    """A one-thread pool in place of the CPU-sized one, so the threaded path
    runs on any host: the caller takes sources 0, 2, ... and the worker 1, 3, ..."""
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(losses, "_source_pool", lambda: (pool, 1))
    yield
    pool.shutdown()


def _bits(x):
    x = np.asarray(x)
    return x.shape, x.dtype, x.tobytes()


def _result_bits(report, grads):
    """Every report value and gradient as (shape, dtype, bytes), so -0.0 and
    0.0 differ."""
    bits = [_bits(v) for v in (report.total, report.vs_per_level, report.smooth_per_level,
                                report.reg_per_level, report.valid_per_level,
                                report.all_invalid)]
    bits.append(None if report.mean_mask is None else _bits(report.mean_mask))
    if grads is not None:
        bits += [_bits(grads.depth_logits), _bits(grads.poses)]
        bits += [_bits(m) for m in grads.mask_logits or []]
    return bits


def _run(monkeypatch, min_elements, state, cfg, want_grads=True, **kwargs):
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", min_elements)
    return _result_bits(*losses.total_loss(state, cfg, want_grads, **kwargs))


@pytest.mark.parametrize("use_masks", [True, False])
@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("n_sources", [1, 2, 3, 4])
def test_parallel_equals_serial_bitwise(use_masks, levels, n_sources, one_worker, monkeypatch):
    state, cfg = gradcheck.random_instance(60 + n_sources, height=12, width=16,
                                           n_sources=n_sources, levels=levels,
                                           use_masks=use_masks)
    # The last source sees nothing: all its warped pixels land out of bounds.
    blind = state.poses.copy()
    blind[-1, 3] = 50.0
    report, _ = losses.total_loss(replace(state, poses=blind), cfg)
    assert all(n[-1] == 0 for n in report.valid_per_level)
    for poses in (state.poses, blind):
        one = replace(state, poses=poses)
        assert _run(monkeypatch, PARALLEL, one, cfg) == _run(monkeypatch, SERIAL, one, cfg)


def test_batched_forward_only_parallel_equals_serial(one_worker, monkeypatch):
    state, cfg = gradcheck.random_instance(8, n_sources=3)
    rng = np.random.default_rng(0)
    batch = replace(
        state,
        depth_logits=state.depth_logits + rng.normal(0, 0.2, (5,) + state.depth_logits.shape),
        poses=state.poses + rng.normal(0, 0.01, (5,) + state.poses.shape),
        mask_logits=[m + rng.normal(0, 0.5, (5,) + m.shape) for m in state.mask_logits],
    )
    batch.poses[2, 1, 3] = 50.0  # element 2 of the batch: source 1 sees nothing
    assert (_run(monkeypatch, PARALLEL, batch, cfg, want_grads=False)
            == _run(monkeypatch, SERIAL, batch, cfg, want_grads=False))


def test_parallel_stress_more_workers_than_cores(monkeypatch):
    # Four workers and the caller take one source each of five, while the
    # interpreter switches threads as often as it can: a lost or misordered
    # update of a shared gradient buffer would change the bits.
    state, cfg = gradcheck.random_instance(9, height=12, width=16, n_sources=5, levels=2)
    expected = _run(monkeypatch, SERIAL, state, cfg)
    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(losses, "_source_pool", lambda: (pool, 4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert _run(monkeypatch, PARALLEL, state, cfg) == expected
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


def _before_warps_of(monkeypatch, pyramids, index, action):
    """Make sampler.inverse_warp call action() first whenever it warps an
    image of source `index`."""
    orig = sampler.inverse_warp
    images = pyramids.sources[index]

    def wrapper(src, *args, **kwargs):
        if any(src is img for img in images):
            action()
        return orig(src, *args, **kwargs)

    monkeypatch.setattr(sampler, "inverse_warp", wrapper)


def test_worker_exception_reaches_the_caller(one_worker, monkeypatch):
    state, cfg = gradcheck.random_instance(4, n_sources=4)
    pyramids = losses.build_snippet_pyramids(state, cfg)
    expected = _run(monkeypatch, SERIAL, state, cfg, pyramids=pyramids)
    error = RuntimeError("source 1 failed")
    threads = []

    def fail():
        threads.append(threading.current_thread())
        raise error

    orig = sampler.inverse_warp
    _before_warps_of(monkeypatch, pyramids, 1, fail)
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", PARALLEL)
    with pytest.raises(RuntimeError) as caught:
        losses.total_loss(state, cfg, pyramids=pyramids)
    assert caught.value is error
    assert threads and threads[0] is not threading.main_thread()

    # The pool serves the next call, which gives the serial results.
    monkeypatch.setattr(sampler, "inverse_warp", orig)
    assert _run(monkeypatch, PARALLEL, state, cfg, pyramids=pyramids) == expected


def test_caller_errstate_holds_in_workers(one_worker, monkeypatch):
    state, cfg = gradcheck.random_instance(5, n_sources=2)
    pyramids = losses.build_snippet_pyramids(state, cfg)
    seen = []
    _before_warps_of(monkeypatch, pyramids, 1, lambda: seen.append(
        (threading.current_thread(), np.geterr()["invalid"])))
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", PARALLEL)
    with np.errstate(invalid="raise"):
        losses.total_loss(state, cfg, pyramids=pyramids)
    assert len(seen) == cfg.num_levels
    assert all(thread is not threading.main_thread() for thread, _ in seen)
    assert all(invalid == "raise" for _, invalid in seen)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_gets_its_own_pool(monkeypatch):
    # The parent's pool has threads only in the parent; a child that reused
    # it would wait forever for its first worker task.
    state, cfg = gradcheck.random_instance(1, n_sources=3)
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", PARALLEL)
    expected = _result_bits(*losses.total_loss(state, cfg))

    def child(queue):
        queue.put(_result_bits(*losses.total_loss(state, cfg)))

    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        proc = ctx.Process(target=child, args=(queue,))
        proc.start()
    try:
        got = queue.get(timeout=30)
    finally:
        proc.join(5)
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert got == expected and proc.exitcode == 0


def test_pool_size_follows_cpu_affinity():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    pool, workers = losses._source_pool()
    assert workers == cpus - 1
    assert (pool is None) == (cpus < 2)
