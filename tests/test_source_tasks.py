"""total_loss runs each source's share of a level group as one task, in
parallel on large levels, and warps the coarsest small levels together: the
results must not depend on where the tasks ran or how levels were grouped."""

import multiprocessing
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from viewsynth import geometry, gradcheck, losses, sampler

# PARALLEL_MIN_ELEMENTS that no level reaches, so every level joins one
# group, which runs serially.
SERIAL = float("inf")
# PARALLEL_MIN_ELEMENTS that every level reaches, so every level is a group
# of its own, which runs in parallel.
PARALLEL = 0


@pytest.fixture
def one_worker(monkeypatch):
    """A one-thread pool in place of the CPU-sized one, so the threaded path
    runs on any host: the caller takes sources 0, 2, ... and the worker 1, 3, ..."""
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(losses, "_source_pool", lambda: (pool, 1))
    yield
    pool.shutdown()


def _bits(x):
    """(shape, dtype, bytes) of x, or of each entry of a (nested) list: a
    report's lists may mix floats and per-batch-element arrays."""
    if isinstance(x, list):
        return [_bits(v) for v in x]
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


def _run(monkeypatch, min_elements, state, cfg, want_grads=True, snippet=None):
    """total_loss of the instance `state` over `snippet`, or over its own
    snippet grouped anew at min_elements."""
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", min_elements)
    if snippet is None:
        snippet = _regrouped(state.snippet, cfg)
    return _result_bits(*losses.total_loss(snippet, state, cfg, want_grads))


def _regrouped(snippet, cfg):
    """The snippet of the same frames, its level groups made anew under the
    current PARALLEL_MIN_ELEMENTS."""
    return losses.Snippet.build([snippet.target, *snippet.sources], 0, snippet.K, cfg)


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
    report, _ = losses.total_loss(state.snippet, replace(state, poses=blind), cfg)
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
    # interpreter switches threads as often as it can. Only the caller writes
    # the shared gradient buffers, in source order: a task that wrote one, or
    # a sum taken out of order, would change the bits.
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


def _before_warps_of(monkeypatch, snippet, index, action):
    """Make sampler.inverse_warp call action() first whenever it warps an
    image of source `index`."""
    orig = sampler.inverse_warp
    images = [group.sources[index] for group in snippet.groups]

    def wrapper(src, *args, **kwargs):
        if any(src is img for img in images):
            action()
        return orig(src, *args, **kwargs)

    monkeypatch.setattr(sampler, "inverse_warp", wrapper)


def test_worker_exception_reaches_the_caller(one_worker, monkeypatch):
    state, cfg = gradcheck.random_instance(4, n_sources=4)
    expected = _run(monkeypatch, SERIAL, state, cfg, snippet=state.snippet)
    error = RuntimeError("source 1 failed")
    threads = []

    def fail():
        threads.append(threading.current_thread())
        raise error

    orig = sampler.inverse_warp
    _before_warps_of(monkeypatch, state.snippet, 1, fail)
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", PARALLEL)
    with pytest.raises(RuntimeError) as caught:
        losses.total_loss(state.snippet, state, cfg)
    assert caught.value is error
    assert threads and threads[0] is not threading.main_thread()

    # The pool serves the next call, which gives the serial results.
    monkeypatch.setattr(sampler, "inverse_warp", orig)
    assert _run(monkeypatch, PARALLEL, state, cfg, snippet=state.snippet) == expected


def test_caller_errstate_holds_in_workers(one_worker, monkeypatch):
    state, cfg = gradcheck.random_instance(5, n_sources=2)
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", PARALLEL)   # one group per level
    snippet = _regrouped(state.snippet, cfg)
    seen = []
    _before_warps_of(monkeypatch, snippet, 1, lambda: seen.append(
        (threading.current_thread(), np.geterr()["invalid"])))
    with np.errstate(invalid="raise"):
        losses.total_loss(snippet, state, cfg)
    assert len(seen) == cfg.num_levels
    assert all(thread is not threading.main_thread() for thread, _ in seen)
    assert all(invalid == "raise" for _, invalid in seen)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_gets_its_own_pool(monkeypatch):
    # The parent's pool has threads only in the parent; a child that reused
    # it would wait forever for its first worker task.
    state, cfg = gradcheck.random_instance(1, n_sources=3)
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", PARALLEL)
    snippet = _regrouped(state.snippet, cfg)
    expected = _result_bits(*losses.total_loss(snippet, state, cfg))

    def child(queue):
        queue.put(_result_bits(*losses.total_loss(snippet, state, cfg)))

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


def test_level_groups_join_the_coarsest_levels_below_the_threshold():
    assert losses.PARALLEL_MIN_ELEMENTS == 8192
    # 416 x 128, four levels: groups {0}, {1} and {2, 3}, three warps per source
    assert losses._level_groups([53248, 13312, 3328, 832]) == [range(0, 1), range(1, 2),
                                                               range(2, 4)]
    assert losses._level_groups([3072, 768, 192]) == [range(0, 3)]          # 64 x 48
    assert losses._level_groups([96, 24]) == [range(0, 2)]                  # 8 x 12
    assert losses._level_groups([8100, 100]) == [range(0, 1), range(1, 2)]  # 8200 elements
    assert losses._level_groups([100]) == [range(0, 1)]


def test_snippet_groups_of_a_416_x_128_four_level_pyramid():
    state, cfg = gradcheck.random_instance(0, height=128, width=416, n_sources=2, levels=4)
    groups = state.snippet.groups
    assert [g.levels for g in groups] == [range(0, 1), range(1, 2), range(2, 4)]
    assert [g.spans for g in groups] == [((0, 53248),), ((0, 13312),), ((0, 3328), (3328, 4160))]
    for g in groups:
        assert g.grid.u.shape == (1, g.spans[-1][1]) and g.target.shape == (1, g.spans[-1][1], 2)
    # A one-level group keeps its level's scalar constants, and level 0's
    # images are reshape views of the snippet's own.
    assert isinstance(groups[1].grid.fx, float) and isinstance(groups[2].grid.fx, np.ndarray)
    assert np.shares_memory(groups[0].target, state.snippet.target)
    assert all(np.shares_memory(groups[0].sources[s], src)
               for s, src in enumerate(state.snippet.sources))


def _count_warps(monkeypatch) -> list:
    orig = sampler.inverse_warp
    calls = []
    monkeypatch.setattr(sampler, "inverse_warp",
                        lambda *a, **k: calls.append(1) or orig(*a, **k))
    return calls


def test_forward_depth_batch_warps_as_often_as_one_set(monkeypatch):
    # 192 sets of 8 x 12 depth hold 18,432 level-0 elements, but the levels
    # are grouped by their pixels: one group, one warp per source.
    state, cfg = gradcheck.random_instance(3, height=8, width=12, n_sources=2, levels=2)
    rng = np.random.default_rng(3)
    batch = replace(state, depth_logits=state.depth_logits
                    + rng.normal(0, 0.2, (192,) + state.depth_logits.shape))
    calls = _count_warps(monkeypatch)
    losses.total_loss(state.snippet, state, cfg, False)
    assert len(calls) == 2
    calls.clear()
    losses.total_loss(batch.snippet, batch, cfg, False)
    assert len(calls) == 2


class _RefusingPool:
    def submit(self, *args, **kwargs):
        raise AssertionError("a task reached the source pool")


def test_fd_oracle_batches_are_threaded_like_one_set(monkeypatch):
    # Every 8 x 12 batch, the 192-set depth batch included, is one level
    # group of 120 pixels, far below PARALLEL_MIN_ELEMENTS: a batch counts
    # as one parameter set, so no task reaches the pool.
    monkeypatch.setattr(losses, "_source_pool", lambda: (_RefusingPool(), 1))
    state, cfg = gradcheck.random_instance(gradcheck.DEFAULT_SEEDS[0])
    errs = gradcheck.check_instance(state, cfg)
    assert max(errs.values()) < 1e-4


def test_one_warp_per_source_and_group(monkeypatch):
    state, cfg = gradcheck.random_instance(0, height=48, width=64, n_sources=2, levels=3,
                                           use_masks=False)
    calls = _count_warps(monkeypatch)
    losses.total_loss(state.snippet, state, cfg)
    assert len(calls) == 2


@pytest.mark.parametrize("min_elements", [SERIAL, PARALLEL])
def test_points_formed_once_per_level_group(min_elements, monkeypatch):
    # depth * rays is shared by every source's warp and the adjoint. A
    # forward-only depth batch shares none: each source's warp forms the
    # points of element 0 and, once, those of every entry that differs.
    state, cfg = gradcheck.random_instance(2, height=H, width=W, n_sources=3, levels=3)
    rng = np.random.default_rng(2)
    batch = replace(state, depth_logits=state.depth_logits
                    + rng.normal(0, 0.2, (4,) + state.depth_logits.shape))
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", min_elements)
    orig = geometry.points_at_depth
    calls = []
    monkeypatch.setattr(geometry, "points_at_depth",
                        lambda *a: calls.append(a[0].shape) or orig(*a))
    groups = 1 if min_elements == SERIAL else cfg.num_levels
    snippet = _regrouped(state.snippet, cfg)
    losses.total_loss(snippet, state, cfg)
    assert len(calls) == groups
    calls.clear()
    losses.total_loss(snippet, batch, cfg, False)
    assert len(calls) == 2 * 3 * groups
    assert all(len(shape) == 2 for shape in calls)   # no (4, ...) stack of points


# 17 x 26 pyramids have odd sizes (17 x 26, 8 x 13) and, at four levels, a
# coarsest level two pixels high (4 x 6, then 2 x 3).
H, W = 17, 26
# This translation of the last source leaves it valid pixels at levels 0-2
# and none at level 3 of a four-level 17 x 26 instance (asserted below).
TX_BLIND_AT_LEVEL_3 = 0.8


@pytest.mark.parametrize("use_masks", [True, False])
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
@pytest.mark.parametrize("n_sources", [1, 2, 3, 4])
def test_joined_levels_equal_separate_levels_bitwise(use_masks, levels, n_sources, one_worker,
                                                     monkeypatch):
    state, cfg = gradcheck.random_instance(70 + n_sources, height=H, width=W,
                                           n_sources=n_sources, levels=levels,
                                           use_masks=use_masks)
    identity = state.poses.copy()
    identity[0] = 0.0
    blind = state.poses.copy()
    blind[-1, 3] = 50.0
    pose_sets = [state.poses, identity, blind]
    if levels == 4:
        blind_at_3 = state.poses.copy()
        blind_at_3[-1, 3] = TX_BLIND_AT_LEVEL_3
        report, _ = losses.total_loss(state.snippet, replace(state, poses=blind_at_3), cfg)
        assert [n[-1] > 0 for n in report.valid_per_level] == [True, True, True, False]
        pose_sets.append(blind_at_3)
    for poses in pose_sets:
        one = replace(state, poses=poses)
        assert _run(monkeypatch, PARALLEL, one, cfg) == _run(monkeypatch, SERIAL, one, cfg)


def test_source_blind_at_one_level_of_a_group_adds_nothing_there(monkeypatch):
    state, cfg = gradcheck.random_instance(71, height=H, width=W, n_sources=1, levels=4)
    state.poses[0, 3] = TX_BLIND_AT_LEVEL_3
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", SERIAL)   # one group of 4 levels
    snippet = _regrouped(state.snippet, cfg)
    assert [g.levels for g in snippet.groups] == [range(4)]
    report, grads = losses.total_loss(snippet, state, cfg)
    assert [n[0] for n in report.valid_per_level][3] == 0
    assert report.vs_per_level[3] == 0.0 and all(v > 0 for v in report.vs_per_level[:3])
    for g in [grads.depth_logits, grads.poses] + grads.mask_logits:
        assert np.all(np.isfinite(g))


@pytest.mark.parametrize("batched", ["depth", "poses", "mask_level_0", "mask_level_3"])
def test_joined_levels_equal_separate_levels_batched(batched, one_worker, monkeypatch):
    state, cfg = gradcheck.random_instance(8, height=H, width=W, n_sources=3, levels=4)
    rng = np.random.default_rng(1)
    B = 5
    if batched == "depth":
        state = replace(state, depth_logits=state.depth_logits
                        + rng.normal(0, 0.2, (B,) + state.depth_logits.shape))
    elif batched == "poses":
        poses = state.poses + rng.normal(0, 0.01, (B,) + state.poses.shape)
        poses[2, 1, 3] = TX_BLIND_AT_LEVEL_3   # element 2: source 1 blind at some level
        poses[3, 2] = 0.0                      # element 3: source 2 at the identity
        state = replace(state, poses=poses)
    else:
        masks = list(state.mask_logits)
        l = int(batched[-1])
        masks[l] = masks[l] + rng.normal(0, 0.5, (B,) + masks[l].shape)
        state = replace(state, mask_logits=masks)
    assert (_run(monkeypatch, PARALLEL, state, cfg, want_grads=False)
            == _run(monkeypatch, SERIAL, state, cfg, want_grads=False))
