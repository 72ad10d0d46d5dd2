"""total_loss runs each source's share of a level group as one task, in
parallel on large levels, and warps the coarsest small levels together; the
pool also takes the finest level's warp-free terms and the second half of
each Adam group that splits into two large halves. The results must not
depend on where the tasks ran or how levels were grouped."""

import multiprocessing
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from viewsynth import geometry, gradcheck, losses, model, sampler

# PARALLEL_MIN_ELEMENTS that no level reaches, so every level joins one
# group, which runs serially.
SERIAL = float("inf")
# PARALLEL_MIN_ELEMENTS that every level reaches, so every level is a group
# of its own, which runs in parallel.
PARALLEL = 0


@pytest.fixture
def one_worker(monkeypatch):
    """A one-thread pool in place of the CPU-sized one, so the threaded path
    runs on any host: the caller takes sources 0, 2, ... and the worker 1, 3,
    ..., then the finest level's terms; in Adam, the worker takes the second
    half of each group that splits into two large halves."""
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
    # a sum taken out of order, would change the bits. Adam's halves of one
    # group are disjoint views, so a step writes each element once.
    state, cfg = gradcheck.random_instance(9, height=12, width=16, n_sources=5, levels=2)
    _, grads = losses.total_loss(state.snippet, state, cfg)

    def adam_bits():
        params = replace(state, depth_logits=state.depth_logits.copy(),
                         poses=state.poses.copy(), mask_logits=[m.copy() for m in state.mask_logits])
        moments = model.AdamMoments()
        model.adam_step(params, grads, moments, model.AdamConfig(lr=0.01), 1)
        return _adam_bits(params, moments)

    expected = _run(monkeypatch, SERIAL, state, cfg), adam_bits()
    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(losses, "_source_pool", lambda: (pool, 4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert (_run(monkeypatch, PARALLEL, state, cfg), adam_bits()) == expected
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


@pytest.mark.parametrize("n_sources, use_masks", [(2, False), (4, True)])
def test_64_x_48_fit_stays_off_the_pool(n_sources, use_masks, monkeypatch):
    # The plane fit's shape (64 x 48, 3 frames, L=3, masks off), and a masked
    # one with 4 sources: the joined group of 4032 pixels is below
    # PARALLEL_MIN_ELEMENTS, where a task on another thread costs more than
    # it saves, and so is every half of a parameter group (at most 6144 of
    # level 0's 12,288 mask logits): neither total_loss nor Adam may hand
    # out a task.
    monkeypatch.setattr(losses, "_source_pool", lambda: (_RefusingPool(), 1))
    state, cfg = gradcheck.random_instance(0, height=48, width=64, n_sources=n_sources,
                                           levels=3, use_masks=use_masks)
    frames, K = [state.snippet.target, *state.snippet.sources], state.snippet.K
    fit = model.fit_snippet(frames, 0, K, cfg, model.AdamConfig(lr=0.01, max_iters=2, tol=0))
    assert fit.iterations == 2
    _, grads = losses.total_loss(fit.snippet, fit.state, cfg)
    model.adam_step(fit.state, grads, model.AdamMoments(), model.AdamConfig(lr=0.01), 1)


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


# PARALLEL_MIN_ELEMENTS at which a 17 x 26 pyramid (442, 104, 24 and 6
# pixels) is grouped like a 416 x 128 one: levels 0 and 1 are groups of their
# own, threaded, and levels 2 and 3 one joined, serial group.
LIKE_416_X_128 = 100


def _record_threads(monkeypatch, module, name) -> list:
    """Make module.name record the thread and its first argument's shape on
    every call, in a list that it returns."""
    orig = getattr(module, name)
    calls = []

    def wrapper(x, *args, **kwargs):
        calls.append((threading.current_thread(), np.shape(x)))
        return orig(x, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _off_the_caller(calls) -> list:
    return [shape for thread, shape in calls if thread is not threading.main_thread()]


def _pool_off(monkeypatch):
    monkeypatch.setattr(losses, "_source_pool", lambda: (None, 0))


@pytest.mark.parametrize("min_elements", [LIKE_416_X_128, PARALLEL])
@pytest.mark.parametrize("use_masks", [True, False])
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
@pytest.mark.parametrize("n_sources", [1, 2, 3, 4])
def test_finest_level_terms_on_the_worker_equal_the_serial_call(
        min_elements, use_masks, levels, n_sources, one_worker, monkeypatch):
    state, cfg = gradcheck.random_instance(80 + n_sources, height=H, width=W,
                                           n_sources=n_sources, levels=levels,
                                           use_masks=use_masks)
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", min_elements)
    snippet = _regrouped(state.snippet, cfg)
    smooth = _record_threads(monkeypatch, losses, "smoothness_loss")
    reg = _record_threads(monkeypatch, losses, "explainability_regularizer")
    for want_grads in (True, False):
        threaded = _result_bits(*losses.total_loss(snippet, state, cfg, want_grads))
        # With a threaded group (more than one source), the worker took the
        # finest level's terms and no other level's.
        worker = n_sources > 1
        assert _off_the_caller(smooth) == [state.depth_logits.shape] * worker
        assert _off_the_caller(reg) == ([state.mask_logits[0].shape] if worker and use_masks
                                        else [])
        smooth.clear()
        reg.clear()
        with monkeypatch.context() as m:
            _pool_off(m)
            assert _result_bits(*losses.total_loss(snippet, state, cfg, want_grads)) == threaded
        assert not _off_the_caller(smooth) and not _off_the_caller(reg)
        smooth.clear()
        reg.clear()


def test_finest_level_terms_of_a_batch_on_the_worker_equal_the_serial_call(one_worker,
                                                                             monkeypatch):
    state, cfg = gradcheck.random_instance(8, height=H, width=W, n_sources=3, levels=4)
    rng = np.random.default_rng(2)
    batch = replace(state, depth_logits=state.depth_logits
                    + rng.normal(0, 0.2, (4,) + state.depth_logits.shape),
                    mask_logits=[m + rng.normal(0, 0.5, (4,) + m.shape)
                                 for m in state.mask_logits])
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", LIKE_416_X_128)
    snippet = _regrouped(state.snippet, cfg)
    smooth = _record_threads(monkeypatch, losses, "smoothness_loss")
    threaded = _result_bits(*losses.total_loss(snippet, batch, cfg, False))
    assert _off_the_caller(smooth) == [batch.depth_logits.shape]
    _pool_off(monkeypatch)
    assert _result_bits(*losses.total_loss(snippet, batch, cfg, False)) == threaded


def _adam_bits(params, moments):
    return ([(name, _bits(a)) for name, a in params.items()]
            + [(name, _bits(moments.m[name]), _bits(moments.v[name])) for name in moments.m])


@pytest.mark.parametrize("n_sources", [1, 2, 3])
def test_adam_halves_on_the_worker_equal_the_serial_step(n_sources, one_worker, monkeypatch):
    # At 20 elements, the halves of the 7 x 9 depth (3 and 4 rows) and of
    # two or three sources' 7 x 9 mask level are large, with odd leading
    # sizes; a one-source mask level cannot be halved, and halves of the
    # poses and of the 3 x 4 mask level are small.
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", 20)
    rng = np.random.default_rng(n_sources)

    def draw():
        return losses.Params(rng.normal(size=(7, 9)), rng.normal(size=(n_sources, 6)),
                             [rng.normal(size=(n_sources, 7, 9)),
                              rng.normal(size=(n_sources, 3, 4))])

    start, steps = draw(), [draw() for _ in range(3)]
    cfg = model.AdamConfig(lr=0.01)
    calls = _record_threads(monkeypatch, model, "_adam_update")

    def run():
        state = replace(start, depth_logits=start.depth_logits.copy(),
                        poses=start.poses.copy(), mask_logits=[m.copy() for m in start.mask_logits])
        moments = model.AdamMoments()
        for t, grads in enumerate(steps, 1):   # step 1 creates the moments
            model.adam_step(state, grads, moments, cfg, t)
        return _adam_bits(state, moments)

    threaded = run()
    halves = [(len(a) - len(a) // 2,) + a.shape[1:] for _, a in start.items()
              if len(a) // 2 and a[:len(a) // 2].size >= 20]
    assert _off_the_caller(calls) == halves * len(steps)
    assert len(halves) == (1 if n_sources == 1 else 2)
    calls.clear()
    _pool_off(monkeypatch)
    assert run() == threaded
    assert not _off_the_caller(calls)


def test_fit_with_one_worker_equals_the_pool_off_fit(one_worker, monkeypatch):
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", LIKE_416_X_128)
    state, cfg = gradcheck.random_instance(5, height=H, width=W, n_sources=3, levels=4)
    frames = [state.snippet.target, *state.snippet.sources]
    smooth = _record_threads(monkeypatch, losses, "smoothness_loss")
    adam = _record_threads(monkeypatch, model, "_adam_update")

    def fit():
        start = replace(state, depth_logits=state.depth_logits.copy(), poses=state.poses.copy(),
                        mask_logits=[m.copy() for m in state.mask_logits])
        result = model.fit_snippet(frames, 0, state.snippet.K, cfg,
                                   model.AdamConfig(lr=0.01, max_iters=4, tol=0), state=start)
        return ([_result_bits(report, None) for report in result.history],
                [(name, _bits(a)) for name, a in result.state.items()])

    threaded = fit()
    assert _off_the_caller(smooth) and _off_the_caller(adam)
    smooth.clear()
    adam.clear()
    _pool_off(monkeypatch)
    assert fit() == threaded
    assert not _off_the_caller(smooth) and not _off_the_caller(adam)


def test_worker_level_task_exception_reaches_the_caller(one_worker, monkeypatch):
    state, cfg = gradcheck.random_instance(4, height=H, width=W, n_sources=2, levels=2)
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", LIKE_416_X_128)
    snippet = _regrouped(state.snippet, cfg)
    expected = _result_bits(*losses.total_loss(snippet, state, cfg))
    error = RuntimeError("the finest level failed")
    orig = losses.smoothness_loss

    def smoothness(depth, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return orig(depth, *args, **kwargs)

    monkeypatch.setattr(losses, "smoothness_loss", smoothness)
    with pytest.raises(RuntimeError) as caught:
        losses.total_loss(snippet, state, cfg)
    assert caught.value is error

    # The pool serves the next call, which gives the serial results.
    monkeypatch.setattr(losses, "smoothness_loss", orig)
    assert _result_bits(*losses.total_loss(snippet, state, cfg)) == expected


def test_caller_exception_leaves_no_level_task_running(one_worker, monkeypatch):
    # The caller fails on level 1 while the worker still runs level 0's
    # terms: total_loss raises only once that task has finished.
    state, cfg = gradcheck.random_instance(4, height=H, width=W, n_sources=2, levels=2)
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", LIKE_416_X_128)
    snippet = _regrouped(state.snippet, cfg)
    error = RuntimeError("level 1 failed")
    orig = losses.smoothness_loss
    started = threading.Event()
    finished = []

    def smoothness(depth, *args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            assert started.wait(30)
            raise error
        started.set()
        time.sleep(0.2)
        result = orig(depth, *args, **kwargs)
        finished.append(depth.shape)
        return result

    monkeypatch.setattr(losses, "smoothness_loss", smoothness)
    with pytest.raises(RuntimeError) as caught:
        losses.total_loss(snippet, state, cfg)
    assert caught.value is error
    assert finished == [state.depth_logits.shape]
