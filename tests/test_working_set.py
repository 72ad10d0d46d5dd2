"""The warp, the photometric term and the adjoint build their intermediates
in buffers of their own: they must leave every input as it was, and their
working set at the paper's 416x128 training shape must stay small."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from viewsynth import geometry, gradcheck, losses, model, sampler
from viewsynth.geometry import Intrinsics


def _bits(*arrays):
    """(shape, dtype, bytes) of each array, so any write shows, even -0.0
    over 0.0; None stays None."""
    return [None if a is None else (np.shape(a), np.asarray(a).dtype, np.asarray(a).tobytes())
            for a in arrays]


def _warp_fields(w):
    return _bits(w.warped, w.valid, w.d_du, w.d_dv, w.src_points)


def _state_arrays(state):
    return _bits(state.target, *state.sources, state.depth_logits, state.poses,
                 *(state.mask_logits or []))


def _instance(channels, levels, use_masks=True, n_sources=2):
    """random_instance with its images cut to `channels` channels."""
    state, cfg = gradcheck.random_instance(5, height=8, width=12, n_sources=n_sources,
                                           levels=levels, use_masks=use_masks)
    return replace(state, target=state.target[..., :channels].copy(),
                   sources=[s[..., :channels].copy() for s in state.sources]), cfg


def _groups(state, cfg, monkeypatch, joined):
    """The state's level groups: all levels joined in one, or one per level."""
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", float("inf") if joined else 0)
    groups = losses.build_snippet_pyramids(state, cfg).groups
    assert len(groups) == (1 if joined else cfg.num_levels)
    return groups


def _depth_row(state, group, cfg):
    depth_pyr = losses.build_pyramid(state.depth(), cfg.num_levels)
    return sampler.join_rows([depth_pyr[l] for l in group.levels])


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("joined", [True, False])
@pytest.mark.parametrize("want_grads", [True, False])
def test_the_source_chain_leaves_its_inputs_untouched(channels, joined, want_grads,
                                                      monkeypatch):
    state, cfg = _instance(channels, levels=2)
    for group in _groups(state, cfg, monkeypatch, joined):
        depth = _depth_row(state, group, cfg)
        P = geometry.points_at_depth(depth, group.grid.rays)
        pose = state.poses[0]
        T = geometry.pose_to_transform(pose)
        src = group.sources[0]
        rng = np.random.default_rng(1)
        probs = [rng.random((1, b - a)) for a, b in group.spans]
        u, v, keep = group.grid.u + 0.3, group.grid.v - 0.2, P[2] > 0.9
        inputs = _bits(src, depth, T, P, group.target, *probs, u, v, keep, *group.grid[:-1],
                       *group.grid.layout)

        sampler.bilinear_sample(src, u, v, want_grads, keep, group.grid.layout)
        w = sampler.inverse_warp(src, depth, T, group.grid, want_grads)
        w_given = sampler.inverse_warp(src, depth, T, group.grid, want_grads, points=P)
        assert _warp_fields(w) == _warp_fields(w_given)
        warp_bits = _warp_fields(w)
        for mask_prob in (None, probs):
            losses.view_synthesis_loss(group.target, w, group.spans, mask_prob, want_grads)
            assert _warp_fields(w) == warp_bits
        if want_grads:
            gu, gv = rng.normal(size=depth.shape), rng.normal(size=depth.shape)
            coords = _bits(gu, gv)
            jacs = np.stack(geometry.rotation_jacobians(pose[:3])).reshape(3, 9)
            jacs_bits = _bits(jacs)
            losses.projection_adjoint(gu, gv, w, group.grid, T[:3, :3], jacs, P, group.spans)
            assert _bits(gu, gv) == coords and _bits(jacs) == jacs_bits
            assert _warp_fields(w) == warp_bits
        assert _bits(src, depth, T, P, group.target, *probs, u, v, keep, *group.grid[:-1],
                     *group.grid.layout) == inputs


@pytest.mark.parametrize("want_grads", [True, False])
def test_the_mask_regularizer_leaves_its_inputs_untouched(want_grads):
    logits = np.random.default_rng(4).normal(0.0, 2.0, (2, 3, 8, 12))
    logits[0, 0, 0, :3] = [-800.0, 800.0, -1e308]   # where exp(-x) overflows, and beyond
    prob = losses.mask_probability(logits)
    before = _bits(logits, prob)
    losses.explainability_regularizer(logits, prob, want_grads)
    assert _bits(logits, prob) == before


@pytest.mark.parametrize("transforms", ["one", "stack"])
def test_a_batched_warp_and_its_photometric_term_leave_their_inputs_untouched(transforms):
    rng = np.random.default_rng(2)
    K = Intrinsics(fx=12.0, fy=12.0, cx=6.1, cy=3.9, width=12, height=8)
    src, target = rng.random((8, 12, 2)), rng.random((8, 12, 2))
    depth = rng.uniform(0.5, 3.0, (4, 8, 12))
    depth[1:, :2] = depth[0, :2]   # a depth stack whose elements share some pixels
    T = geometry.pose_to_transform([0.01, 0, -0.02, 0.05, 0, 0.1])
    if transforms == "stack":
        T = np.stack([T, np.eye(4), T, T])
    before = _bits(src, target, depth, T)
    w = sampler.inverse_warp(src, depth, T, K, want_grads=False)
    warp_bits = _warp_fields(w)
    row = replace(w, warped=w.warped.reshape(4, 1, 96, 2), valid=w.valid.reshape(4, 1, 96))
    probs = [rng.random((4, 1, 96))]
    probs_bits = _bits(*probs)
    for mask_prob in (None, probs):
        losses.view_synthesis_loss(target.reshape(1, 96, 2), row, [(0, 96)], mask_prob, False)
    assert _warp_fields(w) == warp_bits and _bits(*probs) == probs_bits
    assert _bits(src, target, depth, T) == before


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("joined", [True, False])
@pytest.mark.parametrize("use_masks", [True, False])
def test_total_loss_leaves_the_state_and_pyramids_untouched(channels, joined, use_masks,
                                                            monkeypatch):
    state, cfg = _instance(channels, levels=3, use_masks=use_masks)
    groups = _groups(state, cfg, monkeypatch, joined)
    pyramids = losses.SnippetPyramids(cfg.num_levels, groups)
    pyramid_bits = [_bits(g.target, *g.sources, *g.grid[:-1]) for g in groups]
    rng = np.random.default_rng(3)
    batch = replace(
        state, depth_logits=state.depth_logits + rng.normal(0, 0.1, (3,) + state.depth_logits.shape),
        poses=state.poses + rng.normal(0, 0.01, (3,) + state.poses.shape))
    for one, want_grads in ((state, True), (state, False), (batch, False)):
        before = _state_arrays(one)
        losses.total_loss(one, cfg, want_grads, pyramids=pyramids)
        assert _state_arrays(one) == before
    assert [_bits(g.target, *g.sources, *g.grid[:-1]) for g in groups] == pyramid_bits


# The paper's training shape (Zhou et al. 2017): 128x416 frames, a 5-frame
# snippet (4 sources), 4 pyramid levels, masks on.
_W, _H = 416, 128


def _training_shape_state():
    rng = np.random.default_rng(11)
    K = Intrinsics(fx=240.0, fy=240.0, cx=_W / 2, cy=_H / 2, width=_W, height=_H)
    cfg = losses.LossConfig(num_levels=4, use_explainability=True)
    state = model.init_state([rng.random((_H, _W, 1)) for _ in range(5)], 2, K, cfg)
    state.depth_logits += rng.normal(0.0, 0.1, state.depth_logits.shape)
    state.poses[:] = rng.normal(0.0, 0.01, state.poses.shape)
    for m in state.mask_logits:
        m += rng.normal(0.0, 0.5, m.shape)
    return state, cfg


def _traced_peak_mb(run) -> float:
    """MB that tracemalloc sees allocated at the peak of run(), above what
    was allocated when it started; run() is called once untraced first, so
    memoized grids are in place."""
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def test_the_warp_working_set_at_the_training_shape():
    # One gradient warp of a 416x128 source over its level-0 grid, given its
    # points, as a source task runs it: its outputs (a map each of value,
    # valid, d/du and d/dv, and three of source points) are 2.6 MB.
    state, _ = _training_shape_state()
    K = state.intrinsics
    depth = state.depth()
    P = geometry.points_at_depth(depth, sampler.pixel_grid(K).rays)
    T = geometry.pose_to_transform(state.poses[0])
    assert _traced_peak_mb(lambda: sampler.inverse_warp(state.sources[0], depth, T, K,
                                                        points=P)) <= 6.0


def test_the_total_loss_working_set_at_the_training_shape(monkeypatch):
    # With no pool, every source task runs on the caller, one after another,
    # so the peak does not depend on how threads overlap; the level groups
    # are as in a fit. The mask probabilities and gradients alone are 4.5 MB.
    monkeypatch.setattr(losses, "_source_pool", lambda: (None, 0))
    state, cfg = _training_shape_state()
    pyramids = losses.build_snippet_pyramids(state, cfg)
    assert [g.levels for g in pyramids.groups] == [range(1), range(1, 2), range(2, 4)]
    assert _traced_peak_mb(lambda: losses.total_loss(state, cfg, pyramids=pyramids)) <= 15.0
