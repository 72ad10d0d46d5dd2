"""Finite-difference verification of the full analytic gradient chain."""

from dataclasses import replace

import numpy as np
import pytest

from viewsynth import geometry, gradcheck, losses, sampler
from viewsynth.geometry import Intrinsics
from viewsynth.losses import LossConfig


@pytest.mark.parametrize("seed", gradcheck.DEFAULT_SEEDS[:4])
def test_all_parameter_groups_match_fd(seed):
    state, cfg = gradcheck.random_instance(seed)
    errs = gradcheck.check_instance(state, cfg)
    for name, err in errs.items():
        assert err <= 1e-4, f"{name}: {err:.3e}"


def test_fd_without_masks():
    state, cfg = gradcheck.random_instance(1, use_masks=False)
    errs = gradcheck.check_instance(state, cfg)
    assert set(errs) == {"depth_logits", "poses"}
    assert max(errs.values()) <= 1e-4


def test_single_level_fd():
    state, cfg = gradcheck.random_instance(2, levels=1)
    assert max(gradcheck.check_instance(state, cfg).values()) <= 1e-4


def test_injected_bug_is_detected():
    state, cfg = gradcheck.random_instance(0)
    errs = gradcheck.check_instance(state, cfg, inject_bug=True)
    assert errs["poses"] > 1e-4


def test_depth_gradient_through_pyramid():
    # Direct FD on one depth logit through a 2-level objective.
    state, cfg = gradcheck.random_instance(3)
    _, grads = losses.total_loss(state.snippet, state, cfg)
    h = 1e-5
    for idx in [(0, 0), (3, 7), (5, 11)]:
        orig = state.depth_logits[idx]
        state.depth_logits[idx] = orig + h
        hi, _ = losses.total_loss(state.snippet, state, cfg, want_grads=False)
        state.depth_logits[idx] = orig - h
        lo, _ = losses.total_loss(state.snippet, state, cfg, want_grads=False)
        state.depth_logits[idx] = orig
        fd = (hi.total - lo.total) / (2 * h)
        assert abs(grads.depth_logits[idx] - fd) <= 1e-4 * max(1.0, abs(fd))


# -- Batched forward pass -------------------------------------------------------

def _parameter_sets(state, rng, n):
    """n parameter sets around the state's: the state's own, all poses exactly
    zero (identity warps), source 0 moved so far that none of its pixels is
    valid, then random perturbations of every group."""
    sets = []
    for k in range(n):
        depth, poses = state.depth_logits.copy(), state.poses.copy()
        masks = state.mask_logits and [m.copy() for m in state.mask_logits]
        if k == 1:
            poses[:] = 0.0
        elif k == 2:
            poses[0, 3] = 50.0
        elif k > 2:
            depth += rng.normal(0.0, 0.2, depth.shape)
            poses += rng.normal(0.0, 0.01, poses.shape)
            for m in masks or []:
                m += rng.normal(0.0, 0.5, m.shape)
        sets.append((depth, poses, masks))
    return sets


def _batched_totals(state, cfg, sets, batched, chunk):
    """Totals of `sets` from batched total_loss calls of up to `chunk` sets.
    Only the groups named in `batched` get a batch axis; the others are the
    state's own, shared by the batch."""
    totals = []
    for start in range(0, len(sets), chunk):
        part = sets[start:start + chunk]
        batch = replace(state)
        if "depth" in batched:
            batch = replace(batch, depth_logits=np.stack([d for d, _, _ in part]))
        if "poses" in batched:
            batch = replace(batch, poses=np.stack([p for _, p, _ in part]))
        if "masks" in batched and state.mask_logits is not None:
            batch = replace(batch, mask_logits=[np.stack([m[l] for _, _, m in part])
                                                for l in range(len(state.mask_logits))])
        report, grads = losses.total_loss(batch.snippet, batch, cfg, want_grads=False)
        assert grads is None
        totals.extend(np.broadcast_to(report.total, (len(part),)).tolist())
    return totals


@pytest.mark.parametrize("use_masks", [True, False])
@pytest.mark.parametrize("levels", [1, 2])
@pytest.mark.parametrize("n_sources", [1, 2, 3])
def test_batched_totals_equal_per_call_totals(use_masks, levels, n_sources):
    state, cfg = gradcheck.random_instance(40 + n_sources, n_sources=n_sources,
                                           levels=levels, use_masks=use_masks)
    rng = np.random.default_rng(levels)
    for batched in (("depth", "poses", "masks"), ("depth",), ("poses",), ("masks",)):
        if batched == ("masks",) and not use_masks:
            continue
        sets = _parameter_sets(state, rng, 9)
        # Per-call reference: the state with exactly one parameter set.
        expected = []
        for depth, poses, masks in sets:
            one = replace(state,
                          depth_logits=depth if "depth" in batched else state.depth_logits,
                          poses=poses if "poses" in batched else state.poses,
                          mask_logits=masks if "masks" in batched else state.mask_logits)
            report, _ = losses.total_loss(one.snippet, one, cfg, want_grads=False)
            expected.append(report.total)
            if "poses" in batched and poses[0, 3] == 50.0:
                assert all(n[0] == 0 for n in report.valid_per_level)
        for chunk in (1, 7, len(sets)):
            assert _batched_totals(state, cfg, sets, batched, chunk) == expected, (batched, chunk)


def test_batched_depth_with_identity_poses_equals_per_call():
    # Fit iteration 1: every pose is zero, so the unbatched transform is the
    # identity and takes the exact shortcut for the whole depth batch.
    state, cfg = gradcheck.random_instance(6)
    state.poses[:] = 0.0
    sets = _parameter_sets(state, np.random.default_rng(1), 6)
    expected = [losses.total_loss(state.snippet, replace(state, depth_logits=d), cfg,
                                  False)[0].total for d, _, _ in sets]
    assert _batched_totals(state, cfg, sets, ("depth",), 4) == expected


@pytest.mark.parametrize("use_masks", [True, False])
def test_zero_pose_batch_reports_one_total_per_element(use_masks):
    # Each source warps through a stack of identity transforms.
    state, cfg = gradcheck.random_instance(0, use_masks=use_masks)
    state.poses[:] = 0.0
    one, _ = losses.total_loss(state.snippet, state, cfg, want_grads=False)
    batch = replace(state, poses=np.zeros((4,) + state.poses.shape))
    report, _ = losses.total_loss(batch.snippet, batch, cfg, want_grads=False)
    assert np.shape(report.total) == (4,)
    assert report.total.tolist() == [one.total] * 4


def test_batched_report_holds_per_element_terms():
    state, cfg = gradcheck.random_instance(7, n_sources=3)
    sets = _parameter_sets(state, np.random.default_rng(2), 6)
    sets[5][1][:, 3] = 50.0   # every source of the last set out of its image
    batch = replace(state, depth_logits=np.stack([d for d, _, _ in sets]),
                    poses=np.stack([p for _, p, _ in sets]),
                    mask_logits=[np.stack([m[l] for _, _, m in sets]) for l in range(2)])
    report, _ = losses.total_loss(batch.snippet, batch, cfg, want_grads=False)
    assert report.all_invalid.tolist() == [False] * 5 + [True]
    for k, (depth, poses, masks) in enumerate(sets):
        one, _ = losses.total_loss(state.snippet, replace(state, depth_logits=depth, poses=poses,
                                           mask_logits=masks), cfg, want_grads=False)
        for l in range(2):
            assert report.vs_per_level[l][k] == one.vs_per_level[l]
            assert report.smooth_per_level[l][k] == one.smooth_per_level[l]
            assert [r[k] for r in report.reg_per_level[l]] == one.reg_per_level[l]
            assert [n[k] for n in report.valid_per_level[l]] == one.valid_per_level[l]
        assert float(report.mean_mask[k]).hex() == one.mean_mask.hex()
        assert report.all_invalid[k] == one.all_invalid


@pytest.mark.parametrize("levels", [1, 2])   # one level; two warped as one row
@pytest.mark.parametrize("changes", ["none", "one", "few", "all"])
@pytest.mark.parametrize("poses", ["generic", "identity", "outside", "behind"])
def test_depth_batch_reports_equal_per_call_reports(levels, changes, poses):
    # Only the depth is batched, so every source warps every entry of the
    # batch through one transform, from points formed once per level group.
    state, cfg = gradcheck.random_instance(9, levels=levels)
    if poses == "identity":
        state.poses[:] = 0.0
    elif poses == "outside":
        state.poses[:, 3] = 0.3
    elif poses == "behind":
        state.poses[:, 5] = -0.3
    rng = np.random.default_rng(len(changes))
    batch = np.repeat(state.depth_logits[None], 6, axis=0)
    flat = batch.reshape(6, -1)
    # A logit of 5 is a depth of about 0.1: outside the source image or
    # behind its camera under the last two pose sets.
    near = poses in ("outside", "behind")
    if changes == "one":
        flat[3, 54] = 5.0 if near else flat[3, 54] + 1e-5   # pixel (4, 6)
    elif changes == "few":
        rows, cols = rng.integers(6, size=5), rng.integers(flat.shape[1], size=5)
        flat[rows, cols] = 5.0 if near else flat[rows, cols] + 0.4
    elif changes == "all":
        flat += rng.normal(0.0, 0.2, flat.shape)
        if near:
            flat[1:4, rng.integers(flat.shape[1], size=3)] = 5.0
    report, _ = losses.total_loss(state.snippet, replace(state, depth_logits=batch), cfg,
                                  want_grads=False)
    if near and changes != "none":   # the near pixels are invalid
        assert len(set(report.valid_per_level[0][0].tolist())) > 1
    for k, logits in enumerate(batch):
        one, _ = losses.total_loss(state.snippet, replace(state, depth_logits=logits), cfg,
                                   want_grads=False)
        assert report.total[k] == one.total
        for l in range(levels):
            assert report.vs_per_level[l][k] == one.vs_per_level[l]
            assert report.smooth_per_level[l][k] == one.smooth_per_level[l]
            assert [n[k] for n in report.valid_per_level[l]] == one.valid_per_level[l]
        assert report.reg_per_level == one.reg_per_level   # masks are not batched


def test_batched_total_loss_refuses_gradients():
    state, cfg = gradcheck.random_instance(0)
    batch = replace(state, depth_logits=np.stack([state.depth_logits] * 2))
    with pytest.raises(ValueError, match="batch"):
        losses.total_loss(batch.snippet, batch, cfg)


def _per_coordinate_check(state, config, step=1e-5):
    """check_instance as one forward-only total_loss call per perturbation:
    the reference the batched oracle must reproduce bit for bit."""
    _, grads = losses.total_loss(state.snippet, state, config)
    analytic = dict(grads.items())
    errors, fds = {}, {}
    for name, param in state.items():
        fd = np.zeros_like(param)
        flat = param.reshape(-1)
        fdflat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi, _ = losses.total_loss(state.snippet, state, config, want_grads=False)
            flat[i] = orig - step
            lo, _ = losses.total_loss(state.snippet, state, config, want_grads=False)
            flat[i] = orig
            fdflat[i] = (hi.total - lo.total) / (2 * step)
        a = analytic[name]
        scale = max(np.max(np.abs(a)), np.max(np.abs(fd)), 1e-12)
        errors[name] = float(np.max(np.abs(a - fd)) / scale)
        fds[name] = fd
    return errors, fds


def _oracle_lists(state):
    """check_instance's lists of parameter arrays (depth logits, poses, every
    mask level), then depth logits and poses in one list, where a batch can
    hold sets of both."""
    params = dict(state.items())
    masks = [name for name in params if name.startswith("mask_logits")]
    lists = [["depth_logits"], ["poses"], masks, ["depth_logits", "poses"]]
    return [names for names in lists if names], params


@pytest.mark.parametrize("seed, kwargs", [
    *(pytest.param(seed, {}, id=str(seed)) for seed in gradcheck.DEFAULT_SEEDS[:3]),
    # Three mask levels: the last mask batch holds sets of all three from
    # FD_CHUNK 64 up, and batches at FD_CHUNK 7 straddle two levels.
    pytest.param(44, {"n_sources": 3, "levels": 3}, id="S3-L3"),
    pytest.param(1, {"use_masks": False}, id="no-masks"),
])
def test_check_instance_equals_per_coordinate_loop(seed, kwargs, monkeypatch):
    state, cfg = gradcheck.random_instance(seed, **kwargs)
    ref_errors, ref_fds = _per_coordinate_check(state, cfg)
    lists, params = _oracle_lists(state)
    for chunk in (1, 7, 64, 10 ** 6):
        monkeypatch.setattr(gradcheck, "FD_CHUNK", chunk)
        assert gradcheck.check_instance(state, cfg) == ref_errors
        for names in lists:
            fds = gradcheck.central_differences(state.snippet, state, cfg,
                                                [params[n] for n in names], 1e-5)
            for name, fd in zip(names, fds, strict=True):
                assert np.array_equal(fd, ref_fds[name]), (name, chunk)


# (height, width, levels, sources, masks, PARALLEL_MIN_ELEMENTS, poses, step)
# on odd-sized frames, so some pixels fall in a truncated row or column. An
# infinite PARALLEL_MIN_ELEMENTS joins every level in one group, 0 makes each
# level a group of its own. "identity" poses make each pose set leave the
# identity shortcut for its own source while the others keep it. "near"
# poses and a step of 2 move depth sets' pixels and pose sets' warps out of a
# source image and behind a camera, so valid counts change.
_ENTRY_CASES = {
    "L1-S3-masks-joined": (9, 11, 1, 3, True, float("inf"), "generic", 1e-5),
    "L2-S1-separate": (9, 11, 2, 1, False, 0, "generic", 1e-5),
    "L3-S4-masks-separate-identity": (9, 11, 3, 4, True, 0, "identity", 1e-5),
    "L4-S2-masks-joined-near": (17, 19, 4, 2, True, float("inf"), "near", 2.0),
}


@pytest.mark.parametrize("case", list(_ENTRY_CASES))
def test_central_differences_of_every_array_equal_per_coordinate_loop(case, monkeypatch):
    height, width, levels, sources, masks, min_elements, poses, step = _ENTRY_CASES[case]
    monkeypatch.setattr(losses, "PARALLEL_MIN_ELEMENTS", min_elements)
    state, cfg = gradcheck.random_instance(7, height=height, width=width, n_sources=sources,
                                           levels=levels, use_masks=masks)
    if poses == "identity":
        state.poses[:] = 0.0
    elif poses == "near":
        state.poses[0, 3] = 0.3    # a depth of about 0.2 leaves the image
        state.poses[1, 5] = -0.5   # and goes behind the camera
        # A mask logit below -_LOG_MAX_FLOAT, where exp(-logit) overflows.
        state.mask_logits[1][1, 2, 3] = -2 * losses._LOG_MAX_FLOAT
        near = replace(state, depth_logits=state.depth_logits + step)
        base, _ = losses.total_loss(state.snippet, state, cfg, want_grads=False)
        moved, _ = losses.total_loss(state.snippet, near, cfg, want_grads=False)
        assert all(moved.valid_per_level[0][s] < base.valid_per_level[0][s] for s in (0, 1))
        # The pose sets that move tx of source 0 and tz of source 1 by the step.
        for s, entry, sign in ((0, 3, 1), (1, 5, -1)):
            near = replace(state, poses=state.poses.copy())
            near.poses[s, entry] += sign * step
            moved, _ = losses.total_loss(state.snippet, near, cfg, want_grads=False)
            assert moved.valid_per_level[0][s] < base.valid_per_level[0][s]
            assert moved.valid_per_level[0][1 - s] == base.valid_per_level[0][1 - s]
    expected = {name: fd.tobytes()
                for name, fd in _per_coordinate_check(state, cfg, step)[1].items()}
    params = dict(state.items())
    mask_names = [name for name in params if name.startswith("mask_logits")]
    lists = [["depth_logits"], ["poses"], *([name] for name in mask_names), mask_names,
             ["depth_logits", "poses", *mask_names], ["poses", *mask_names[::-1]]]
    # 7: chunk boundaries inside each level's sets and each source's pose sets.
    for chunk in (7, gradcheck.FD_CHUNK):
        monkeypatch.setattr(gradcheck, "FD_CHUNK", chunk)
        for names in lists:
            if not names:
                continue
            fds = gradcheck.central_differences(state.snippet, state, cfg,
                                                [params[n] for n in names], step)
            for name, fd in zip(names, fds, strict=True):
                assert fd.tobytes() == expected[name], (name, chunk)


@pytest.mark.parametrize("pick", [
    pytest.param(lambda st: [st.depth_logits.copy()], id="depth-copy"),
    pytest.param(lambda st: [st.poses[:1]], id="pose-view"),
    pytest.param(lambda st: [st.poses, st.mask_logits[1].copy()], id="mask-copy"),
])
def test_central_differences_refuses_arrays_not_of_the_state(pick):
    # A copy or a view stays unperturbed: its differences would all be 0.
    state, cfg = gradcheck.random_instance(0)
    arrays = pick(state)
    with pytest.raises(ValueError, match=rf"arrays\[{len(arrays) - 1}\]"):
        gradcheck.central_differences(state.snippet, state, cfg, arrays, 1e-5)


@pytest.mark.parametrize("step", [0.0, -1e-5, np.nan, np.inf])
def test_central_differences_refuses_a_step_it_cannot_take(step):
    state, cfg = gradcheck.random_instance(0)
    with pytest.raises(ValueError, match=f"step must be finite and > 0, got {step}"):
        gradcheck.central_differences(state.snippet, state, cfg, [state.poses], step)


def _nan_pose_gradients(monkeypatch, instances):
    """Make the analytic pose gradient NaN in the gradient calls of the
    given instances (0-based, one gradient call each)."""
    total_loss = losses.total_loss
    seen = []

    def nan_poses(snippet, params, config, want_grads=True):
        report, grads = total_loss(snippet, params, config, want_grads)
        if grads is not None:
            if len(seen) in instances:
                grads.poses[:] = np.nan
            seen.append(None)
        return report, grads

    monkeypatch.setattr(losses, "total_loss", nan_poses)


@pytest.mark.parametrize("instances", [{0}, {1}, {0, 1}])
def test_run_keeps_a_nan_error_as_the_worst(monkeypatch, instances):
    _nan_pose_gradients(monkeypatch, instances)
    worst = gradcheck.run(gradcheck.DEFAULT_SEEDS[:2])
    assert np.isnan(worst["poses"])
    assert worst["depth_logits"] <= 1e-4


def test_central_differences_refuses_a_bare_array():
    # Iterating an array would take its rows for parameter arrays of the
    # state and return differences of an unperturbed objective.
    state, cfg = gradcheck.random_instance(0)
    with pytest.raises(TypeError, match="list"):
        gradcheck.central_differences(state.snippet, state, cfg, state.poses, 1e-5)


def test_check_instance_makes_one_gradient_call_and_one_entry_totals(monkeypatch):
    # 8x12, S=2, L=2: one gradient total_loss call and no forward-only one.
    # One EntryTotals, built on the state itself, takes the 2 * 96
    # depth-logit, 2 * 12 pose and 2 * (2 * 96 + 2 * 24) mask-logit sets in
    # batches of up to FD_CHUNK, with the state's own arrays: no call holds
    # a (B, ...) copy of a parameter array.
    state, cfg = gradcheck.random_instance(0)
    masks = [(2, 8, 12), (2, 4, 6)]
    names = {id(p): name for name, p in state.items()}
    total_loss, entry_totals = losses.total_loss, losses.EntryTotals
    for chunk, depth_sets, pose_sets, mask_sets in (
            (gradcheck.FD_CHUNK, [192], [24], [[384], [96]]),
            (100, [100, 92], [24], [[100, 100, 100, 84], [96]])):
        monkeypatch.setattr(gradcheck, "FD_CHUNK", chunk)
        calls, built, entries = [], [], []

        def counting(snippet, params, config, want_grads=True):
            calls.append((want_grads, np.shape(params.depth_logits), np.shape(params.poses),
                          [np.shape(m) for m in params.mask_logits]))
            return total_loss(snippet, params, config, want_grads)

        class Recording(entry_totals):
            def __init__(self, snippet, params, config):
                assert params is state and snippet is state.snippet
                built.append(params)
                super().__init__(snippet, params, config)

            def __call__(self, array, keys, values):
                entries.append((names[id(array)], len(values)))
                return super().__call__(array, keys, values)

        monkeypatch.setattr(losses, "total_loss", counting)
        monkeypatch.setattr(losses, "EntryTotals", Recording)
        gradcheck.check_instance(state, cfg)
        assert calls == [(True, (8, 12), (2, 6), masks)]
        assert len(built) == 1
        assert entries == ([("depth_logits", b) for b in depth_sets]
                           + [("poses", b) for b in pose_sets]
                           + [(f"mask_logits_{l}", b) for l in (0, 1) for b in mask_sets[l]])


@pytest.mark.parametrize("pick", [
    pytest.param(lambda st: st.depth_logits.copy(), id="depth-copy"),
    pytest.param(lambda st: st.poses.copy(), id="pose-copy"),
    pytest.param(lambda st: st.mask_logits[1].copy(), id="mask-copy"),
])
def test_entry_totals_refuses_an_array_not_of_its_params(pick):
    # A copy is never perturbed in the base point's rows: its totals would
    # all be the base total.
    state, cfg = gradcheck.random_instance(0)
    totals = losses.EntryTotals(state.snippet, state, cfg)
    with pytest.raises(ValueError, match="not the depth logits, the poses or a mask level"):
        totals(pick(state), [0, 0], [0.1, -0.1])


def test_projection_adjoint_matches_fd_over_a_two_level_group():
    # f = sum over the valid pixels of a * u_s + b * v_s, level by level,
    # for fixed weights a, b: projection_adjoint(a, b, ...) is its gradient
    # with respect to each pixel's depth and, per level, the pose.
    state, cfg = gradcheck.random_instance(3, height=8, width=12, levels=2)
    group, = state.snippet.groups
    assert group.levels == range(2)
    grid = group.grid
    depth = sampler.join_rows(losses.build_pyramid(state.depth(), 2))
    # The shift to the left leaves the left columns without a source pixel.
    pose = np.array([0.02, -0.03, 0.01, -0.3, -0.05, 0.02])
    T = geometry.pose_to_transform(pose)
    warp = sampler.inverse_warp(group.sources[0], depth, T, grid)
    for a, b in group.spans:   # each level has invalid pixels, and its last is valid
        assert 0 < warp.valid[..., a:b].sum() < b - a and warp.valid[0, b - 1]
    rng = np.random.default_rng(0)
    wu, wv = rng.normal(size=depth.shape), rng.normal(size=depth.shape)

    def weighted(depth, pose):   # per pixel, 0 where the base warp is invalid
        T = geometry.pose_to_transform(pose)
        pts = geometry.transform_points(T, geometry.points_at_depth(depth, grid.rays))
        u, v, _ = geometry.project_points(pts, grid)
        return np.where(warp.valid, wu * u + wv * v, 0.0)

    g_depth, g_pose = losses.projection_adjoint(
        wu, wv, warp, grid, T[:3, :3], geometry.rotation_jacobians(pose[:3]),
        geometry.points_at_depth(depth, grid.rays), group.spans)
    h = 1e-6
    # A pixel's coordinates depend on its own depth only.
    fd_depth = (weighted(depth + h, pose) - weighted(depth - h, pose)) / (2 * h)
    assert np.max(np.abs(g_depth - fd_depth)) < 1e-6 * np.max(np.abs(fd_depth))
    assert np.all(g_depth[~warp.valid] == 0.0)
    for k in range(6):
        step = np.zeros(6)
        step[k] = h
        diff = weighted(depth, pose + step) - weighted(depth, pose - step)
        fd = [diff[..., a:b].sum() / (2 * h) for a, b in group.spans]
        got = [g[k] for g in g_pose]
        assert np.allclose(got, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd))), k



def _per_pixel_adjoint(gu, gv, warp, grid, R, rot_jacs, P, spans):
    """projection_adjoint as it was before its per-level moments, kept as
    the reference: a (3, ...) map gX of the source points' gradients, each
    rotation gradient as the per-pixel products J P times gX summed per
    level, and the translation gradient as a running sum per level.

    Returns (g_depth, g_pose, depth_terms): depth_terms is, per pixel, the
    sum of the absolute values of the three products that g_depth adds."""
    valid = warp.valid
    x, y, z = warp.src_points
    safe_z = np.where(valid, z, 1.0)
    gu = gu * grid.fx
    gv = gv * grid.fy
    gz = -(gu * x + gv * y) / safe_z ** 2
    gX = np.zeros((3,) + valid.shape)
    np.copyto(gX[0], gu / safe_z, where=valid)
    np.copyto(gX[1], gv / safe_z, where=valid)
    np.copyto(gX[2], gz, where=valid)

    def rotated(M, pts):   # M @ each point of a (3, ...) map
        return (M @ pts.reshape(3, -1)).reshape(pts.shape)

    dX = rotated(R, grid.rays) * gX
    rot = []
    for J in rot_jacs:
        prod = rotated(J, P) * gX
        rot.append([prod[..., a:b].sum() for a, b in spans])
    g_pose = []
    for i, (a, b) in enumerate(spans):
        t = np.add.accumulate(gX[..., a:b].reshape(3, -1), axis=1)[:, -1]
        g_pose.append(np.concatenate(([r[i] for r in rot], t)))
    return dX.sum(axis=0), g_pose, np.abs(dX).sum(axis=0)


def _check_adjoint_against_reference(grid, spans, depth, pose, source, invalid_span=None):
    """projection_adjoint, given the Jacobians as a (3, 9) stack as
    total_loss passes them, against the per-pixel reference on one warp with
    random coordinate gradients, to 1e-12: per pixel for the depth (relative
    to the size of the pixel's terms, as its three terms may cancel) and per
    level for the pose. invalid_span, when given, is a span that the warp's
    valid map then turns off. Returns the warp and the gradients."""
    T = geometry.pose_to_transform(pose)
    warp = sampler.inverse_warp(source, depth, T, grid)
    if invalid_span is not None:
        a, b = invalid_span
        warp.valid[..., a:b] = False
    rng = np.random.default_rng(0)
    gu, gv = rng.normal(size=depth.shape), rng.normal(size=depth.shape)
    P = geometry.points_at_depth(depth, grid.rays)
    jacs = geometry.rotation_jacobians(pose[:3])
    g_depth, g_pose = losses.projection_adjoint(gu, gv, warp, grid, T[:3, :3],
                                                np.stack(jacs).reshape(3, 9), P, spans)
    ref_depth, ref_pose, depth_terms = _per_pixel_adjoint(gu, gv, warp, grid, T[:3, :3],
                                                          jacs, P, spans)
    assert g_depth.shape == depth.shape and np.all(np.isfinite(g_depth))
    assert np.all(np.abs(g_depth - ref_depth) <= 1e-12 * depth_terms)
    assert np.all(g_depth[~warp.valid] == 0.0)
    assert len(g_pose) == len(spans)
    for g, ref in zip(g_pose, ref_pose):
        assert np.all(np.isfinite(g))
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))
    return warp, g_depth, g_pose


def _two_level_group():
    state, cfg = gradcheck.random_instance(3, height=8, width=12, levels=2)
    group, = state.snippet.groups
    assert group.levels == range(2)
    return group, sampler.join_rows(losses.build_pyramid(state.depth(), 2))


def test_projection_adjoint_matches_per_pixel_reference_over_a_two_level_group():
    group, depth = _two_level_group()
    pose = np.array([0.02, -0.03, 0.01, -0.3, -0.05, 0.02])
    warp, _, _ = _check_adjoint_against_reference(group.grid, group.spans, depth, pose,
                                                  group.sources[0])
    for a, b in group.spans:   # each level has invalid pixels, and its last is valid
        assert 0 < warp.valid[..., a:b].sum() < b - a and warp.valid[0, b - 1]


def test_projection_adjoint_of_a_level_without_valid_pixels_is_zero():
    group, depth = _two_level_group()
    pose = np.array([0.02, -0.03, 0.01, -0.3, -0.05, 0.02])
    (a, b), coarse = group.spans
    _, g_depth, g_pose = _check_adjoint_against_reference(
        group.grid, group.spans, depth, pose, group.sources[0], invalid_span=(a, b))
    assert np.all(g_depth[..., a:b] == 0.0) and np.all(g_pose[0] == 0.0)
    assert np.any(g_pose[1] != 0.0)
    # A shift far to the right leaves no source pixel for any target pixel.
    pose = np.array([0.0, 0.0, 0.0, 50.0, 0.0, 0.0])
    warp, g_depth, g_pose = _check_adjoint_against_reference(
        group.grid, group.spans, depth, pose, group.sources[0])
    assert not warp.valid.any()
    assert np.all(g_depth == 0.0) and all(np.all(g == 0.0) for g in g_pose)


def test_projection_adjoint_matches_per_pixel_reference_at_416_x_128():
    K = Intrinsics(fx=240.0, fy=240.0, cx=208.0, cy=64.0, width=416, height=128)
    grid = sampler.join_grids([sampler.pixel_grid(K)])
    rng = np.random.default_rng(1)
    depth = 2.0 + rng.random(grid.u.shape)
    source = rng.random((grid.u.size, 3))
    pose = np.array([0.01, -0.02, 0.015, -0.1, -0.02, -0.05])
    warp, _, _ = _check_adjoint_against_reference(grid, ((0, grid.u.size),), depth, pose,
                                                  source)
    assert 0 < warp.valid.sum() < warp.valid.size and warp.valid[0, -1]
