import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewsynth import evaluation, geometry
from viewsynth.geometry import PoseParams


def test_median_scale_trivial_cases():
    gt = np.array([1.0, 2.0, 3.0])
    assert evaluation.median_scale(gt, gt) == 1.0
    assert evaluation.median_scale(2 * gt, gt) == 0.5


def test_median_scale_even_count_hand_value():
    pred = np.array([1.0, 2.0, 3.0, 4.0])
    gt = np.array([2.0, 4.0, 6.0, 8.0])
    assert evaluation.median_scale(pred, gt) == 2.0  # 5 / 2.5


def test_median_scale_no_valid_pixels():
    with pytest.raises(ValueError):
        evaluation.median_scale(np.ones(3), np.ones(3), np.zeros(3, dtype=bool))


def test_depth_metrics_perfect_prediction():
    gt = np.random.default_rng(0).uniform(1, 10, (6, 8))
    m = evaluation.depth_metrics(gt.copy(), gt)
    assert m.abs_rel == m.sq_rel == m.rmse == m.rmse_log == 0.0
    assert m.delta1 == m.delta2 == m.delta3 == 1.0


def test_depth_metrics_constant_ratio():
    gt = np.random.default_rng(1).uniform(1, 5, (5, 5))
    pred = 1.2 * gt
    m = evaluation.depth_metrics(pred, gt, apply_median_scaling=False)
    assert abs(m.abs_rel - 0.2) < 1e-12
    assert m.delta1 == 1.0  # 1.2 < 1.25
    assert abs(m.rmse_log - np.log(1.2)) < 1e-12


def test_depth_metrics_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    gt = rng.uniform(1, 20, (4, 5))
    pred = gt * rng.uniform(0.5, 2.0, (4, 5))
    m = evaluation.depth_metrics(pred, gt)

    # Independent scalar-loop oracle.
    s = np.median(gt) / np.median(pred)
    vals = [(pred[i, j] * s, gt[i, j]) for i in range(4) for j in range(5)]
    n = len(vals)
    abs_rel = sum(abs(p - g) / g for p, g in vals) / n
    sq_rel = sum((p - g) ** 2 / g for p, g in vals) / n
    rmse = np.sqrt(sum((p - g) ** 2 for p, g in vals) / n)
    rmse_log = np.sqrt(sum((np.log(p) - np.log(g)) ** 2 for p, g in vals) / n)
    d1 = sum(max(p / g, g / p) < 1.25 for p, g in vals) / n
    assert abs(m.abs_rel - abs_rel) < 1e-6
    assert abs(m.sq_rel - sq_rel) < 1e-6
    assert abs(m.rmse - rmse) < 1e-6
    assert abs(m.rmse_log - rmse_log) < 1e-6
    assert abs(m.delta1 - d1) < 1e-12


def test_depth_metrics_scale_invariance_exact():
    rng = np.random.default_rng(2)
    gt = rng.uniform(1, 10, (6, 6))
    pred = gt * rng.uniform(0.8, 1.2, (6, 6))
    m1 = evaluation.depth_metrics(pred, gt)
    m2 = evaluation.depth_metrics(7.0 * pred, gt)
    # The median scale absorbs any uniform positive rescaling.
    assert abs(m1.abs_rel - m2.abs_rel) < 1e-12
    assert abs(m1.rmse - m2.rmse) < 1e-12


def test_depth_metrics_cap_and_crop():
    gt = np.ones((10, 10)) * np.arange(1, 11)[None, :] * 10  # columns 10..100
    pred = gt.copy()
    m = evaluation.depth_metrics(pred, gt, cap=50.0)
    assert m.n_valid == 50  # only gt <= 50 kept
    m = evaluation.depth_metrics(pred, gt, crop=0.5)
    assert m.n_valid == 25


@pytest.mark.parametrize("cap", [np.nan, np.inf, 0.0, -1.0])
def test_depth_metrics_rejects_nonpositive_or_nonfinite_cap(cap):
    gt = np.full((4, 4), 2.0)
    with pytest.raises(ValueError, match=f"^cap must be finite and > 0, got {cap}$"):
        evaluation.depth_metrics(gt, gt, cap=cap)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=50)
def test_delta_monotonicity_fuzzed(seed):
    rng = np.random.default_rng(seed)
    gt = rng.uniform(0.1, 50, (5, 5))
    pred = rng.uniform(0.1, 50, (5, 5))
    m = evaluation.depth_metrics(pred, gt)
    assert 0.0 <= m.delta1 <= m.delta2 <= m.delta3 <= 1.0


def _traj(translations, yaws=None):
    out = []
    for k, t in enumerate(translations):
        ry = 0.0 if yaws is None else yaws[k]
        out.append(geometry.pose_to_transform(
            PoseParams(ry=ry, tx=t[0], ty=t[1], tz=t[2])))
    return out


def test_ate_identical_trajectories_is_zero():
    traj = _traj([(0, 0, 0), (0.1, 0, 1), (0.3, 0.1, 2)], yaws=[0, 0.1, 0.2])
    r = evaluation.snippet_ate(traj, traj)
    assert r.ate == 0.0


def test_ate_pure_scale_is_zero():
    gt = _traj([(0, 0, 0), (0.2, 0, 1), (0.5, 0, 2)])
    pred = _traj([(0, 0, 0), (0.1, 0, 0.5), (0.25, 0, 1)])
    r = evaluation.snippet_ate(pred, gt)
    assert abs(r.scale - 2.0) < 1e-12
    assert r.ate < 1e-12


def test_ate_matches_grid_search_oracle():
    rng = np.random.default_rng(5)
    gt = _traj([(0, 0, 0)] + [tuple(rng.normal(0, 1, 3)) for _ in range(4)])
    pred = _traj([(0, 0, 0)] + [tuple(rng.normal(0, 1, 3)) for _ in range(4)])
    r = evaluation.snippet_ate(pred, gt)

    # Brute-force 1-D search over the scale.
    tp = np.stack([T[:3, 3] for T in evaluation.rebase(pred)])
    tg = np.stack([T[:3, 3] for T in evaluation.rebase(gt)])
    scales = np.linspace(0, 5, 2000001)
    costs = ((scales[:, None, None] * tp[None] - tg[None]) ** 2).sum((1, 2))
    best = scales[np.argmin(costs)]
    assert abs(r.scale - best) < 1e-5
    ate_best = np.sqrt(np.mean(np.linalg.norm(best * tp - tg, axis=1) ** 2))
    assert abs(r.ate - ate_best) < 1e-6


def test_ate_scale_invariance_of_prediction():
    rng = np.random.default_rng(8)
    gt = _traj([(0, 0, 0)] + [tuple(rng.normal(0, 1, 3)) for _ in range(4)])
    pred = _traj([(0, 0, 0)] + [tuple(rng.normal(0, 1, 3)) for _ in range(4)])
    r1 = evaluation.snippet_ate(pred, gt)
    scaled = [T.copy() for T in pred]
    for T in scaled:
        T[:3, 3] *= 9.0
    r2 = evaluation.snippet_ate(scaled, gt)
    assert abs(r1.ate - r2.ate) < 1e-9


def test_ate_zero_prediction_flag():
    gt = _traj([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    pred = _traj([(0, 0, 0), (0, 0, 0), (0, 0, 0)])
    r = evaluation.snippet_ate(pred, gt)
    assert r.scale_undefined
    expected = np.sqrt(np.mean([0.0, 1.0, 4.0]))
    assert abs(r.ate - expected) < 1e-12


def test_split_snippets_counts_and_centering():
    traj = _traj([(k * 0.5, 0, k) for k in range(5)])
    snips = evaluation.split_snippets(traj, 5)
    assert len(snips) == 1
    assert np.allclose(snips[0][2], np.eye(4))  # central frame re-based

    traj7 = _traj([(k * 0.5, 0, k) for k in range(7)])
    assert len(evaluation.split_snippets(traj7, 5)) == 3
    assert evaluation.split_snippets(traj7[:3], 5) == []


def test_split_snippets_constant_velocity_invariance():
    traj = _traj([(0.1 * k, 0, 0.5 * k) for k in range(8)])
    snips = evaluation.split_snippets(traj, 5)
    for s in snips[1:]:
        for a, b in zip(s, snips[0]):
            assert np.allclose(a, b, atol=1e-12)


def test_mean_baseline_identical_snippets():
    snip = evaluation.rebase(_traj([(0.1 * k, 0, k) for k in range(5)],
                                   yaws=[0.02 * k for k in range(5)]))
    baseline = evaluation.mean_odometry_baseline([snip, snip, snip])
    r = evaluation.snippet_ate(baseline, snip)
    assert r.ate < 1e-9


def test_mean_baseline_opposite_translations_cancel():
    a = _traj([(0, 0, 0), (1, 0, 0)])
    b = _traj([(0, 0, 0), (-1, 0, 0)])
    baseline = evaluation.mean_odometry_baseline([a, b])
    assert np.allclose(baseline[1][:3, 3], 0.0, atol=1e-15)


def test_mean_baseline_constant_velocity_generalizes():
    # Dataset of identical constant-velocity snippets: the baseline nails a
    # held-out snippet with the same motion by construction.
    train = [evaluation.rebase(_traj([(0.2 * k, 0, 1.0 * k) for k in range(5)]))
             for _ in range(4)]
    held_out = evaluation.rebase(_traj([(0.2 * k, 0, 1.0 * k) for k in range(5)]))
    baseline = evaluation.mean_odometry_baseline(train)
    assert evaluation.snippet_ate(baseline, held_out).ate < 1e-9


def test_format_metrics_report_columns():
    m = evaluation.depth_metrics(np.full((3, 3), 2.0), np.full((3, 3), 2.0))
    rep = evaluation.format_metrics_report(m)
    head = rep.splitlines()[0]
    assert head.index("Abs Rel") < head.index("Sq Rel") < head.index("RMSE")
    assert "abs_rel 0" in rep
