"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS line with its headline numbers (visible with
``pytest -s`` or in captured output); a failure of any assertion means the
criterion is not met. Runtime budgets are asserted, not just observed.
"""

import os
import time

import numpy as np

from viewsynth import (cli, evaluation, fileio, geometry, gradcheck, losses,
                       model, sampler, synth)
from viewsynth.geometry import Intrinsics
from viewsynth.losses import LossConfig
from viewsynth.model import AdamConfig


def _report(name, detail, elapsed, budget):
    assert elapsed < budget, f"{name}: {elapsed:.1f}s exceeds {budget}s budget"
    print(f"PASS {name}: {detail} ({elapsed:.1f}s < {budget}s)")


# -- 1. Gradient correctness ---------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    seeds = gradcheck.DEFAULT_SEEDS
    assert len(seeds) >= 20
    worst = gradcheck.run(seeds)
    assert {"depth_logits", "poses", "mask_logits_0", "mask_logits_1"} <= set(worst)
    for name, err in worst.items():
        assert err <= 1e-4, f"{name} rel err {err:.3e} > 1e-4"
    _report(
        "criterion 1 (gradient correctness)",
        f"{len(seeds)} instances, worst rel err {max(worst.values()):.2e}",
        time.perf_counter() - t0, 30.0,
    )


# -- 2. Warp identities --------------------------------------------------------

def test_criterion_2_warp_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    K = Intrinsics(fx=50.0, fy=50.0, cx=20.0, cy=10.0, width=40, height=20)
    src = rng.random((20, 40, 1))
    depth = rng.uniform(1.0, 5.0, (20, 40))

    w = sampler.inverse_warp(src, depth, np.eye(4), K, want_grads=False)
    assert np.array_equal(w.warped, src), "identity warp is not bit-exact"
    assert w.valid.all()

    # Fronto-parallel plane, pure x translation: the warp is a closed-form
    # horizontal shift of fx * tx / D = 5 pixels per frame, so the rendered
    # frames are exact shifts of one another and the warped sources must
    # reproduce the target.
    D, tx = 2.0, 0.2
    spec = synth.SceneSpec(
        kind="plane", texture_seed=3, depth=D,
        trajectory=synth.linear_trajectory(3, (tx, 0.0, 0.0)), intrinsics=K,
    )
    seq = synth.render_scene(spec)
    shift = int(round(K.fx * tx / D))
    assert np.abs(seq.frames[2][:, : 40 - shift]
                  - seq.frames[1][:, shift:]).max() < 1e-6  # closed-form shift
    worst = 0.0
    for s in (0, 2):
        T = synth.relative_pose(seq, s)
        w = sampler.inverse_warp(seq.frames[s], seq.gt_depths[1], T, K,
                                 want_grads=False)
        err = np.abs(w.warped - seq.frames[1])[w.valid]
        assert w.valid.sum() >= 20 * (40 - shift)
        worst = max(worst, err.mean())
    assert worst < 1e-6, f"shift-warp mean L1 {worst:.2e}"
    _report(
        "criterion 2 (warp identities)",
        f"identity bit-exact, shift mean L1 {worst:.2e}",
        time.perf_counter() - t0, 5.0,
    )


# -- 3. Oracle recovery on a textured plane ------------------------------------

def test_criterion_3_plane_recovery():
    t0 = time.perf_counter()
    K = Intrinsics(fx=30.0, fy=30.0, cx=32.0, cy=24.0, width=64, height=48)
    spec = synth.SceneSpec(
        kind="plane", texture_seed=7, depth=2.0,
        trajectory=synth.linear_trajectory(3, (0.15, 0.0, 0.0)),
        intrinsics=K,
    )
    seq = synth.render_scene(spec)
    cfg = LossConfig(num_levels=3, use_explainability=False)

    state = None
    history = []
    for lr, iters in [(0.01, 2000), (0.002, 1500), (0.0005, 1000)]:
        res = model.fit_snippet(
            seq.frames, seq.target_index, K, cfg,
            AdamConfig(lr=lr, max_iters=iters, tol=1e-9), state=state,
        )
        state = res.state
        history.extend(res.history)

    m = evaluation.depth_metrics(state.depth(), seq.gt_depths[seq.target_index])
    assert m.abs_rel < 0.05, f"Abs Rel {m.abs_rel:.4f} >= 0.05"

    dir_errs = []
    srcs = [i for i in range(3) if i != seq.target_index]
    for s, frame in enumerate(srcs):
        gt_t = synth.relative_pose(seq, frame)[:3, 3]
        pred_t = state.poses[s, 3:]
        cos = np.dot(gt_t, pred_t) / (np.linalg.norm(gt_t) * np.linalg.norm(pred_t))
        dir_errs.append(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))
    assert max(dir_errs) < 1.0, f"translation direction error {max(dir_errs):.2f} deg"

    vs0 = sum(history[0].vs_per_level)
    vs1 = sum(history[-1].vs_per_level)
    assert vs1 < 0.1 * vs0, f"final L_vs {vs1:.4g} >= 10% of initial {vs0:.4g}"
    _report(
        "criterion 3 (plane recovery)",
        f"Abs Rel {m.abs_rel:.4f}, dir err {max(dir_errs):.2f} deg, "
        f"L_vs ratio {vs1 / vs0:.3f}",
        time.perf_counter() - t0, 60.0,
    )


# -- 4. Explainability collapse vs. regularization ------------------------------

def test_criterion_4_mask_collapse_and_regularization():
    t0 = time.perf_counter()
    K = Intrinsics(fx=16.0, fy=16.0, cx=16.0, cy=12.0, width=32, height=24)
    spec = synth.SceneSpec(
        kind="plane", texture_seed=5, depth=2.0,
        trajectory=synth.linear_trajectory(3, (0.15, 0.0, 0.0)),
        intrinsics=K,
    )
    seq = synth.render_scene(spec)

    # Without the regularizer the trivial solution switches every pixel off.
    cfg0 = LossConfig(lambda_e=0.0, num_levels=2, use_explainability=True)
    res0 = model.fit_snippet(seq.frames, seq.target_index, K, cfg0,
                             AdamConfig(lr=0.02, max_iters=1500, tol=0.0))
    min_mask = min(r.mean_mask for r in res0.history)
    assert min_mask < 0.1, f"mean mask only reached {min_mask:.3f} without regularizer"

    # With the regularizer at its working value the mask stays informative.
    cfg1 = LossConfig(lambda_e=0.2, num_levels=2, use_explainability=True)
    res1 = model.fit_snippet(seq.frames, seq.target_index, K, cfg1,
                             AdamConfig(lr=0.01, max_iters=600, tol=0.0))
    # Masks start at exactly 0.5 (zero logits); they must never fall below
    # and must end clearly informative.
    floor = min(r.mean_mask for r in res1.history)
    final = res1.history[-1].mean_mask
    assert floor >= 0.5 and final > 0.5, (
        f"mean mask floor {floor:.3f}, final {final:.3f} despite regularizer")
    _report(
        "criterion 4 (mask collapse/regularization)",
        f"mean mask {min_mask:.3f} without regularizer, "
        f"final {final:.3f} with it",
        time.perf_counter() - t0, 60.0,
    )


# -- 5. Loss decomposition and reduction ----------------------------------------

def test_criterion_5_loss_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    K = Intrinsics(fx=10.0, fy=10.0, cx=6.0, cy=4.0, width=12, height=8)
    imgs = [rng.random((8, 12, 1)) for _ in range(3)]
    cfg = LossConfig(num_levels=2, use_explainability=True)
    state = model.init_state(imgs, 1, K, cfg)
    state.depth_logits += rng.normal(0, 0.3, state.depth_logits.shape)
    state.poses += rng.normal(0, 0.02, state.poses.shape)
    for m in state.mask_logits:
        m += rng.normal(0, 0.5, m.shape)

    report, _ = losses.total_loss(state, cfg)
    recomposed = sum(
        report.vs_per_level[l]
        + cfg.smooth_weight(l) * report.smooth_per_level[l]
        + cfg.lambda_e * sum(report.reg_per_level[l])
        for l in range(cfg.num_levels)
    )
    decomp_err = abs(report.total - recomposed)
    assert decomp_err <= 1e-12, f"decomposition error {decomp_err:.2e}"

    # A unit mask (probability exactly 1.0 in double) must reduce the masked
    # photometric loss to the unmasked one bitwise.
    cfg_nomask = LossConfig(num_levels=2, use_explainability=False)
    state_nomask = model.init_state(imgs, 1, K, cfg_nomask)
    state_nomask.depth_logits[:] = state.depth_logits
    state_nomask.poses[:] = state.poses
    for m in state.mask_logits:
        m[...] = 50.0  # sigmoid(50) == 1.0 in double precision
    masked, _ = losses.total_loss(state, cfg)
    plain, _ = losses.total_loss(state_nomask, cfg_nomask)
    for a, b in zip(masked.vs_per_level, plain.vs_per_level):
        assert a == b, "unit-mask photometric loss differs from unmasked"

    # Second-difference smoothness vanishes exactly on affine depth maps.
    ii, jj = np.meshgrid(np.arange(8), np.arange(12), indexing="ij")
    affine = 3.0 + 0.25 * ii + 0.5 * jj
    val, _ = losses.smoothness_loss(affine)
    assert val == 0.0, f"smoothness on affine depth is {val!r}"
    _report(
        "criterion 5 (loss decomposition/reduction)",
        f"decomposition err {decomp_err:.1e}, unit-mask bitwise, affine smoothness 0",
        time.perf_counter() - t0, 30.0,
    )


# -- 6. Evaluation protocol correctness ------------------------------------------

def test_criterion_6_evaluation_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    # Depth metrics vs. an independent scalar loop.
    gt = rng.uniform(1, 20, (4, 5))
    pred = gt * rng.uniform(0.5, 2.0, (4, 5))
    m = evaluation.depth_metrics(pred, gt)
    s = np.median(gt) / np.median(pred)
    vals = [(pred[i, j] * s, gt[i, j]) for i in range(4) for j in range(5)]
    n = len(vals)
    assert abs(m.abs_rel - sum(abs(p - g) / g for p, g in vals) / n) < 1e-6
    assert abs(m.rmse - np.sqrt(sum((p - g) ** 2 for p, g in vals) / n)) < 1e-6
    assert abs(m.delta1 - sum(max(p / g, g / p) < 1.25 for p, g in vals) / n) < 1e-6

    # Median-scaling invariance holds to machine precision.
    m2 = evaluation.depth_metrics(6.0 * pred, gt)
    assert abs(m.abs_rel - m2.abs_rel) < 1e-12

    # ATE vs. a brute-force 1-D scale search.
    def traj(ts):
        return [geometry.pose_to_transform([0, 0, 0, a, b, c])
                for a, b, c in ts]

    gt_t = traj([(0, 0, 0)] + [tuple(rng.normal(0, 1, 3)) for _ in range(4)])
    pr_t = traj([(0, 0, 0)] + [tuple(rng.normal(0, 1, 3)) for _ in range(4)])
    r = evaluation.snippet_ate(pr_t, gt_t)
    tp = np.stack([T[:3, 3] for T in evaluation.rebase(pr_t)])
    tg = np.stack([T[:3, 3] for T in evaluation.rebase(gt_t)])
    scales = np.linspace(0, 5, 2000001)
    costs = ((scales[:, None, None] * tp[None] - tg[None]) ** 2).sum((1, 2))
    best = scales[np.argmin(costs)]
    ate_best = np.sqrt(np.mean(np.linalg.norm(best * tp - tg, axis=1) ** 2))
    assert abs(r.ate - ate_best) < 1e-6

    # ATE scale invariance of the prediction.
    scaled = [T.copy() for T in pr_t]
    for T in scaled:
        T[:3, 3] *= 11.0
    assert abs(evaluation.snippet_ate(scaled, gt_t).ate - r.ate) < 1e-9

    # Delta monotonicity on fuzzed inputs.
    for seed in range(200):
        r2 = np.random.default_rng(seed)
        mm = evaluation.depth_metrics(r2.uniform(0.1, 50, (5, 5)),
                                      r2.uniform(0.1, 50, (5, 5)))
        assert 0.0 <= mm.delta1 <= mm.delta2 <= mm.delta3 <= 1.0
    _report(
        "criterion 6 (evaluation protocol)",
        "scalar and grid-search oracles matched to 1e-6, invariances exact",
        time.perf_counter() - t0, 30.0,
    )


# -- 7. Determinism --------------------------------------------------------------

def test_criterion_7_cli_determinism(tmp_path):
    t0 = time.perf_counter()

    def dir_bytes(path):
        return {n: (path / n).read_bytes() for n in sorted(os.listdir(path))}

    for d in ("a", "b"):
        assert cli.main(["synth", "--out", str(tmp_path / d), "--seed", "9",
                         "--width", "24", "--height", "16", "--focal", "20",
                         "--frames", "3"]) == 0
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    for d in ("f1", "f2"):
        assert cli.main(["fit", "--in", str(tmp_path / "a"),
                         "--out", str(tmp_path / d), "--levels", "2",
                         "--lr", "0.01", "--max-iters", "50"]) == 0
    assert dir_bytes(tmp_path / "f1") == dir_bytes(tmp_path / "f2")
    _report(
        "criterion 7 (determinism)",
        "synth and fit outputs byte-identical across reruns",
        time.perf_counter() - t0, 60.0,
    )
