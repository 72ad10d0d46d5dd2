"""Command-line surface: synth | fit | warp | gradcheck | eval-depth | eval-odom.

`main` returns every exit code and raises none: 0 success (or --help),
1 runtime/numeric failure, 2 usage error, such as a flag's own bad value.
Diagnostics go to stderr; data and reports go to files or stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import evaluation, fileio, geometry, gradcheck, losses, model, sampler, synth
from .geometry import Intrinsics


def _checked(convert, ok, rule: str):
    """An argparse type: `convert` a flag's text, and refuse a value for
    which ok(value) is false as "argument FLAG: must be RULE, got VALUE".
    Unreadable text reads "invalid int value: 'x'" by convert's name."""
    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    check.__name__ = convert.__name__
    return check


def _int_at_least(least: int):
    return _checked(int, lambda n: n >= least, f">= {least}")


_FINITE = _checked(float, math.isfinite, "finite")
_POSITIVE = _checked(float, lambda x: math.isfinite(x) and x > 0, "finite and > 0")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="viewsynth",
        description="Direct photometric depth/pose optimization on image snippets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic snippet with ground truth")
    p.add_argument("--out", required=True, help="output sequence directory")
    p.add_argument("--scene", default="plane", choices=synth.SCENE_KINDS)
    p.add_argument("--frames", type=_int_at_least(2), default=3)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--width", type=_int_at_least(1), default=48)
    p.add_argument("--height", type=_int_at_least(1), default=32)
    p.add_argument("--focal", type=_POSITIVE, default=50.0)
    p.add_argument("--depth", type=float, default=2.0, help="plane depth in scene units")
    p.add_argument("--step-x", type=_FINITE, default=0.1, help="per-frame camera x translation")
    p.add_argument("--step-z", type=_FINITE, default=0.0, help="per-frame camera z translation")
    p.add_argument("--noise", type=float, default=0.0, help="additive Gaussian sigma")

    p = sub.add_parser("fit", help="optimize depth, poses, and masks on a snippet")
    p.add_argument("--in", dest="indir", required=True, help="sequence directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--levels", type=_int_at_least(1), default=3)
    p.add_argument("--lambda-s", type=float, default=0.5)
    masks = p.add_mutually_exclusive_group()   # the weight is read only with masks on
    masks.add_argument("--lambda-e", type=float, default=0.2)
    masks.add_argument("--no-explainability", action="store_true")
    p.add_argument("--lr", type=float, default=0.0002)
    p.add_argument("--max-iters", type=int, default=3000)
    p.add_argument("--depth-prior", type=float, default=1.0)

    p = sub.add_parser("warp", help="inverse-warp sources to the target with ground truth")
    p.add_argument("--in", dest="indir", required=True, help="sequence directory with ground truth")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    n_seeds = len(gradcheck.DEFAULT_SEEDS)
    p.add_argument("--instances", default=5,
                   type=_checked(int, lambda n: 1 <= n <= n_seeds, f"in 1..{n_seeds}"),
                   help="number of screened instances to check")
    p.add_argument("--tolerance", type=_POSITIVE, default=1e-4)
    p.add_argument("--inject-grad-bug", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("eval-depth", help="median-scaled depth metrics")
    p.add_argument("--in", dest="pred", required=True, help="predicted depth (WF01)")
    p.add_argument("--gt", required=True, help="ground-truth depth (WF01)")
    p.add_argument("--cap", type=_POSITIVE, default=None, help="exclude gt deeper than this")
    p.add_argument("--crop", type=_checked(float, lambda x: 0 < x <= 1, "in (0, 1]"),
                   default=None, help="central crop fraction in (0, 1]")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("eval-odom", help="snippet ATE between two trajectory files")
    p.add_argument("--in", dest="pred", required=True, help="predicted trajectory")
    p.add_argument("--gt", required=True, help="ground-truth trajectory")
    p.add_argument("--snippet-len", type=_int_at_least(2), default=5)
    p.add_argument("--out", default=None)
    return ap


def cmd_synth(args) -> int:
    K = Intrinsics(fx=args.focal, fy=args.focal, cx=args.width / 2,
                   cy=args.height / 2, width=args.width, height=args.height)
    spec = synth.SceneSpec(
        kind=args.scene,
        texture_seed=args.seed,
        depth=args.depth,
        trajectory=synth.linear_trajectory(args.frames, (args.step_x, 0.0, args.step_z)),
        intrinsics=K,
        noise_sigma=args.noise,
    )
    seq = synth.render_scene(spec)
    synth.save_sequence(seq, args.out)
    print(f"wrote {args.frames} frames to {args.out}", file=sys.stderr)
    return 0


def cmd_fit(args) -> int:
    seq = synth.load_sequence(args.indir)
    H, W = seq.frames[0].shape[:2]
    most = losses.max_pyramid_levels(H, W)
    if args.levels > most:
        print(f"fit: --levels {args.levels} is more than {W}x{H} frames allow; "
              f"at most {most}", file=sys.stderr)
        return 2
    loss_cfg = losses.LossConfig(
        lambda_s=args.lambda_s,
        lambda_e=args.lambda_e,
        num_levels=args.levels,
        use_explainability=not args.no_explainability,
    )
    adam_cfg = model.AdamConfig(lr=args.lr, max_iters=args.max_iters)
    state = model.init_state(seq.frames, seq.target_index, seq.intrinsics, loss_cfg,
                             args.depth_prior)
    result = model.fit_snippet(seq.frames, seq.target_index, seq.intrinsics, loss_cfg, adam_cfg,
                               state=state)
    os.makedirs(args.out, exist_ok=True)
    st = result.state
    fileio.save_wf01(os.path.join(args.out, "depth.wf01"), st.depth())
    model.save_checkpoint(os.path.join(args.out, "checkpoint.bin"), result.snippet, st)

    # Camera-to-world poses (world = target camera frame), in frame order:
    # the sources' poses, with the identity at the target's index.
    poses = [geometry.invert(T_ts) for T_ts in geometry.pose_to_transform(st.poses)]
    poses.insert(seq.target_index, np.eye(4))
    fileio.save_trajectory(os.path.join(args.out, "trajectory.txt"), poses)

    for l, m in enumerate(st.mask_logits or []):
        for si, prob in enumerate(losses.mask_probability(m)):
            fileio.save_wf01(os.path.join(args.out, f"mask_l{l}_s{si}.wf01"), prob)

    with open(os.path.join(args.out, "history.txt"), "w") as f:
        for i, rep in enumerate(result.history):
            f.write(f"{i} {rep.total:.17g}\n")
    print(
        f"fit finished after {result.iterations} iterations "
        f"(converged={result.converged}), final loss {result.history[-1].total:.6g}",
        file=sys.stderr,
    )
    return 0


def cmd_warp(args) -> int:
    seq = synth.load_sequence(args.indir)
    if seq.gt_depths is None or seq.gt_poses is None:
        print("warp: sequence directory lacks ground-truth depth or poses", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    depth = seq.gt_depths[seq.target_index]
    for i in range(len(seq.frames)):
        if i == seq.target_index:
            continue
        T = synth.relative_pose(seq, i)
        w = sampler.inverse_warp(seq.frames[i], depth, T, seq.intrinsics, want_grads=False)
        fileio.save_wf01(os.path.join(args.out, f"warped_{i:03d}.wf01"), w.warped)
        fileio.save_wf01(os.path.join(args.out, f"valid_{i:03d}.wf01"),
                         w.valid.astype(float))
    return 0


def cmd_gradcheck(args) -> int:
    worst = gradcheck.run(gradcheck.DEFAULT_SEEDS[: args.instances],
                          inject_bug=args.inject_grad_bug)
    ok = True
    for name in sorted(worst):
        status = "ok" if worst[name] <= args.tolerance else "FAIL"
        ok = ok and worst[name] <= args.tolerance
        print(f"{name} {worst[name]:.3e} {status}")
    return 0 if ok else 1


def _write_report(report: str, path: str | None) -> None:
    """Write `report` to the file at `path`, or to stdout without one."""
    if path:
        with open(path, "w") as f:
            f.write(report)
    else:
        sys.stdout.write(report)


def cmd_eval_depth(args) -> int:
    pred = fileio.load_depth_map(args.pred)
    gt = fileio.load_depth_map(args.gt)
    m = evaluation.depth_metrics(pred, gt, cap=args.cap, crop=args.crop)
    _write_report(evaluation.format_metrics_report(m), args.out)
    return 0


def cmd_eval_odom(args) -> int:
    pred = fileio.load_trajectory(args.pred)
    gt = fileio.load_trajectory(args.gt)
    if len(pred) != len(gt):
        print("eval-odom: trajectory lengths differ", file=sys.stderr)
        return 1
    pred_snips = evaluation.split_snippets(pred, args.snippet_len)
    gt_snips = evaluation.split_snippets(gt, args.snippet_len)
    if not pred_snips:
        print("eval-odom: trajectory shorter than snippet length", file=sys.stderr)
        return 1
    lines = []
    ates = []
    for i, (ps, gs) in enumerate(zip(pred_snips, gt_snips)):
        r = evaluation.snippet_ate(ps, gs)
        ates.append(r.ate)
        lines.append(f"snippet {i} ate {r.ate:.17g}")
    lines.insert(0, f"mean_ate {np.mean(ates):.17g}")
    _write_report("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "fit": cmd_fit,
    "warp": cmd_warp,
    "gradcheck": cmd_gradcheck,
    "eval-depth": cmd_eval_depth,
    "eval-odom": cmd_eval_odom,
}


def main(argv=None) -> int:
    """Run the command in `argv` (default sys.argv[1:]) and return its exit
    code, argparse's included: 2 for a usage error, 0 after --help."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, model.FitDiverged, model.NoValidPixels) as e:
        print(f"viewsynth {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
