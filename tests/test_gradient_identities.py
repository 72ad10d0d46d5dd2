"""Exact identities of the analytic gradients, which hold at every shape
without a finite-difference step.

Monocular depth and translation share one unknown scale: the photometric
and mask terms are invariant under (D, t) -> (s D, s t), and smoothness, an
L1 of a linear map of D, is 1-homogeneous in D. So

    sum dL/dD . D + sum_s dL/dt_s . t_s = sum_l w_l smooth_l.

With lambda_e = 0 the loss is linear in each mask probability p, so
sum g_mask / (1 - p) = sum_l vs_l. With t = 0 the warp does not depend on
depth, so the photometric depth gradient vanishes.

None of them takes a step, so none is hurt by the valid-set jumps that
limit the FD oracle at 416x128. Each is checked to 1e-12 relative to the sum
of the absolute values of its terms; dL/dD is the depth-logit gradient over
activate_depth_grad.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewsynth import gradcheck, losses

TOL = 1e-12


def _depth_gradient(state, grads) -> np.ndarray:
    """dL/dD from the gradient of the depth logits."""
    return grads.depth_logits / losses.activate_depth_grad(state.depth_logits)


def _residual(terms: list) -> tuple:
    """(|sum of the terms|, sum of their absolute values), the sum exact."""
    terms = np.concatenate([np.ravel(t) for t in terms])
    return abs(math.fsum(terms)), math.fsum(np.abs(terms))


def scale_identity(state, config) -> tuple:
    report, grads = losses.total_loss(state, config)
    smooth = [config.smooth_weight(l) * s for l, s in enumerate(report.smooth_per_level)]
    return _residual([_depth_gradient(state, grads) * state.depth(),
                      grads.poses[:, 3:] * state.poses[:, 3:], -np.array(smooth)])


def mask_identity(state, config) -> tuple:
    config = replace(config, lambda_e=0.0)
    report, grads = losses.total_loss(state, config)
    return _residual([g / (1 - losses.mask_probability(m))
                      for g, m in zip(grads.mask_logits, state.mask_logits)]
                     + [-np.array(report.vs_per_level)])


def zero_translation_depth_gradient(state, config) -> tuple:
    """(sum |dL/dD| D, the sum of the absolute values of its terms) with the
    translations set to 0 and lambda_s = 0. A pixel's dL/dD . D is G . (R P)
    for the gradient G of its source point, summed over sources and levels;
    its terms are bounded by |G| . (|R| |P|), which each adjoint call adds up
    here."""
    state = replace(state, poses=state.poses.copy())
    state.poses[:, 3:] = 0.0
    config = replace(config, lambda_s=0.0)
    terms = []
    adjoint = losses.projection_adjoint

    def recording(gu, gv, warp, grid, R, rot_jacs, P, spans):
        x, y, z = warp.src_points
        inv_z = 1.0 / np.where(warp.valid, z, np.inf)
        gx, gy = gu * grid.fx * inv_z, gv * grid.fy * inv_z
        G = np.stack([gx, gy, -(gx * x + gy * y) * inv_z]).reshape(3, -1)
        terms.append(np.sum(np.abs(G) * (np.abs(R) @ np.abs(P.reshape(3, -1)))))
        return adjoint(gu, gv, warp, grid, R, rot_jacs, P, spans)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "projection_adjoint", recording)
        _, grads = losses.total_loss(state, config)
    return np.sum(np.abs(_depth_gradient(state, grads)) * state.depth()), math.fsum(terms)


def _check_identities(state, config):
    for identity in (scale_identity, zero_translation_depth_gradient) + (
            (mask_identity,) if config.use_explainability else ()):
        residual, size = identity(state, config)
        assert residual <= TOL * size, (identity.__name__, residual, size)


def test_identities_at_416_x_128_with_masks():
    state, config = gradcheck.random_instance(0, height=128, width=416, n_sources=4, levels=4)
    _check_identities(state, config)
    # None of them holds trivially: the photometric parts are not zero.
    _, grads = losses.total_loss(state, config)
    assert np.all(grads.poses[:, 3:] != 0.0)
    assert min(zero_translation_depth_gradient(state, config)[1],
               mask_identity(state, config)[1]) > 1e-3


@given(st.integers(4, 20), st.integers(4, 28), st.integers(1, 4), st.integers(1, 4),
       st.booleans(), st.booleans(), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_identities_on_drawn_instances(height, width, n_sources, levels, use_masks, joined, seed):
    levels = min(levels, losses.max_pyramid_levels(height, width))
    state, config = gradcheck.random_instance(seed, height, width, n_sources, levels, use_masks)
    # All levels in one group, or each level a group of its own (with the
    # sources on threads where there are several).
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "PARALLEL_MIN_ELEMENTS", 1 << 30 if joined else 1)
        _check_identities(state, config)
