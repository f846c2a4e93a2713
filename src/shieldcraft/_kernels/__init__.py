"""Flight-dynamics step kernel.

`step_batch` advances a batch of continuous spacecraft states one decision
step; `step_one` is the scalar twin used on the sequential episode path.
Both apply exactly the same arithmetic, in the same association order, and
clamp alike: a NaN coordinate stays NaN in both, as ``np.minimum`` and
``np.maximum`` keep it, so a non-finite state leaves the safe domain on
either path.

Parameter vector layout (``par``, float64): ten rows of one coefficient per
flight mode, in order: solar gain, power drain, wheel drift, wheel noise
scale, rate pull, rate target, rate noise scale, pointing keep factor,
pointing drift, pointing noise scale. The mode count is ``len(par) // 10``.
"""

import numpy as np

# read by perfbench's environment record; there is only the pure kernel
USING_COMPILED = False


def step_batch(rate, wheel, charge, err, sun, action, e_w, e_r, e_a, par):
    """Advance state arrays in place (one decision step per element);
    ``action`` is an integer array with one mode per element."""
    # one gather takes the actions' columns of the ten rows
    (gain, drain, w_drift, w_noise, r_pull, r_target, r_noise,
     e_keep, e_drift, e_noise) = par.reshape(10, -1).take(action, axis=1)
    charge[:] = np.minimum(1.0, (charge + gain * sun) - drain)
    wheel[:] = np.maximum(0.0, (wheel + w_drift) + w_noise * e_w)
    rate[:] = np.maximum(0.0, (rate + r_pull * (r_target - rate)) + r_noise * e_r)
    err[:] = np.maximum(0.0, (e_keep * err + e_drift) + e_noise * e_a)


def action_rows(par):
    """The ten coefficients of each action, in ``par``'s row order, as the
    tuples `step_one` takes; built once per environment."""
    modes = len(par) // 10
    return [tuple(par[action::modes].tolist()) for action in range(modes)]


def step_one(rate, wheel, charge, err, sun, coef, e_w, e_r, e_a):
    """Scalar step under one action, whose coefficients ``coef`` are its
    row of `action_rows`; returns (rate, wheel, charge, err)."""
    (gain, drain, w_drift, w_noise, r_pull, r_target, r_noise,
     e_keep, e_drift, e_noise) = coef
    # ``x if not x >= 1.0 else 1.0`` is what ``np.minimum(1.0, x)`` gives,
    # and ``x if not x < 0.0 else 0.0`` what ``np.maximum(0.0, x)`` gives,
    # NaN and signed zero included: a NaN passes through, as in
    # `step_batch`, where the builtins ``min`` and ``max`` would clamp it,
    # and a tie at zero keeps ``x``, as numpy's maximum does
    charge = (charge + gain * sun) - drain
    charge = charge if not charge >= 1.0 else 1.0
    wheel = (wheel + w_drift) + w_noise * e_w
    wheel = wheel if not wheel < 0.0 else 0.0
    rate = (rate + r_pull * (r_target - rate)) + r_noise * e_r
    rate = rate if not rate < 0.0 else 0.0
    err = (e_keep * err + e_drift) + e_noise * e_a
    err = err if not err < 0.0 else 0.0
    return rate, wheel, charge, err
