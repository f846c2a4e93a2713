"""Flight-dynamics step kernel.

`step_batch` advances a batch of continuous spacecraft states one decision
step; `step_one` is the scalar twin used on the sequential episode path.
Both apply exactly the same arithmetic, in the same association order.

Parameter vector layout (``par``, 40 float64): ten per-mode rows of four,
in order: solar gain, power drain, wheel drift, wheel noise scale, rate
pull, rate target, rate noise scale, pointing keep factor, pointing drift,
pointing noise scale.
"""

import numpy as np

# read by perfbench's environment record; there is only the pure kernel
USING_COMPILED = False


def step_batch(rate, wheel, charge, err, sun, action, e_w, e_r, e_a, par):
    """Advance state arrays in place (one decision step per element);
    ``action`` is an integer array with one mode per element."""
    # one gather takes the actions' columns of the ten rows
    (gain, drain, w_drift, w_noise, r_pull, r_target, r_noise,
     e_keep, e_drift, e_noise) = par.reshape(10, 4).take(action, axis=1)
    charge[:] = np.minimum(1.0, (charge + gain * sun) - drain)
    wheel[:] = np.maximum(0.0, (wheel + w_drift) + w_noise * e_w)
    rate[:] = np.maximum(0.0, (rate + r_pull * (r_target - rate)) + r_noise * e_r)
    err[:] = np.maximum(0.0, (e_keep * err + e_drift) + e_noise * e_a)


def step_one(rate, wheel, charge, err, sun, action, e_w, e_r, e_a, par):
    """Scalar step; returns (rate, wheel, charge, err)."""
    # one slice takes the action's column of the ten rows as Python floats
    (gain, drain, w_drift, w_noise, r_pull, r_target, r_noise,
     e_keep, e_drift, e_noise) = par[action::4].tolist()
    charge = min(1.0, (charge + gain * sun) - drain)
    wheel = max(0.0, (wheel + w_drift) + w_noise * e_w)
    rate = max(0.0, (rate + r_pull * (r_target - rate)) + r_noise * e_r)
    err = max(0.0, (e_keep * err + e_drift) + e_noise * e_a)
    return rate, wheel, charge, err
