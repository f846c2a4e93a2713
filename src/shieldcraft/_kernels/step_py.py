"""Pure lane of the flight-dynamics step kernel.

`step_batch` advances a batch of continuous spacecraft states one decision
step; `step_one` is the scalar twin used on the sequential episode path.
Both apply exactly the same arithmetic, in the same association order, as
the compiled lane in ``_stepcore.pyx`` -- keep the three in sync so that
lane selection never changes results.

Parameter vector layout (``par``, 40 float64): ten per-mode rows of four,
in order: solar gain, power drain, wheel drift, wheel noise scale, rate
pull, rate target, rate noise scale, pointing keep factor, pointing drift,
pointing noise scale.
"""

import numpy as np


def step_batch(rate, wheel, charge, err, sun, action, e_w, e_r, e_a, par):
    """Advance state arrays in place (one decision step per element)."""
    p = par.reshape(10, 4)
    gain = p[0][action]
    drain = p[1][action]
    w_drift = p[2][action]
    w_noise = p[3][action]
    r_pull = p[4][action]
    r_target = p[5][action]
    r_noise = p[6][action]
    e_keep = p[7][action]
    e_drift = p[8][action]
    e_noise = p[9][action]
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
