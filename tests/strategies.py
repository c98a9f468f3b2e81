"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from adiabatz.waveform import derivative_waveform, theta_waveform


def _gentle_waveform(seed, n_m, derivative):
    # unit-duration shapes that stay inside (0.06, 2.6) by construction
    rng = np.random.default_rng(seed)
    if derivative:
        lam = np.concatenate([[1.0], rng.uniform(-0.1, 0.1, n_m - 1)])
        theta_i = rng.uniform(0.3, 1.3)
        return derivative_waveform(lam, 1.0, theta_i, theta_i + rng.uniform(0.4, 1.0))
    theta_i, excursion = rng.uniform(0.3, 0.8), rng.uniform(0.3, 0.8)
    lam = rng.uniform(-0.03, 0.03, n_m)
    # the odd-term sum pins the turning point at theta_i + excursion
    lam[0] = excursion / 2.0 - lam[2::2].sum()
    return theta_waveform(lam, 1.0, theta_i, theta_i + excursion)


# gentle sweeps in the derivative basis and excursions in the theta basis,
# one to five terms
gentle_waveforms = st.builds(
    _gentle_waveform, st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans()
)

# two- and three-term shapes of both bases, the size of the exact searches
few_term_waveforms = st.builds(
    _gentle_waveform, st.integers(0, 2**32 - 1), st.integers(2, 3), st.booleans()
)


def _antisymmetric_sweep(seed, n_m):
    # a derivative-basis sweep from theta_i to pi - theta_i, lam_1 taken
    # from the constraint as the searches assemble it
    rng = np.random.default_rng(seed)
    theta_i = rng.uniform(0.1, 1.3)
    span = np.pi - 2.0 * theta_i
    free = rng.uniform(-0.1, 0.1, n_m - 1) * span
    lam = np.concatenate([[span - free.sum()], free])
    return derivative_waveform(lam, 1.0, theta_i, np.pi - theta_i, normalized=False)


# the two mirror symmetries of the constant-gap kernel: theta-basis
# excursions, theta(1 - u) = theta(u), and derivative-basis sweeps with
# theta(1 - u) = pi - theta(u); one to five terms
mirror_symmetric_waveforms = st.one_of(
    st.builds(_gentle_waveform, st.integers(0, 2**32 - 1), st.integers(1, 5), st.just(False)),
    st.builds(_antisymmetric_sweep, st.integers(0, 2**32 - 1), st.integers(1, 5)),
)
