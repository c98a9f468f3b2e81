import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiabatz.spectral import SpectralDensity, fourier_integral, psd
from adiabatz.waveform import hanning_window, rectangular_window


def away_from_integers(u, gap=0.03):
    return np.abs(u - np.round(u)) > gap


def rect_reference(u):
    # |sinc|^2 in the u = omega t_p / 2 pi variable
    return np.sinc(u) ** 2


def hanning_reference(u):
    return np.sinc(u) ** 2 / (1.0 - u**2) ** 2


def test_rectangular_closed_form():
    n = 32768
    t = np.linspace(0.0, 1.0, n)
    u = np.linspace(0.1, 10.0, 397)
    u = u[away_from_integers(u)]
    s = psd(t, rectangular_window(n), 2 * np.pi * u).values
    assert s == pytest.approx(rect_reference(u), rel=1e-6)


def test_hanning_closed_form():
    n = 1024
    t = np.linspace(0.0, 1.0, n)
    u = np.linspace(0.1, 10.0, 397)
    u = u[away_from_integers(u)]
    s = psd(t, hanning_window(n), 2 * np.pi * u).values
    assert s == pytest.approx(hanning_reference(u), rel=1e-6)


def test_closed_forms_scale_with_duration():
    # same spectra in u no matter the physical pulse length
    t_p = 2.7
    n = 8192
    t = np.linspace(0.0, t_p, n)
    u = np.array([0.35, 1.52, 3.47])
    s = psd(t, hanning_window(n) / t_p, 2 * np.pi * u / t_p).values
    assert s == pytest.approx(hanning_reference(u), rel=1e-6)


def test_zero_frequency_is_squared_area():
    t = np.linspace(0.0, 2.0, 4001)
    f = 1.25 * np.ones_like(t)  # area 2.5
    assert psd(t, f, np.array([0.0])).values[0] == pytest.approx(6.25, rel=1e-12)


def test_zero_signal():
    t = np.linspace(0.0, 1.0, 64)
    assert np.all(psd(t, np.zeros(64), np.linspace(0, 20, 7)).values == 0)


def test_time_shift_invariance():
    n = 2048
    t = np.linspace(0.0, 1.0, n)
    f = hanning_window(n)
    w = 2 * np.pi * np.array([0.4, 1.3, 2.6, 5.1])
    a = psd(t, f, w).values
    b = psd(t + 0.73, f, w).values
    assert b == pytest.approx(a, rel=1e-12)


def test_parseval_within_one_percent():
    n = 2048
    t = np.linspace(0.0, 1.0, n)
    f = hanning_window(n)
    omega = 2 * np.pi * np.concatenate(
        [np.linspace(0.0, 10.0, 2001), np.geomspace(10.0, 300.0, 2000)]
    )
    s = psd(t, f, omega).values
    total = np.trapezoid(s, omega)
    assert total == pytest.approx(np.pi * np.trapezoid(f * f, t), rel=0.01)


def test_fourier_integral_complex_signal():
    # complex tone: the integral concentrates at its own frequency
    t = np.linspace(0.0, 1.0, 4096)
    w0 = 2 * np.pi * 3.0
    f = np.exp(1j * w0 * t)
    assert abs(fourier_integral(t, f, np.array([w0]))[0]) == pytest.approx(
        1.0, abs=1e-6
    )
    assert abs(fourier_integral(t, f, np.array([0.0]))[0]) < 1e-10


# sample counts: any, and both sides of a square, where the sqrt(N) blocks
# are exactly full or carry one sample into a block of their own
_sizes = st.one_of(
    st.integers(1, 5000),
    st.integers(1, 70).map(lambda b: b * b),
    st.integers(1, 70).map(lambda b: b * b + 1),
)


@settings(deadline=None, max_examples=200)
@given(
    n=_sizes,
    t0=st.floats(-5.0, 5.0),
    duration=st.floats(0.1, 10.0),
    use_linspace=st.booleans(),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4096, t0=-5.0, duration=10.0, use_linspace=True, is_complex=True, seed=0)
@example(n=4097, t0=5.0, duration=0.1, use_linspace=False, is_complex=False, seed=1)
def test_factored_quadrature_matches_dense_sum(n, t0, duration, use_linspace, is_complex, seed):
    rng = np.random.default_rng(seed)
    if use_linspace:
        t = np.linspace(t0, t0 + duration, n)
    else:
        t = t0 + (duration / max(n - 1, 1)) * np.arange(n)
    f = rng.normal(size=n)
    if is_complex:
        f = f + 1j * rng.normal(size=n)
    # |omega| max|t| <= 450: the dense sum's own phase rounding stays
    # near 1e-14 of its scale
    omegas = np.concatenate([[0.0], rng.uniform(-30.0, 30.0, 7)])
    # trapezoid weights d (1/2, 1, ..., 1, 1/2); a single sample spans d = 0
    weights = np.full(n, (t[-1] - t[0]) / max(n - 1, 1))
    weights[[0, -1]] /= 2.0
    dense = np.array([np.sum(weights * f * np.exp(-1j * w * t)) for w in omegas])
    got = fourier_integral(t, f, omegas)
    assert np.all(np.abs(got - dense) <= 1e-13 * np.sum(np.abs(weights * f)))


def test_single_sample_gives_zeros():
    got = fourier_integral(np.array([0.3]), np.array([2.0 + 1j]), np.array([0.0, 1.5]))
    assert np.array_equal(got, np.zeros(2, dtype=complex))


def test_rejects_non_uniform_grid():
    n = 257
    t = np.linspace(0.0, 1.0, n)
    f = np.ones(n)
    fourier_integral(t, f, np.array([1.0]))  # uniform: accepted
    t[100] += 1e-6 * (t[1] - t[0])
    with pytest.raises(ValueError):
        fourier_integral(t, f, np.array([1.0]))


def test_accepts_rounded_grid_far_from_the_origin():
    # |t| / d = 2e8: the rounding of the times alone is ~2e-8 d
    t = 1000.0 + np.linspace(0.0, 1e-2, 2000)
    area = fourier_integral(t, np.ones(2000), np.array([0.0]))[0]
    assert area == pytest.approx(1e-2, rel=1e-9)


def test_rejects_negative_frequency():
    # and nan and inf, which gave a nan density with RuntimeWarnings
    t = np.linspace(0.0, 1.0, 16)
    for omega in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="frequency grid must be finite and nonnegative"):
            psd(t, np.ones(16), np.array([1.0, omega]))


def test_psd_rejects_a_complex_signal():
    # it offers only omega >= 0, half of a complex signal's spectrum, and
    # returned [1.0] for exp(i t) at omega = 1
    t = np.linspace(0.0, 1.0, 16)
    for values in (np.exp(1j * t), list(np.exp(1j * t)), np.ones(16, dtype=complex)):
        with pytest.raises(ValueError, match="signal must be real"):
            psd(t, values, [1.0])


def test_rejects_non_finite_signal():
    t = np.linspace(0.0, 1.0, 16)
    f = np.ones(16)
    f[3] = np.nan
    with pytest.raises(ValueError):
        fourier_integral(t, f, np.array([1.0]))


def test_density_type_rejects_negative_values():
    with pytest.raises(ValueError):
        SpectralDensity(omegas=np.array([1.0]), values=np.array([-0.1]))
