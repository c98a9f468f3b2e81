import numpy as np
import pytest

from adiabatz.geometry import (
    excited_state,
    ground_state,
    h_z_from_theta,
    omega_from_theta,
    theta_from_fields,
)


def test_theta_from_fields_quadrant():
    assert theta_from_fields(1.0, 1.0) == pytest.approx(np.pi / 4)
    assert theta_from_fields(0.0, 1.0) == pytest.approx(np.pi / 2)
    assert theta_from_fields(-1.0, 1.0) == pytest.approx(3 * np.pi / 4)


def test_round_trip_h_z():
    theta = np.linspace(0.05, np.pi - 0.05, 41)
    assert h_z_from_theta(theta, h_x=2.5) == pytest.approx(
        2.5 / np.tan(theta), rel=1e-14
    )
    back = theta_from_fields(h_z_from_theta(theta, h_x=2.5), h_x=2.5)
    assert back == pytest.approx(theta, abs=1e-13)


def test_omega_is_twice_field_magnitude():
    theta = theta_from_fields(3.0, h_x=4.0)
    assert theta == pytest.approx(np.arctan2(4.0, 3.0))
    assert omega_from_theta(theta, h_x=4.0) == pytest.approx(10.0)
    assert omega_from_theta(np.pi / 2, h_x=1.0) == pytest.approx(2.0)


def test_eigenstates_diagonalize_hamiltonian():
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = rng.uniform(0.02, np.pi - 0.02)
        h_x = rng.uniform(0.2, 3.0)
        h_z = h_z_from_theta(theta, h_x)
        h = np.array([[h_z, h_x], [h_x, -h_z]])
        g = ground_state(theta)
        e = excited_state(theta)
        lam = np.hypot(h_x, h_z)
        assert h @ g == pytest.approx(-lam * g, abs=1e-12)
        assert h @ e == pytest.approx(lam * e, abs=1e-12)
        assert abs(np.vdot(g, e)) < 1e-14


def test_state_normalization():
    for theta in (0.1, 1.0, 2.0, 3.0):
        assert np.linalg.norm(ground_state(theta)) == pytest.approx(1.0)
        assert np.linalg.norm(excited_state(theta)) == pytest.approx(1.0)
