"""Control geometry of a two-level system with fixed transverse field.

The Hamiltonian is H = h_x*sigma_x + h_z*sigma_z (hbar = 1).  The control
angle theta is the polar angle of the field vector (h_x, 0, h_z) measured
from +z, and the gap frequency omega is twice the field magnitude.  With
h_x fixed, theta and h_z are interchangeable coordinates for the control.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "theta_from_fields",
    "h_z_from_theta",
    "omega_from_theta",
    "ground_state",
    "excited_state",
]


def _transverse_field(h_x: float) -> float:
    if not 0 < h_x < math.inf:  # refuses nan too
        raise ValueError(f"h_x must be finite and positive, got {h_x}")
    return h_x


def theta_from_fields(h_z, h_x: float = 1.0):
    """Control angle arctan2(h_x, h_z); array-friendly."""
    return np.arctan2(h_x, h_z)


def h_z_from_theta(theta, h_x: float = 1.0):
    """Invert the angle relation: h_z = h_x / tan(theta)."""
    return h_x / np.tan(theta)


def omega_from_theta(theta, h_x: float = 1.0):
    """Gap frequency from the angle: omega = 2*h_x / sin(theta)."""
    return 2.0 * h_x / np.sin(theta)


def ground_state(theta: float) -> np.ndarray:
    """Ground eigenstate of H(theta) in the lab basis, eigenvalue -E."""
    return np.array([np.sin(theta / 2.0), -np.cos(theta / 2.0)], dtype=complex)


def excited_state(theta: float) -> np.ndarray:
    """Excited eigenstate of H(theta) in the lab basis, eigenvalue +E."""
    return np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)], dtype=complex)
