"""Fast-adiabatic control waveforms for a two-level crossing: spectral error
theory, optimal-window coefficient search, nonlinear time remapping, exact
dynamics, and a three-level derivative-control comparison.

Each public name lives in one module and is imported from it, e.g.
``from adiabatz.dynamics import evolve_two_level_direct``; importing the
package alone loads none of them."""

__version__ = "0.1.0"
