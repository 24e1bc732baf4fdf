"""Two-frequency atom-optics kicked rotor simulator.

Classical Monte Carlo ensembles (exact Jacobi-elliptic pendulum steps)
and Monte Carlo wavefunction quantum trajectories (split-step Fourier
with non-Hermitian spontaneous-emission decay) under a shared resolved
pulse timeline, plus the analysis layer for energies, zero-velocity
fractions and lineshape classification.
"""

__version__ = "0.1.0"
