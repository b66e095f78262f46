"""Moment-based entanglement detection for noisy stabilizer states.

The package is organized in layers:

  pauli        symplectic Pauli strings, stabilizer groups, state catalog
  dense        exact density-matrix reference implementations (small n)
  spectra      closed-form partial-transpose spectra and extended precision
  criteria     PPT relaxations acting on moment data
  enumerators  weight enumerators for the noise decay of PT moments
  gleason      exact MacWilliams-type transforms and enumerator recovery
  thresholds   noise-threshold solvers and sweep drivers
  cli          command-line front end

A process imports dense, gleason and numpy only when it first runs them.
"""

__version__ = "0.1.0"
