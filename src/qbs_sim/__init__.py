"""Exact two-photon state-vector simulator for a Mach-Zehnder interferometer
whose output beam-splitter is entangled with a second (corroborative) photon,
plus a Monte Carlo coincidence-counting layer and Bell-parameter analysis.

The package root loads nothing else; import names from its modules
(``qbs_sim.experiment``, ``qbs_sim.montecarlo``, ...)."""

__version__ = "0.1.0"
