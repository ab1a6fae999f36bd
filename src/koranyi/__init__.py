"""Numerical toolkit for Hardy-potential evolution inequalities on the
Heisenberg group: Koranyi-ball calculus, existence/nonexistence
classification, capacity scaling laws, explicit stationary solutions, and an
illustrative radial simulator.

Names are imported from their modules, for example
``from koranyi.spectrum import classify``; the package itself exports only
``__version__``."""

__version__ = "0.1.0"
