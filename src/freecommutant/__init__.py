"""Exact free-cumulant calculus for commutators of a semicircular element
with a free partner, with the verification commands built on top of it.

The package binds no names of its own: import each from its module, e.g.
``from freecommutant.commutator import verify_additivity``."""

__version__ = "0.1.0"
