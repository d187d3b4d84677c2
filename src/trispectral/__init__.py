"""Normalized Laplacian spectra of iterated graph triangulations.

Build the n-fold triangulation of any simple connected graph explicitly, or
work with its spectrum symbolically at any depth, and compute the
multiplicative degree-Kirchhoff index, Kemeny's constant, and the
spanning-tree count by independent cross-validated routes.
"""

from .graph import generate, triangulate
from .invariants import verify_all
from .spectra import descriptor_for, expand_descriptor, reciprocal_sum

__all__ = [
    "descriptor_for",
    "expand_descriptor",
    "generate",
    "reciprocal_sum",
    "triangulate",
    "verify_all",
]

__version__ = "0.1.0"
