"""Seeded random states for the tests: Haar-random pure vectors and random
mixed states of chosen rank."""

from typing import Optional

import numpy as np

from oqec.errors import DimensionError
from oqec.linalg import dag


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator, rank: Optional[int] = None) -> np.ndarray:
    """Random mixed state: normalized GG† with a (dim x rank) Gaussian G."""
    rank = dim if rank is None else int(rank)
    if rank < 1:
        raise DimensionError("rank must be >= 1")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ dag(g)
    return rho / np.real(np.trace(rho))
