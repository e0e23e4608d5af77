import numpy as np
import pytest

from branchspace import Configuration


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_configuration(rng, n: int, dim: int, scale: float = 10.0) -> Configuration:
    """Random configuration with a controlled minimum separation: points
    on a jittered lattice, so tolerance-sensitive checks stay meaningful."""
    side = int(np.ceil(n ** (1.0 / dim)))
    cells = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    take = rng.permutation(cells.shape[0])[:n]
    spacing = scale / side
    pts = cells[take] * spacing + rng.uniform(0.2, 0.8, size=(n, dim)) * spacing
    return Configuration(pts)
