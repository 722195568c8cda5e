"""``batch_gradient_statistic`` is bit-identical to the unblocked NumPy forms."""

import numpy as np
import pytest

from repro.engine.fused_optim import BLOCK
from repro.stats.variance import batch_gradient_statistic


def reference(matrix: np.ndarray, statistic: str) -> np.ndarray:
    """The whole-matrix float64 expressions the blocked walk replaces."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if statistic == "variance":
        return np.var(matrix, axis=1)
    if statistic == "second_moment":
        return np.mean(matrix**2, axis=1)
    return np.sqrt(np.sum(matrix**2, axis=1))


def hexes(values: np.ndarray):
    return [float(v).hex() for v in values]


SHAPES = {
    "narrow rows (D < BLOCK)": (37, 1000),
    "rows spanning blocks (D >= BLOCK)": (3, BLOCK + 17),
    "exactly one block per row": (2, BLOCK),
    "single worker": (1, 4099),
    "single worker, long row": (1, 2 * BLOCK + 5),
    "more rows than one group": (300, 250),
}


@pytest.mark.parametrize("statistic", ["variance", "second_moment", "norm"])
@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_matches_numpy_bit_for_bit(statistic, shape, dtype):
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    matrix = (rng.standard_normal(shape) * 1e-2 + 3e-3).astype(dtype)
    out = batch_gradient_statistic(matrix, statistic)
    assert out.dtype == np.float64 and out.shape == (shape[0],)
    assert hexes(out) == hexes(reference(matrix, statistic))


def test_input_matrix_is_untouched():
    matrix = np.random.default_rng(0).standard_normal((5, 300)).astype(np.float32)
    before = matrix.copy()
    batch_gradient_statistic(matrix, "variance")
    np.testing.assert_array_equal(matrix, before)


def test_rejects_bad_input():
    with pytest.raises(ValueError, match="statistic"):
        batch_gradient_statistic(np.zeros((2, 3)), "median")
    with pytest.raises(ValueError, match=r"\(N, D\)"):
        batch_gradient_statistic(np.zeros(3), "variance")
