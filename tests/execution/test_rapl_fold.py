"""The fleet kernel's RAPL tick fold against the scalar accumulator.

``fleet_replay._rapl_fold`` folds each row of a deposit matrix into a
fresh RAPL accumulator: row by row in scalar arithmetic up to
``_SCALAR_FOLD_ROWS`` rows, vectorized across rows past it.  Fresh-node
pricing stacks the package rows over the DRAM rows and folds them in
one pass, so a fleet of ``n`` members folds ``2n`` rows.  Rows fold
independently, so every row's ticks must equal
:func:`repro.hardware.rapl.fold_deposits` of that row alone, whichever
branch the stacked height takes.
"""

import numpy as np
import pytest

from repro.execution.fleet_replay import _SCALAR_FOLD_ROWS, _rapl_fold
from repro.hardware.rapl import RAPL_ENERGY_UNIT_J, fold_deposits


def deposits(rows: int, seed: int) -> np.ndarray:
    """Per-charge joules like a fleet's: sub-tick to many-tick charges,
    and zero padding after each row's own charges."""
    rng = np.random.default_rng(seed)
    joules = rng.lognormal(-4.0, 3.0, size=(rows, 40))
    joules[rng.random(joules.shape) < 0.1] = RAPL_ENERGY_UNIT_J / 3
    for row, length in enumerate(rng.integers(0, 41, size=rows)):
        joules[row, length:] = 0.0
    return joules


def scalar_ticks(joules: np.ndarray) -> list[int]:
    return [fold_deposits(0.0, row)[1] for row in joules.tolist()]


@pytest.mark.parametrize(
    "members",
    sorted(
        {1, _SCALAR_FOLD_ROWS // 2, _SCALAR_FOLD_ROWS // 2 + 1, _SCALAR_FOLD_ROWS,
         _SCALAR_FOLD_ROWS + 1, 40}
    ),
)
def test_stacked_package_and_dram_fold_per_row(members):
    package, dram = deposits(members, 1), deposits(members, 2) / 7.0
    stacked = _rapl_fold(np.concatenate((package, dram)))
    assert stacked.dtype == np.int64
    assert stacked.tolist() == scalar_ticks(package) + scalar_ticks(dram)
    assert stacked[:members].tolist() == _rapl_fold(package).tolist()
    assert stacked[members:].tolist() == _rapl_fold(dram).tolist()


@pytest.mark.parametrize("rows", [_SCALAR_FOLD_ROWS, _SCALAR_FOLD_ROWS + 1])
def test_both_branches_equal_the_scalar_fold(rows):
    joules = deposits(rows, 3)
    assert _rapl_fold(joules).tolist() == scalar_ticks(joules)


def test_empty_rows():
    assert _rapl_fold(np.zeros((3, 0))).tolist() == [0, 0, 0]
    rows = 2 * _SCALAR_FOLD_ROWS
    assert _rapl_fold(np.zeros((rows, 0))).tolist() == [0] * rows
