import numpy as np
import pytest

from msocc.checks import NumericalError, check_finite


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_counts_nan_and_inf(dtype):
    a = np.zeros((4, 5), dtype=dtype)
    a[0, 1] = a[3, 3] = np.nan
    a[2, 0] = -np.inf
    with pytest.raises(NumericalError, match=r"^grid: 2 NaN, 1 inf$"):
        check_finite("grid", a)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 7, -1])
def test_any_position_fails(value, where):
    a = np.linspace(-3.0, 3.0, 11)
    a[where] = value
    with pytest.raises(NumericalError):
        check_finite("a", a)


@pytest.mark.parametrize("arr", [
    np.zeros((0, 3)), np.full(5, np.finfo(np.float32).max, np.float32),
    np.arange(6, dtype=np.uint8), [1.0, -2.5, 0.0], 3.0])
def test_finite_passes(arr):
    check_finite("x", arr)
