"""The one check record every failed certificate carries."""

import math
import pickle

import pytest

from powcorr import NumericalError, PrecisionError
from powcorr.errors import Check, require


def test_require_holds_up_to_the_bound_and_records_a_failure():
    require("x", 1.0, 1.0)
    require("x", -3, 0)
    with pytest.raises(NumericalError) as err:
        require("overlap integral against its fitted envelope", 0.5, 0.25)
    assert err.value.check == Check(
        "overlap integral against its fitted envelope", 0.5, 0.25)
    assert err.value.check.margin == 2.0
    assert str(err.value) == ("overlap integral against its fitted "
                              "envelope: 0.5 > 0.25 (margin 2)")


def test_a_nan_value_fails_and_a_zero_bound_has_infinite_margin():
    with pytest.raises(NumericalError, match=r"^x: nan > 1 \(margin nan\)$"):
        require("x", math.nan, 1.0)
    with pytest.raises(NumericalError) as err:
        require("exponent", 3, 0)
    assert err.value.check.margin == math.inf
    assert str(err.value) == "exponent: 3 > 0 (margin inf)"


def test_errors_keep_their_records_through_pickling():
    # a pool worker's error reaches the parent process pickled
    check = Check("err_bound against the (s/N)/100 gate", 0.25, 1e-4)
    for exc in (NumericalError(check), PrecisionError(check, 70),
                PrecisionError(check)):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and back.check == check
        assert str(back) == str(exc)
    assert pickle.loads(pickle.dumps(PrecisionError(check, 70))
                        ).required_guard_bits == 70
