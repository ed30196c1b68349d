"""Input contracts of the truncated-addition chain quantale."""

import pytest

from nablamod import InputError, lawvere_truncated_quantale


def test_negative_values_are_refused_by_the_value_constructor():
    with pytest.raises(InputError) as err:
        lawvere_truncated_quantale([-1])
    assert str(err.value) == "negative value not allowed: -1"
