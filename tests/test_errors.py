import pickle

import numpy as np
import pytest

from augcov import errors

ERROR_TYPES = sorted(
    (obj for obj in vars(errors).values()
     if isinstance(obj, type) and issubclass(obj, errors.AugcovError)),
    key=lambda cls: cls.__name__,
)

# constructor arguments of the errors that carry more than a message
BUILT_WITH = {
    errors.NonPositiveEigenvalue: ((-1e-3,), {}),
    errors.NoConvergence: ((np.diag([1.0, 2.0]), 2.5e-4), {}),
    errors.SolverStall: ((0.125,), {"message": "stalled"}),
    errors.FormatError: (("payload truncated",), {"offset": 17}),
}


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_type_message_and_attributes(cls):
    args, kwargs = BUILT_WITH.get(cls, (("something went wrong",), {}))
    exc = cls(*args, **kwargs)
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is cls
    assert str(clone) == str(exc)
    attributes = {k: v for k, v in vars(exc).items() if not k.startswith("_")}
    assert attributes.keys() == {k for k in vars(clone) if not k.startswith("_")}
    for name, value in attributes.items():
        assert np.array_equal(getattr(clone, name), value), name


def test_round_trip_does_not_repeat_the_offset():
    clone = pickle.loads(pickle.dumps(errors.FormatError("bad header", offset=3)))
    assert str(clone) == "bad header (at byte offset 3)"
    assert clone.offset == 3
