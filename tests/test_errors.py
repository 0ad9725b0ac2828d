"""Typed errors survive pickling, as they must to leave a sweep's worker
process with their type, message and fields intact."""

import pickle

import pytest

from goofloc.errors import (
    ConfigError,
    DegenerateGeometryError,
    DegenerateInputError,
    FormatError,
    NumericalFailure,
)


@pytest.mark.parametrize("error, attrs", [
    (ConfigError("seed", "must be >= 0"), {"field": "seed", "message": "must be >= 0"}),
    (FormatError("bad header", byte_offset=12), {"byte_offset": 12}),
    (FormatError("truncated"), {"byte_offset": None}),
    (DegenerateGeometryError("source sits on the array"), {}),
    (DegenerateInputError("all-zero antenna row"), {}),
    (NumericalFailure("no convergence"), {}),
], ids=["config", "format-offset", "format", "geometry", "input", "numerical"])
def test_pickle_round_trip(error, attrs):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    for name, value in attrs.items():
        assert getattr(copy, name) == value
