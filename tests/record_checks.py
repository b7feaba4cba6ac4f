"""What every library record shares: a frozen value with a readable repr.

The owners' test modules call ``check_record`` on one instance of each
record type, so a change to how records are built shows up per record.
"""

import copy
import pickle

import pytest


def check_record(record, twin, other, values, text):
    """Assert the value behaviour of one record.

    twin is an equal record built separately, other one that differs in a
    field, values the tuple of record's fields in order and text its repr.
    """
    assert record == twin and hash(record) == hash(twin)
    assert len({record, twin}) == 1
    assert record != other
    assert record != values and hash(record) == hash(values)  # the type counts
    assert repr(record) == text
    field = text.split("(", 1)[1].split("=", 1)[0]  # the first field
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == text
