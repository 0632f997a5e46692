import pickle

import pytest

from hloblab import errors
from hloblab.errors import HloblabError

# constructor arguments of the errors whose __init__ takes more than a message
ARGS = {
    errors.MalformedRow: (7, "bad", "1970-01-04", "SYN_1970-01-04_message_10.csv"),
    errors.InvalidBook: ("1970-01-04", 5, "bid prices not strictly decreasing"),
    errors.MissingClass: (2,),
    errors.NonFiniteLoss: (1, 3, float("nan")),
    errors.ConfigError: ("days", "no days configured"),
}


def every_error(cls=HloblabError):
    yield cls
    for sub in cls.__subclasses__():
        yield from every_error(sub)


@pytest.mark.parametrize("cls", list(every_error()), ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    """An ingest worker's error reaches its parent as the same error."""
    init = next(c for c in cls.__mro__ if "__init__" in vars(c))
    if init not in (Exception, BaseException):
        assert init in ARGS, f"{init.__name__} takes arguments ARGS does not list"
    exc = cls(*ARGS.get(init, ("a message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.__dict__ == exc.__dict__

