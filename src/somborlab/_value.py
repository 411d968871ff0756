"""The immutable value-object base and integer check of the graph and grid types.

It lives on its own so that the grid certification in `indices` can use it
without loading `graphs`.
"""

from operator import index

from .errors import ValidationError


def _as_int(value, what: str) -> int:
    """value as an int (`operator.index`): a float or a string is refused."""
    try:
        return index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


class _Value:
    """Immutable value object: equal and hashed by `_key()`, fields set once.

    Fields are written in `__init__` with `object.__setattr__`; any later
    assignment or deletion raises `AttributeError`. Cached properties write to
    the instance dict directly, so they still work.
    """

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
