"""Equality, hashing and immutability for the package's plain value classes.

A subclass names its fields in ``_fields`` and stores them in its own
``__init__`` with ``self.__dict__.update(...)``, which ``Frozen`` leaves
open. Other instance attributes, such as a cached property, stay out of
equality and hashing.

The defaults of the accommodation factor and of the salience window live
here too, so that the command line shows them without importing the
modules that use them.
"""

# ``accommodation.FactorConfig``'s defaults.
FACTOR_BONUS = 4.0     # factor at first mention
FACTOR_WEAROUT = 4     # effective count at which the bonus is gone
FACTOR_WINDOW = 200    # words of silence per reset point
FACTOR_FLOOR = 2       # reset never drops the count below this

# ``givenness``: mention events that may intervene before a salient re-mention.
SALIENCE_WINDOW = 10


class Value:
    """Equal only to a value of the same type with equal fields, and hashed
    like the tuple of its fields, so a dict field makes it unhashable."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Frozen(Value):
    """A value that cannot be changed once built."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a {type(self).__name__}")
