"""The base class of the package's value types.

A value type lists its fields in `__slots__`, in order, and writes its
own `__init__`. Record gives it equality field by field within one
type, the repr `Name(field=value, ...)` and, with `frozen=True`, a hash
of the fields and no way to set or delete one; copies and pickles fill
the slots through `__setstate__`. Fields named in `hidden` are neither
compared, hashed nor shown. These methods are written once here, so
defining a value type generates and compiles no code at import, and
the package imports no class generator (the standard one pulls in
inspect, which alone takes milliseconds to compile).
"""

from operator import attrgetter

_set = object.__setattr__   # how a frozen __init__ sets its fields


class Record:
    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, frozen=False, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if f not in hidden)
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:   # attrgetter of one name gives no tuple
            get = staticmethod(lambda obj, get=get: (get(obj),))
        cls._values = get
        if frozen:
            cls.__hash__ = _hash
            cls.__setattr__ = _refuse_set
            cls.__delattr__ = _refuse_delete

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value
                          in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setstate__(self, state):
        """Fill a copied or unpickled instance, frozen or not; `state`
        is (None, slot values) for a class with slots and no __dict__."""
        for name, value in state[1].items():
            _set(self, name, value)


def _hash(self):
    return hash(self._values(self))


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
