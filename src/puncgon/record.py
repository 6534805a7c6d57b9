"""Plain ``__slots__`` records, which generate no code at import."""


class Frozen:
    """Refuses to assign or delete an attribute; a subclass sets its slots
    with ``object.__setattr__`` while it builds an instance."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    """A frozen record of the slots named by ``_fields``, given in that
    order: ``==`` to a record of its class with equal fields, and hashed,
    copied and pickled as the tuple of its fields."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({pairs})"

    def __reduce__(self):
        return type(self), self._values()
