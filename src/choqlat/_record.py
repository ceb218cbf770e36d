"""Frozen value records without :mod:`dataclasses`.

:func:`frozen_record` makes a class a frozen record of the fields its own
body annotates, in order; a field's default is the class attribute of its
name. It adds what the package's records use of a frozen dataclass:
construction by position or keyword with those defaults, ``__eq__`` between
records of one class, ``__hash__`` over the fields, the
``Name(field=value, ...)`` repr and ``__match_args__``; assigning or deleting
any attribute raises ``AttributeError``. The methods are closures over the
field names, so a record costs no ``exec`` at import, and neither
``dataclasses`` nor ``inspect`` is loaded: together they take longer to
import than all of the package's own modules.

A record's fields live in its ``__dict__``. A class's own ``__init__`` is
kept, and it, like the fields built on first read, writes there directly.
"""

from operator import attrgetter


def frozen_record(cls):
    names = tuple(cls.__annotations__)  # the class's own, not its bases
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    fields = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            # bound as a function of these parameters and defaults would be
            values = {**defaults, **dict(zip(names, args)), **kwargs}
            unbound = len(args) > len(names) or len(values) != len(names)
            if unbound or not kwargs.keys() <= set(names[len(args):]):
                raise TypeError(
                    f"{type(self).__qualname__}() takes the fields ({', '.join(names)}),"
                    f" got {len(args)} by position and {sorted(kwargs)} by keyword"
                )
            args = [values[name] for name in names]
        self.__dict__.update(zip(names, args))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    cls.__match_args__ = names
    return cls
