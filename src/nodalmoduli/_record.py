"""The base of the package's immutable record classes."""

from fractions import Fraction


class Record:
    """An immutable value whose fields are its instance attributes.

    A subclass's ``__init__`` validates its arguments and then stores each
    field straight into ``self.__dict__``, in field order.  Equality (same
    class, equal fields), the hash and the ``Name(field=value, ...)`` repr
    are all over ``vars(self)``; setting or deleting an attribute raises
    ``AttributeError``.  Positional class patterns bind the ``__init__``
    parameters in order, and ``to_json`` writes the fields by name.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__name__}({fields})"

    def to_json(self) -> dict:
        """The fields by name, in ``__init__``'s order: a nested record as
        its own ``to_json``, a ``Fraction`` as "p/q" and a tuple as a list."""
        return {name: _json(value) for name, value in self.__dict__.items()}


def _json(value: object) -> object:
    """A field value as JSON data.  ``str`` of a ``Fraction`` is "p/q" in
    lowest terms, or "p": the text ``rationals.format_rational`` writes."""
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    return value
