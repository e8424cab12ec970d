"""Abstract base of the IDL object model.

Section 3 of the paper classifies every object into one of three
categories: *atomic* objects, *tuple* objects (attribute -> object maps)
and *set* objects (value-based, possibly heterogeneous collections).
Objects are **value based**: there is no object identity, and equality,
hashing and set-membership are all defined structurally.

Concrete classes live in :mod:`repro.objects.atom`,
:mod:`repro.objects.tuple` and :mod:`repro.objects.set`; read-only merged
views (used to overlay derived views on the base universe) live in
:mod:`repro.objects.merged`.
"""

from __future__ import annotations

ATOM = "atom"
TUPLE = "tuple"
SET = "set"

CATEGORIES = (ATOM, TUPLE, SET)

_encode = None  # repro.objects.encode, bound by IdlObject.to_python


class IdlObject:
    """Common read interface of every IDL object.

    Subclasses must provide:

    * :attr:`category` — one of ``"atom"``, ``"tuple"``, ``"set"``.
    * :meth:`value_key` — a hashable, deeply structural key; two objects
      are the same value iff their keys are equal.
    * :meth:`copy` — an independent deep copy (mutable concrete classes).
    """

    __slots__ = ()

    category = None  # overridden by subclasses

    @property
    def is_atom(self):
        return self.category == ATOM

    @property
    def is_tuple(self):
        return self.category == TUPLE

    @property
    def is_set(self):
        return self.category == SET

    def value_key(self):
        raise NotImplementedError

    def copy(self):
        raise NotImplementedError

    def to_python(self):
        """Convert to a plain Python structure (see ``encode.to_python``)."""
        global _encode
        if _encode is None:
            # encode imports the concrete classes, which import this
            # module: bind it on first use, once.
            from repro.objects import encode as _encode
        return _encode.to_python(self)

    def __eq__(self, other):
        if not isinstance(other, IdlObject):
            return NotImplemented
        return self.value_key() == other.value_key()

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self):
        return hash(self.value_key())


def same_value(left, right):
    """True iff two IDL objects denote the same value (deep, structural)."""
    return left.value_key() == right.value_key()
