"""Atomic IDL objects.

An atom wraps a single Python scalar: ``str``, ``int``, ``float`` or
``bool``. The distinguished *null atom* (``Atom(None)``) implements the
paper's Section 5.2 null semantics: **the null value fails every atomic
comparison**, including equality with itself.

Comparisons between atoms of incomparable types (e.g. a string and a
number) are defined to be *false* rather than an error, keeping
expression evaluation total — the natural reading of satisfaction
semantics over heterogeneous sets.
"""

from __future__ import annotations

from repro.objects.base import ATOM, IdlObject

_SCALAR_TYPES = (str, int, float, bool)

# Comparison operators of the grammar (Section 4.1):  Relop -> < <= = != > >=
OPERATORS = ("<", "<=", "=", "!=", ">", ">=")


# value_key tags by exact scalar type (subclasses take the slow path).
_TAGS = {bool: "bool", int: "num", float: "num", str: "str",
         type(None): "NoneType"}


class Atom(IdlObject):
    """A value-based atomic object; ``Atom(None)`` is the null atom."""

    __slots__ = ("value",)

    category = ATOM

    def __init__(self, value=None):
        if value is not None and not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"atoms wrap str/int/float/bool or None, got {type(value).__name__}"
            )
        self.value = value

    @property
    def is_null(self):
        return self.value is None

    def value_key(self):
        # Numeric atoms compare across int/float (5 == 5.0), matching
        # compare_values; bool is tagged separately because Python makes
        # True == 1 but IDL treats them as distinct values.
        value = self.value
        tag = _TAGS.get(type(value))
        if tag is not None:
            return (ATOM, tag, value)
        if isinstance(value, bool):
            tag = "bool"
        elif isinstance(value, (int, float)):
            tag = "num"
        else:
            tag = type(value).__name__
        return (ATOM, tag, value)

    def copy(self):
        return Atom(self.value)

    def compare(self, op, other_value):
        """Evaluate ``self.value <op> other_value`` under IDL semantics.

        ``other_value`` is a plain Python scalar (or ``None``). Returns a
        bool; never raises for incomparable operands.
        """
        return compare_values(self.value, op, other_value)

    def __repr__(self):
        return f"Atom({self.value!r})"


#: The null atom, reused where convenient (atoms are value-based, so
#: sharing the instance is safe only because callers never mutate atoms
#: in place; updates replace them).
def null():
    """Return a fresh null atom."""
    return Atom(None)


def _comparable(left, right):
    """True if ``left <op> right`` is meaningful for ordered operators."""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    return type(left) is type(right)


def values_equal(left, right):
    """Scalar equality with numeric coercion but bool/int distinction."""
    if left is None or right is None:
        return False
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    if type(left) is not type(right):
        return False
    return left == right


def compare_values(left, op, right):
    """Evaluate ``left <op> right`` for plain scalars under IDL semantics.

    Null (``None``) on either side fails every comparison (Section 5.2).
    Incomparable operand types make ordered comparisons false.
    """
    if left is None or right is None:
        return False
    if op == "=":
        return values_equal(left, right)
    if op == "!=":
        # Heterogeneous-typed values are trivially different, but null
        # still fails (handled above).
        return not values_equal(left, right)
    if not _comparable(left, right):
        return False
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ValueError(f"unknown comparison operator {op!r}")
