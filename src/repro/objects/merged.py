"""Read-only merged views over two object graphs.

Section 6's derived views must be visible to queries *alongside* the base
universe without mutating it: "the derived fact is made true in the
universe tuple", but re-materializing views must never leak into the
extensional databases. The engine therefore materializes derived facts
into a separate overlay universe and exposes a *merged* read-only view of
``(base, overlay)`` to the evaluator.

Merge rules, applied attribute-wise:

* attribute present in only one part -> that part's object;
* both parts tuple-valued        -> a :class:`MergedTuple` of the two;
* both parts set-valued          -> a :class:`MergedSet` (value union);
* category clash                 -> the overlay (derived) object wins.

Merged objects implement the same read interface as the concrete classes
(:meth:`attr_names`/:meth:`get` for tuples, :meth:`elements` for sets),
so the evaluator is agnostic to whether it walks a plain or merged graph.
They intentionally implement **no** write interface: updates are only
legal on extensional objects (Section 7.1).
"""

from __future__ import annotations

from repro.objects.base import SET, TUPLE, IdlObject


def merge_objects(base, overlay):
    """Merge two IdlObjects per the overlay rules above."""
    if base is None:
        return overlay
    if overlay is None:
        return base
    if base.category == TUPLE and overlay.category == TUPLE:
        return MergedTuple(base, overlay)
    if base.category == SET and overlay.category == SET:
        return MergedSet(base, overlay)
    return overlay


class MergedTuple(IdlObject):
    """Read-only union of two tuple-like objects (overlay shadows base)."""

    __slots__ = ("_base", "_overlay")

    category = TUPLE

    def __init__(self, base, overlay):
        self._base = base
        self._overlay = overlay

    def attr_names(self):
        names = list(self._base.attr_names())
        seen = set(names)
        for name in self._overlay.attr_names():
            if name not in seen:
                names.append(name)
        return names

    def has(self, name):
        return self._base.has(name) or self._overlay.has(name)

    def get(self, name):
        in_base = self._base.has(name)
        in_overlay = self._overlay.has(name)
        if in_base and in_overlay:
            return merge_objects(self._base.get(name), self._overlay.get(name))
        if in_overlay:
            return self._overlay.get(name)
        return self._base.get(name)

    def get_or_none(self, name):
        return self.get(name) if self.has(name) else None

    def items(self):
        return [(name, self.get(name)) for name in self.attr_names()]

    def __len__(self):
        return len(self.attr_names())

    def __contains__(self, name):
        return self.has(name)

    def __iter__(self):
        return iter(self.attr_names())

    def value_key(self):
        return (
            TUPLE,
            frozenset((name, self.get(name).value_key()) for name in self.attr_names()),
        )

    def copy(self):
        """Deep-copy into a plain (mutable) TupleObject."""
        from repro.objects.tuple import TupleObject

        fresh = TupleObject()
        for name in self.attr_names():
            fresh.set(name, self.get(name).copy())
        return fresh

    def __repr__(self):
        return f"MergedTuple({self._base!r}, {self._overlay!r})"


class MergedSet(IdlObject):
    """Read-only value union of two set-like objects."""

    __slots__ = ("_base", "_overlay")

    category = SET

    def __init__(self, base, overlay):
        self._base = base
        self._overlay = overlay

    def keyed(self):
        """``(value_key, element)`` pairs of the union, base first. The
        parts' own keys are reused (a set keys its elements by value),
        so no element's key is recomputed."""
        merged = dict(self._base.keyed())
        for key, obj in self._overlay.keyed():
            if key not in merged:
                merged[key] = obj
        return merged.items()

    def elements(self):
        return [obj for _, obj in self.keyed()]

    def __iter__(self):
        return iter(self.elements())

    def __len__(self):
        return len(self.elements())

    def contains_value(self, obj):
        return self._base.contains_value(obj) or self._overlay.contains_value(obj)

    @property
    def is_empty(self):
        return len(self._base) == 0 and len(self._overlay) == 0

    def value_key(self):
        return (SET, frozenset(obj.value_key() for obj in self.elements()))

    def copy(self):
        """Deep-copy into a plain (mutable) SetObject."""
        from repro.objects.set import SetObject

        fresh = SetObject()
        for obj in self.elements():
            fresh.add(obj.copy())
        return fresh

    def __repr__(self):
        return f"MergedSet({self._base!r}, {self._overlay!r})"
