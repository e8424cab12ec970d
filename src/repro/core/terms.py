"""Terms: constants, variables and arithmetic over them.

Terms occupy two positions in IDL expressions (Section 4.1):

* the operand of an atomic expression — ``=hp``, ``>60``, ``=C+10``;
* the attribute position of a tuple item — ``.stkCode`` (constant) or
  ``.S`` (a *higher-order* variable, Section 4.3).

The paper's grammar allows only constants and variables; arithmetic
(``C+10``) appears in its Section 5 examples with the remark "we have
assumed the use of arithmetic here even though it was not included in
the grammar" — we include it, as :class:`Arith`.
"""

from __future__ import annotations

from repro.errors import EvaluationError, SafetyError
from repro.objects.atom import Atom
from repro.objects.base import IdlObject


class Term:
    """Abstract term."""

    __slots__ = ()

    def variables(self):
        """The set of variable names occurring in this term."""
        raise NotImplementedError

    def is_ground(self):
        return not self.variables()


class Const(Term):
    """A scalar constant (string, number or bool)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def variables(self):
        return frozenset()

    def __eq__(self, other):
        return isinstance(other, Const) and self.value == other.value and (
            isinstance(self.value, bool) == isinstance(other.value, bool)
        )

    def __hash__(self):
        return hash((Const, type(self.value).__name__, self.value))

    def __repr__(self):
        return f"Const({self.value!r})"


class Var(Term):
    """A logical variable; words beginning with a capital letter."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def variables(self):
        return frozenset((self.name,))

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self):
        return hash((Var, self.name))

    def __repr__(self):
        return f"Var({self.name!r})"


class Arith(Term):
    """A binary arithmetic term: ``left op right`` with op in + - * /."""

    __slots__ = ("op", "left", "right")

    OPS = ("+", "-", "*", "/")

    def __init__(self, op, left, right):
        if op not in self.OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def variables(self):
        return self.left.variables() | self.right.variables()

    def __eq__(self, other):
        return (
            isinstance(other, Arith)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((Arith, self.op, self.left, self.right))

    def __repr__(self):
        return f"Arith({self.op!r}, {self.left!r}, {self.right!r})"


def evaluate_term(term, subst):
    """Evaluate ``term`` under ``subst`` to an :class:`IdlObject`.

    Constants become atoms. A bound variable yields its binding (which
    may be any object category — the paper's aggregate-variable
    extension). An unbound variable raises :class:`SafetyError`; the
    evaluator's goal ordering is supposed to prevent that. Arithmetic
    requires numeric atoms.
    """
    if isinstance(term, Const):
        return Atom(term.value)
    if isinstance(term, Var):
        bound = subst.lookup(term.name)
        if bound is None:
            raise SafetyError(f"variable {term.name} is unbound where a value is needed")
        return bound
    if isinstance(term, Arith):
        left = _numeric(evaluate_term(term.left, subst), term)
        right = _numeric(evaluate_term(term.right, subst), term)
        return arithmetic(term, left, right)
    raise TypeError(f"not a term: {term!r}")


def arithmetic(term, left, right):
    """Apply an :class:`Arith` term's operator to its numeric operands."""
    if term.op == "+":
        return Atom(left + right)
    if term.op == "-":
        return Atom(left - right)
    if term.op == "*":
        return Atom(left * right)
    if right == 0:
        raise EvaluationError(f"division by zero in {term!r}")
    return Atom(left / right)


def _numeric(obj, term):
    if not isinstance(obj, IdlObject) or not obj.is_atom:
        raise EvaluationError(f"arithmetic over a non-atomic object in {term!r}")
    if obj.is_null or isinstance(obj.value, (str, bool)):
        raise EvaluationError(
            f"arithmetic needs numeric operands, got {obj.value!r} in {term!r}"
        )
    return obj.value


#: Sentinel: a variable in attribute position is bound to something that
#: cannot be an attribute name (a number, a tuple, ...). Only strings
#: name attributes, so such a step matches nothing — false, not an
#: error, keeping satisfaction total over heterogeneous bindings.
NOT_A_NAME = object()


def term_name(term, subst):
    """Resolve a term in *attribute position*.

    Returns the name string; or None for an unbound variable (the
    evaluator then enumerates attribute names — higher-order
    quantification); or :data:`NOT_A_NAME` when the binding cannot name
    an attribute (the step is unsatisfiable).
    """
    if isinstance(term, Const):
        if not isinstance(term.value, str):
            raise EvaluationError(
                f"attribute names are strings, got constant {term.value!r}"
            )
        return term.value
    if isinstance(term, Var):
        bound = subst.lookup(term.name)
        if bound is None:
            return None
        if not bound.is_atom or not isinstance(bound.value, str):
            return NOT_A_NAME
        return bound.value
    raise EvaluationError(f"arithmetic term {term!r} cannot name an attribute")
