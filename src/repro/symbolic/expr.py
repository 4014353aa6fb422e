"""Hash-consed expression DAGs.

Polynomials and rationals cover the ring operations, but closed-form pole
expressions (quadratic formula for second-order models) need ``sqrt`` and
general division.  :class:`Expr` is a tiny immutable DAG with structural
interning: building the same subexpression twice yields the *same object*,
so common-subexpression elimination in the compiler is just "emit one
assignment per multiply-referenced node".

Expressions are built through an :class:`ExprBuilder`, which owns the
interning table (one table per model keeps memory bounded).

The operands of ``add`` and ``mul`` are kept in a *canonical order*,
sorted by a key computed from content alone (:func:`content_key`), so
every lowering and every rounding of a compiled program is the same in
every process, whatever the memory layout or ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, Mapping, Sequence

from ..errors import SymbolicError
from .poly import Poly
from .rational import Rational
from .symbols import Symbol, SymbolSpace

#: Node kinds and their codes in the content key (part of the canonical
#: order: never renumber).  ``add`` and ``mul`` are n-ary with sorted
#: children for canonical form; ``pow`` has an integer payload; unary
#: functions carry their name as the kind.
_KIND_CODE = {"const": 1, "sym": 2, "add": 3, "mul": 4, "div": 5, "pow": 6,
              "sqrt": 7, "exp": 8, "log": 9, "abs": 10, "neg": 11}
_UNARY = frozenset({"sqrt", "exp", "log", "abs", "neg"})

#: FNV-1a over 64-bit words
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def content_key(kind: str, payload, children: Sequence["Expr"]) -> int:
    """The canonical sort key of a node: its kind code in the top 4 bits
    (constants sort first, then symbols, sums, products, ...), then 60
    bits of FNV-1a over the 64-bit words kind code, payload word, child
    keys.  The payload word is a constant's float64 bit pattern, 8 bytes
    of BLAKE2b of a symbol's name, a power's exponent, or 0.  Never
    ``id()`` or ``hash()`` (which follows ``PYTHONHASHSEED`` for a
    ``str``, the address for ``None`` and NaN): equal content gets an
    equal key in every process."""
    code = _KIND_CODE[kind]
    if kind == "const":
        word = int.from_bytes(struct.pack("<d", payload), "little")
    elif kind == "sym":
        word = int.from_bytes(hashlib.blake2b(
            payload.encode(), digest_size=8).digest(), "little")
    else:
        word = payload or 0
    h = _FNV_OFFSET
    for w in (code, word, *(c.key for c in children)):
        h = ((h ^ w) * _FNV_PRIME) & _MASK64
    return (code << 60) | (h >> 4)


class Expr:
    """One interned DAG node.  Do not construct directly: use :class:`ExprBuilder`.

    Equality and hashing are by identity: interning guarantees
    structurally-equal nodes are the same object within one builder.
    :attr:`key` is the content key that orders ``add``/``mul`` operands.
    """

    __slots__ = ("kind", "payload", "children", "key")

    def __init__(self, kind: str, payload, children: tuple["Expr", ...]) -> None:
        self.kind = kind
        self.payload = payload
        self.children = children
        self.key = content_key(kind, payload, children)

    def is_const(self, value: float | None = None) -> bool:
        if self.kind != "const":
            return False
        return value is None or self.payload == value

    def evaluate(self, values: Mapping[str, float]) -> complex | float:
        """Direct (uncompiled) evaluation; handy for tests.  Complex-safe sqrt/log."""
        k = self.kind
        if k == "const":
            return self.payload
        if k == "sym":
            return values[self.payload]
        child_vals = [c.evaluate(values) for c in self.children]
        if k == "add":
            return sum(child_vals)
        if k == "mul":
            out = 1.0
            for v in child_vals:
                out *= v
            return out
        if k == "div":
            return child_vals[0] / child_vals[1]
        if k == "pow":
            return child_vals[0] ** self.payload
        if k == "neg":
            return -child_vals[0]
        if k == "sqrt":
            v = child_vals[0]
            if isinstance(v, complex) or v < 0:
                return complex(v) ** 0.5
            return math.sqrt(v)
        if k == "exp":
            v = child_vals[0]
            return (math.exp(v) if not isinstance(v, complex)
                    else complex(math.e) ** v)
        if k == "log":
            v = child_vals[0]
            if isinstance(v, complex) or v <= 0:
                import cmath
                return cmath.log(v)
            return math.log(v)
        if k == "abs":
            return abs(child_vals[0])
        raise SymbolicError(f"unknown node kind {k!r}")

    def free_symbol_names(self) -> set[str]:
        names: set[str] = set()
        stack = [self]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.kind == "sym":
                names.add(node.payload)
            stack.extend(node.children)
        return names

    def count_ops(self) -> int:
        """Number of arithmetic operations in the DAG (shared nodes counted once)."""
        ops = 0
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.kind in ("add", "mul"):
                ops += len(node.children) - 1
            elif node.kind in ("div", "pow") or node.kind in _UNARY:
                ops += 1
            stack.extend(node.children)
        return ops

    def __repr__(self) -> str:
        if self.kind == "const":
            return f"{self.payload:g}"
        if self.kind == "sym":
            return self.payload
        if self.kind == "pow":
            return f"({self.children[0]!r})**{self.payload}"
        if self.kind in _UNARY:
            return f"{self.kind}({self.children[0]!r})"
        sep = {"add": " + ", "mul": "*", "div": " / "}[self.kind]
        return "(" + sep.join(repr(c) for c in self.children) + ")"


class ExprBuilder:
    """Factory for interned :class:`Expr` nodes with light algebraic folding.

    ``add``/``mul`` sort their operands by :attr:`Expr.key`; ties (a
    repeated operand, a key collision) keep the argument order."""

    def __init__(self) -> None:
        self._table: dict[tuple, Expr] = {}
        # monomial factor tuples keyed on (names, exponents): the moment
        # numerators share most monomials, so from_poly skips rebuilding
        # the sym/pow factor list (the resulting Expr is identical — mul
        # receives the same interned nodes either way)
        self._mono: dict[tuple, tuple[Expr, ...]] = {}

    def _intern(self, kind: str, payload, children: tuple[Expr, ...]) -> Expr:
        key = (kind, payload, tuple(id(c) for c in children))
        node = self._table.get(key)
        if node is None:
            node = Expr(kind, payload, children)
            self._table[key] = node
        return node

    def __len__(self) -> int:
        return len(self._table)

    # -- leaves ---------------------------------------------------------
    def const(self, value: float) -> Expr:
        return self._intern("const", float(value), ())

    def sym(self, symbol: Symbol | str) -> Expr:
        name = symbol.name if isinstance(symbol, Symbol) else symbol
        return self._intern("sym", name, ())

    # -- n-ary ops with folding ------------------------------------------
    def add(self, *args: Expr) -> Expr:
        # Note: child ``add`` nodes are *not* spliced in — flattening would
        # destroy structural sharing and with it the compiler's CSE.
        flat: list[Expr] = []
        const_sum = 0.0
        for a in args:
            if a.kind == "const":
                const_sum += a.payload
            else:
                flat.append(a)
        if const_sum != 0.0 or not flat:
            flat.append(self.const(const_sum))
        flat.sort(key=lambda n: n.key)
        if len(flat) == 1:
            return flat[0]
        return self._intern("add", None, tuple(flat))

    def mul(self, *args: Expr) -> Expr:
        # Child ``mul`` nodes are kept intact (see ``add``).
        flat: list[Expr] = []
        const_prod = 1.0
        for a in args:
            if a.kind == "const":
                const_prod *= a.payload
            else:
                flat.append(a)
        if const_prod == 0.0:
            return self.const(0.0)
        if const_prod != 1.0 or not flat:
            flat.append(self.const(const_prod))
        flat.sort(key=lambda n: n.key)
        if len(flat) == 1:
            return flat[0]
        return self._intern("mul", None, tuple(flat))

    def neg(self, a: Expr) -> Expr:
        return self.mul(self.const(-1.0), a)

    def sub(self, a: Expr, b: Expr) -> Expr:
        return self.add(a, self.neg(b))

    def div(self, a: Expr, b: Expr) -> Expr:
        if b.is_const():
            if b.payload == 0.0:
                raise SymbolicError("expression division by constant zero")
            return self.mul(self.const(1.0 / b.payload), a)
        if a.is_const(0.0):
            return a
        return self._intern("div", None, (a, b))

    def pow(self, base: Expr, exponent: int) -> Expr:
        if exponent == 0:
            return self.const(1.0)
        if exponent == 1:
            return base
        if base.is_const():
            return self.const(base.payload ** exponent)
        return self._intern("pow", int(exponent), (base,))

    def _unary(self, kind: str, a: Expr) -> Expr:
        return self._intern(kind, None, (a,))

    def sqrt(self, a: Expr) -> Expr:
        if a.is_const() and a.payload >= 0:
            return self.const(math.sqrt(a.payload))
        return self._unary("sqrt", a)

    def exp(self, a: Expr) -> Expr:
        return self._unary("exp", a)

    def log(self, a: Expr) -> Expr:
        return self._unary("log", a)

    def abs(self, a: Expr) -> Expr:
        return self._unary("abs", a)

    # -- conversions ------------------------------------------------------
    def from_poly(self, poly: Poly) -> Expr:
        """Convert a polynomial to a sum-of-monomials DAG (shared monomials)."""
        if poly.is_zero():
            return self.const(0.0)
        names = poly.space.names
        terms = []
        for exps, coeff in poly.sorted_terms():
            mono = self._mono.get((names, exps))
            if mono is None:
                factors = []
                for i, e in enumerate(exps):
                    if e == 1:
                        factors.append(self.sym(names[i]))
                    elif e:
                        factors.append(self.pow(self.sym(names[i]), e))
                mono = tuple(factors)
                self._mono[(names, exps)] = mono
            factors = ([self.const(coeff)]
                       if coeff != 1.0 or not mono else [])
            factors.extend(mono)
            terms.append(self.mul(*factors) if factors else self.const(coeff))
        return self.add(*terms)

    def from_rational(self, rat: Rational) -> Expr:
        num = self.from_poly(rat.num)
        if rat.is_polynomial():
            den_val = rat.den.constant_value()
            return num if den_val == 1.0 else self.mul(self.const(1.0 / den_val), num)
        return self.div(num, self.from_poly(rat.den))
