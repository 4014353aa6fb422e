"""Symbols and symbol spaces.

A :class:`Symbol` is a named free variable (usually a circuit element value
such as a conductance or capacitance).  A :class:`SymbolSpace` is an ordered,
immutable collection of symbols; every :class:`~repro.symbolic.poly.Poly` is
bound to one space and stores its monomials as exponent tuples aligned to
the space's ordering.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import SymbolicError

#: element-value -> symbol-value transforms by name — the one table the
#: partition (element type -> name) and model tapes share.
#: Resistance is stamped as conductance, hence ``"inverse"``.
TRANSFORMS: dict[str, Callable[[float], float]] = {
    "identity": lambda v: v,
    "inverse": lambda v: 1.0 / v,
}


class Symbol:
    """A named free variable with an optional nominal value and range.

    Symbols compare and hash by name only, so two ``Symbol("g")`` instances
    are interchangeable.  ``nominal`` records the value the symbol takes in
    the original (fully numeric) circuit; ``lo``/``hi`` bound the sweep range
    used when validating a symbolic model over its intended domain.
    """

    __slots__ = ("name", "nominal", "lo", "hi")

    def __init__(self, name: str, nominal: float | None = None,
                 lo: float | None = None, hi: float | None = None) -> None:
        if not name or not isinstance(name, str):
            raise SymbolicError(f"symbol name must be a non-empty string, got {name!r}")
        if not (name[0].isalpha() or name[0] == "_"):
            raise SymbolicError(f"symbol name must start with a letter or underscore: {name!r}")
        self.name = name
        self.nominal = nominal
        self.lo = lo
        self.hi = hi

    def with_nominal(self, nominal: float) -> "Symbol":
        """Return a copy of this symbol carrying ``nominal``."""
        return Symbol(self.name, nominal=nominal, lo=self.lo, hi=self.hi)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Symbol) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Symbol", self.name))

    def __repr__(self) -> str:
        return f"Symbol({self.name!r})"

    def __str__(self) -> str:
        return self.name


class SymbolSpace:
    """An ordered, immutable tuple of distinct symbols.

    The space fixes the exponent-tuple layout for polynomials.  Spaces with
    the same symbols in the same order compare equal, so polynomials built
    independently over equal spaces interoperate.
    """

    __slots__ = ("symbols", "_index", "_hash", "_names", "_monomials")

    def __init__(self, symbols: Iterable[Symbol | str]) -> None:
        syms = tuple(Symbol(s) if isinstance(s, str) else s for s in symbols)
        names = tuple(s.name for s in syms)
        if len(set(names)) != len(names):
            raise SymbolicError(f"duplicate symbols in space: {list(names)}")
        self.symbols = syms
        self._index = {s.name: i for i, s in enumerate(syms)}
        self._names = names
        self._hash = hash(names)
        self._monomials = None

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def monomials(self):
        """The per-space monomial interner (built lazily, shared by every
        polynomial over this space — see :mod:`repro.symbolic.polykernel`)."""
        table = self._monomials
        if table is None:
            from .polykernel import MonomialTable

            table = self._monomials = MonomialTable(len(self.symbols))
        return table

    def index(self, symbol: Symbol | str) -> int:
        """Position of ``symbol`` in this space.

        Raises:
            SymbolicError: if the symbol is not in the space.
        """
        name = symbol.name if isinstance(symbol, Symbol) else symbol
        try:
            return self._index[name]
        except KeyError:
            raise SymbolicError(f"symbol {name!r} not in space {self.names}") from None

    def __contains__(self, symbol: Symbol | str) -> bool:
        name = symbol.name if isinstance(symbol, Symbol) else symbol
        return name in self._index

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __getitem__(self, i: int) -> Symbol:
        return self.symbols[i]

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, SymbolSpace) and self._names == other._names

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SymbolSpace({list(self.names)!r})"

    def union(self, other: "SymbolSpace") -> "SymbolSpace":
        """Space containing this space's symbols followed by ``other``'s new ones."""
        extra = [s for s in other.symbols if s.name not in self._index]
        return SymbolSpace(self.symbols + tuple(extra))

    def without(self, symbol: Symbol | str) -> "SymbolSpace":
        """Space with ``symbol`` removed."""
        i = self.index(symbol)
        return SymbolSpace(self.symbols[:i] + self.symbols[i + 1:])

    def zero_exponents(self) -> tuple[int, ...]:
        """The all-zero exponent tuple (the constant monomial)."""
        return (0,) * len(self.symbols)

    def unit_exponents(self, symbol: Symbol | str) -> tuple[int, ...]:
        """Exponent tuple for the degree-1 monomial of ``symbol``."""
        exps = [0] * len(self.symbols)
        exps[self.index(symbol)] = 1
        return tuple(exps)

    def values_vector(self, values: Mapping[str, float] | Mapping[Symbol, float] | Sequence[float],
                      ) -> tuple[float, ...]:
        """Normalize symbol values into a tuple aligned with this space.

        ``values`` may be a mapping keyed by :class:`Symbol` or name, or an
        already-aligned sequence.  Missing symbols fall back to their
        ``nominal`` value when one is recorded.

        Raises:
            SymbolicError: if any symbol is left without a value.
        """
        if isinstance(values, Mapping):
            by_name: dict[str, float] = {}
            for key, val in values.items():
                name = key.name if isinstance(key, Symbol) else str(key)
                by_name[name] = float(val)
            out = []
            for sym in self.symbols:
                if sym.name in by_name:
                    out.append(by_name[sym.name])
                elif sym.nominal is not None:
                    out.append(float(sym.nominal))
                else:
                    raise SymbolicError(
                        f"no value for symbol {sym.name!r} and no nominal recorded")
            return tuple(out)
        vec = tuple(float(v) for v in values)
        if len(vec) != len(self.symbols):
            raise SymbolicError(
                f"expected {len(self.symbols)} values for space {self.names}, got {len(vec)}")
        return vec
