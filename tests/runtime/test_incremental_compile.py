"""Incremental recompilation through the program cache (S1 + tentpole).

Three contracts:

* a Padé-order bump is a guaranteed *key miss* (never a wrong-order model
  served from cache), and the on-disk :data:`CACHE_SCHEMA` is part of the
  key so format upgrades cold-start cleanly;
* the miss is then compiled *incrementally* through a live
  :class:`CompileSession` that extends the previous moment recursion —
  and the result is byte-identical to a cold build at the new order;
* a changed coefficient or lowering strategy compiles to a different
  program (the compiler keeps no program memo; equal content lowering to
  equal tapes is checked in ``tests/symbolic/test_reproducible_compile.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.circuits.library import fig1_circuit
from repro.core.awesymbolic import CompileSession, awesymbolic
from repro.core.serialize import model_to_dict
from repro.runtime import ProgramCache
from repro.symbolic import Poly, SymbolSpace
from repro.symbolic.compile import compile_rationals


def digest(result) -> str:
    return json.dumps(model_to_dict(result), sort_keys=True)


class TestOrderInKey:
    """S1: the cache key must cover the Padé order and the schema."""

    def test_q_bump_is_a_key_miss(self):
        cache = ProgramCache()
        circuit = fig1_circuit()
        k2 = cache.key_for(circuit, "out", ["C1", "C2"], order=2)
        k3 = cache.key_for(circuit, "out", ["C1", "C2"], order=3)
        assert k2 != k3

    def test_schema_bump_invalidates_keys(self, monkeypatch):
        import repro.runtime.cache as cache_mod
        cache = ProgramCache()
        circuit = fig1_circuit()
        before = cache.key_for(circuit, "out", ["C1", "C2"], order=2)
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA",
                            cache_mod.CACHE_SCHEMA + 1)
        after = cache.key_for(circuit, "out", ["C1", "C2"], order=2)
        assert before != after

    def test_performance_options_do_not_fragment_keys(self):
        cache = ProgramCache()
        circuit = fig1_circuit()
        plain = cache.key_for(circuit, "out", ["C1", "C2"], order=2)
        tuned = cache.key_for(circuit, "out", ["C1", "C2"], order=2,
                              condense_cache=object())
        assert plain == tuned


class TestSessionReuse:
    def test_order_bump_goes_incremental_and_matches_cold(self):
        cache = ProgramCache()
        circuit = fig1_circuit()
        cache.get_or_build(circuit, "out", symbols=["C1", "C2"], order=2)
        bumped = cache.get_or_build(circuit, "out", symbols=["C1", "C2"],
                                    order=3)
        assert len(cache._sessions) == 1
        session = next(iter(cache._sessions.values()))
        assert session.compiles == 2
        assert session.incremental_compiles == 1
        assert digest(bumped) == digest(
            awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"], order=3))

    def test_auto_selection_never_uses_a_session(self):
        # the auto-selected symbol set may change with the order, so
        # symbols=None must always build cold
        cache = ProgramCache()
        cache.get_or_build(fig1_circuit(), "out", symbols=None, order=2)
        assert len(cache._sessions) == 0

    def test_session_lru_is_bounded(self):
        cache = ProgramCache()
        cache.session_maxsize = 2
        for syms in (["C1"], ["C2"], ["C1", "C2"]):
            cache.get_or_build(fig1_circuit(), "out", symbols=syms, order=1)
        assert len(cache._sessions) == 2

    def test_clear_drops_sessions(self):
        cache = ProgramCache()
        cache.get_or_build(fig1_circuit(), "out", symbols=["C1", "C2"],
                           order=2)
        cache.clear()
        assert len(cache._sessions) == 0


class TestCompileSessionDirect:
    def test_incremental_extends_matches_cold(self):
        session = CompileSession(fig1_circuit(), "out",
                                 symbols=["C1", "C2"])
        session.compile(order=2)
        bumped = session.compile(order=3)
        assert session.incremental_compiles == 1
        cold = awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"],
                           order=3)
        assert digest(bumped) == digest(cold)

    def test_truncating_recompile_matches_cold(self):
        session = CompileSession(fig1_circuit(), "out",
                                 symbols=["C1", "C2"])
        session.compile(order=3)
        down = session.compile(order=2)
        cold = awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"],
                           order=2)
        assert digest(down) == digest(cold)


class TestProgramMemo:
    SP = SymbolSpace(["a", "b"])

    def _polys(self, c: float) -> list[Poly]:
        a = Poly.symbol(self.SP, "a")
        b = Poly.symbol(self.SP, "b")
        return [a * b + c, a * a + b]

    def test_changed_coefficient_is_a_different_program(self):
        first = compile_rationals(self.SP, self._polys(2.0))
        other = compile_rationals(self.SP, self._polys(2.0 + 1e-9))
        assert other is not first

    def test_strategy_keys_separately(self):
        expanded = compile_rationals(self.SP, self._polys(3.0),
                                     strategy="expanded")
        horner = compile_rationals(self.SP, self._polys(3.0),
                                   strategy="horner")
        assert horner is not expanded
        vals = {"a": 1.3, "b": -0.7}
        assert expanded(vals) == pytest.approx(horner(vals), rel=1e-12)
