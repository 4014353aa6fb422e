"""Polynomial kernel unit tests + kernel-vs-reference bit-identity.

The fast kernels (interned monomials, packed numpy products) promise
*bit-identical* results to the reference dict implementations — not
merely close.  The unit tests exercise the kernel primitives against the
reference ``Poly`` operators on randomized inputs with exact equality;
the differential tests compile the paper's circuits with the kernels on
and off and require the compiled polynomials' digests to match byte for
byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.awesymbolic import awesymbolic
from repro.circuits.library import (fig1_circuit, small_signal_741,
                                    small_signal_ota)
from repro.symbolic import Poly, SymbolSpace, polykernel
from repro.symbolic.polykernel import (MonomialTable, add_ix_into, deindexed,
                                       indexed, mul_ix, mul_packed_terms)

from ..digest import compiled_digest


def random_poly(space, n_terms, seed, max_exp=3):
    rng = np.random.default_rng(seed)
    terms = {}
    for _ in range(n_terms):
        exps = tuple(int(e) for e in rng.integers(0, max_exp + 1,
                                                  size=len(space)))
        terms[exps] = float(rng.uniform(-2, 2))
    return Poly(space, terms)


class TestEnableSwitch:
    def test_default_enabled(self):
        assert polykernel.enabled()

    def test_disabled_context_restores(self):
        assert polykernel.enabled()
        with polykernel.disabled():
            assert not polykernel.enabled()
        assert polykernel.enabled()

    def test_set_enabled_returns_previous(self):
        prev = polykernel.set_enabled(False)
        try:
            assert prev is True
            assert not polykernel.enabled()
        finally:
            polykernel.set_enabled(prev)


class TestMonomialTable:
    def test_constant_is_id_zero(self):
        t = MonomialTable(3)
        assert t.intern((0, 0, 0)) == 0
        assert t.exps(0) == (0, 0, 0)

    def test_intern_is_idempotent(self):
        t = MonomialTable(2)
        i = t.intern((1, 2))
        assert t.intern((1, 2)) == i
        assert len(t) == 2  # constant + one monomial

    def test_mul_adds_exponents(self):
        t = MonomialTable(2)
        a = t.intern((1, 0))
        b = t.intern((2, 3))
        assert t.exps(t.mul(a, b)) == (3, 3)

    def test_mul_is_commutative_and_memoized(self):
        t = MonomialTable(2)
        a, b = t.intern((1, 2)), t.intern((0, 1))
        assert t.mul(a, b) == t.mul(b, a)
        n = len(t._mul)
        t.mul(b, a)
        assert len(t._mul) == n  # served from the memo

    def test_indexed_roundtrip_preserves_order(self):
        sp = SymbolSpace(["x", "y"])
        t = MonomialTable(2)
        p = random_poly(sp, 12, seed=1)
        ix = indexed(p.terms, t)
        back = deindexed(ix, t)
        assert list(back.items()) == list(p.terms.items())


class TestKernelOps:
    @pytest.mark.parametrize("seed", range(5))
    def test_mul_ix_matches_poly_mul_exactly(self, seed):
        sp = SymbolSpace(["x", "y", "z"])
        t = MonomialTable(3)
        a = random_poly(sp, 20, seed=seed)
        b = random_poly(sp, 35, seed=seed + 100)
        with polykernel.disabled():
            expected = (a * b).terms
        got = deindexed(mul_ix(indexed(a.terms, t), indexed(b.terms, t), t),
                        t)
        assert list(got.items()) == list(expected.items())

    def test_mul_ix_scale_matches_scaled_product(self):
        sp = SymbolSpace(["x", "y"])
        t = MonomialTable(2)
        a = random_poly(sp, 10, seed=7)
        b = random_poly(sp, 10, seed=8)
        with polykernel.disabled():
            expected = (a * b * -1.0).terms
        got = deindexed(mul_ix(indexed(a.terms, t), indexed(b.terms, t), t,
                               scale=-1.0), t)
        assert list(got.items()) == list(expected.items())

    def test_mul_ix_empty_operand(self):
        t = MonomialTable(1)
        assert mul_ix({}, {0: 1.0}, t) == {}
        assert mul_ix({0: 1.0}, {}, t) == {}

    def test_add_ix_into_matches_poly_add(self):
        sp = SymbolSpace(["x", "y"])
        t = MonomialTable(2)
        a = random_poly(sp, 15, seed=3)
        b = random_poly(sp, 15, seed=4)
        with polykernel.disabled():
            expected = (a + b).terms
        acc = indexed(a.terms, t)
        add_ix_into(acc, indexed(b.terms, t))
        assert list(deindexed(acc, t).items()) == list(expected.items())

    def test_add_ix_into_drops_exact_zeros(self):
        t = MonomialTable(1)
        acc = {0: 1.5, 1: 2.0}
        add_ix_into(acc, {0: -1.5})
        assert acc == {1: 2.0}

    @pytest.mark.parametrize("seed", range(3))
    def test_packed_matches_dict_loop_exactly(self, seed):
        sp = SymbolSpace([f"s{i}" for i in range(4)])
        a = random_poly(sp, 60, seed=seed)
        b = random_poly(sp, 80, seed=seed + 50)
        with polykernel.disabled():
            expected = (a * b).terms
        small, large = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
        got = mul_packed_terms(small.terms, large.terms, len(sp))
        assert got is not None
        assert list(got.items()) == list(expected.items())

    def test_packed_refuses_unpackable_degrees(self):
        # 8 symbols at degree 255 each need far more than 62 key bits
        width = 8
        huge = {tuple([255] * width): 1.0}
        assert mul_packed_terms(huge, huge, width) is None

    def test_poly_mul_dispatches_identically_either_way(self):
        # one operand pair large enough to cross PACKED_MIN_WORK
        sp = SymbolSpace(["a", "b", "c", "d"])
        a = random_poly(sp, 70, seed=11)
        b = random_poly(sp, 80, seed=12)
        assert len(a.terms) * len(b.terms) >= polykernel.PACKED_MIN_WORK
        fast = a * b
        with polykernel.disabled():
            ref = a * b
        assert list(fast.terms.items()) == list(ref.terms.items())


def _compiled_digest(circuit, symbols, order):
    res = awesymbolic(circuit, "out", symbols=symbols, order=order)
    return compiled_digest(res)


class TestCompileBitIdentity:
    """Kernels on vs off must compile byte-identical models (paper circuits)."""

    @pytest.mark.parametrize("name,factory,symbols,order", [
        ("fig1", fig1_circuit, ["C1", "C2"], 3),
        ("741", lambda: small_signal_741().circuit, ["go_Q14", "Ccomp"], 3),
        ("ota", lambda: small_signal_ota().circuit, None, 3),
    ])
    def test_model_identical(self, name, factory, symbols, order):
        fast = _compiled_digest(factory(), symbols, order)
        with polykernel.disabled():
            ref = _compiled_digest(factory(), symbols, order)
        assert fast == ref
