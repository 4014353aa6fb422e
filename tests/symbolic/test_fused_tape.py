"""Fused multi-output moment tapes (schema 2).

The fused tape's contract is the same bit-identity the plain tape has,
*plus* the moment-unscaling ladder: one register-machine pass must emit
exactly the floats the per-output program + numpy ladder produces —
byte-for-byte, at every point, including inf/NaN propagation at singular
points.  Schema-2 artifacts that are corrupt, mislabeled, or from an
unknown schema are refused, never executed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from repro import awesymbolic
from repro.circuits.library import fig1_circuit
from repro.core import metrics
from repro.errors import TapeError
from repro.symbolic import compile_rationals
from repro.symbolic.tape import (OP_ADD, OP_DIV, OP_MUL, OP_POW, OpTape,
                                 TapeModel, fuse_moments, load_tape,
                                 tape_for, tape_from_json, tape_from_model)


@pytest.fixture(scope="module")
def fig1_result():
    return awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"], order=2)


@pytest.fixture(scope="module")
def fused_tape(fig1_result):
    return tape_from_model(fig1_result, fused=True)


def _lowered(result):
    """The model's numerators and determinant as a plain (unfused)
    program: the prefix of the model's fused tape."""
    sm = result.moments
    return compile_rationals(sm.space, [*sm.numerators, sm.det])


def _ladder(raw, n_points):
    """The numpy unscaling ladder the fused tape replaces — raw IEEE ops,
    no singular-point masking, so equality must hold bit-for-bit even
    through division by zero."""
    cols = [np.broadcast_to(np.asarray(v, dtype=float), (n_points,))
            for v in raw]
    det = cols[-1]
    want = []
    scale = det.copy()
    for num in cols[:-1]:
        want.append(num / scale)
        scale = scale * det
    want.append(det)
    return want


class TestSchema:
    def test_fused_payload_is_schema2(self, fused_tape):
        payload = json.loads(fused_tape.to_json())
        assert payload["schema"] == 2
        assert payload["fused"] == {"moments": len(fused_tape.outputs) - 1}

    def test_unfused_payload_stays_schema1(self, fig1_result):
        # pre-existing content hashes (cache keys, registry keys, .so
        # keys) must not move: plain tapes still serialize as schema 1
        payload = json.loads(_lowered(fig1_result).tape.to_json())
        assert payload["schema"] == 1
        assert "fused" not in payload

    def test_fuse_is_idempotent(self, fused_tape):
        assert fuse_moments(fused_tape) is fused_tape

    def test_fused_round_trip(self, fused_tape, tmp_path):
        path = tmp_path / "fig1_fused.tape"
        fused_tape.save(path)
        loaded = load_tape(path)
        assert loaded.content_hash == fused_tape.content_hash
        assert loaded.fused == fused_tape.fused
        assert loaded.output_names == fused_tape.output_names

    def test_fused_needs_two_outputs(self, fig1_result):
        tape = tape_from_model(fig1_result)
        single = OpTape(tape.symbols, tape.consts, tape.ops,
                        tape.outputs[:1], tape.output_names[:1])
        with pytest.raises(TapeError, match="output"):
            fuse_moments(single)


class TestRefusal:
    def test_unsupported_schema_refused(self, fused_tape):
        payload = json.loads(fused_tape.to_json())
        payload["schema"] = 3
        with pytest.raises(TapeError, match="schemas 1-2"):
            tape_from_json(json.dumps(payload))

    def test_fused_section_on_schema1_refused(self, fused_tape):
        payload = json.loads(fused_tape.to_json())
        payload["schema"] = 1
        with pytest.raises(TapeError, match="fused tapes are schema 2"):
            tape_from_json(json.dumps(payload))

    def test_schema2_without_fused_refused(self, fused_tape):
        payload = json.loads(fused_tape.to_json())
        del payload["fused"]
        with pytest.raises(TapeError, match="missing its fused section"):
            tape_from_json(json.dumps(payload))

    def test_corrupt_fused_artifact_refused(self, fused_tape, tmp_path):
        payload = json.loads(fused_tape.to_json())
        payload["consts"][0] = repr(float(payload["consts"][0]) + 1.0)
        path = tmp_path / "bad_fused.tape"
        path.write_text(json.dumps(payload))
        with pytest.raises(TapeError, match="corrupt"):
            load_tape(path)

    def test_inconsistent_fused_count_refused(self, fused_tape):
        with pytest.raises(TapeError, match="fused"):
            OpTape(fused_tape.symbols, fused_tape.consts, fused_tape.ops,
                   fused_tape.outputs, fused_tape.output_names,
                   fused={"moments": 1})


class TestBitIdentity:
    def test_fused_matches_ladder_on_model(self, fig1_result, fused_tape):
        fn = _lowered(fig1_result)
        fused_fn = fused_tape.build_function()
        n = 64
        cols = [float(s.nominal) * (0.4 + 1.3 * np.arange(n) / n + 0.1 * p)
                for p, s in enumerate(fn.space.symbols)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = _ladder(fn.eval_batch([c.copy() for c in cols], n), n)
            got = [np.broadcast_to(np.asarray(v, dtype=float), (n,))
                   for v in fused_fn.eval_batch(cols, n)]
        assert len(got) == len(want)
        for w, g in zip(want, got):
            assert_array_equal(w, g)

    def test_fused_tape_model_sweep_matches_model(self, fig1_result,
                                                  fused_tape, tmp_path):
        path = tmp_path / "fig1_fused.tape"
        fused_tape.save(path)
        model = TapeModel(load_tape(path))
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 7),
                 "C2": np.linspace(0.1e-12, 3e-12, 7)}
        base = fig1_result.model.sweep(grids, metrics.dominant_pole_hz)
        other = model.sweep(grids, metrics.dominant_pole_hz)
        assert_array_equal(np.asarray(base), np.asarray(other))

    def test_fused_tape_model_rom(self, fig1_result, fused_tape):
        model = TapeModel(fused_tape)
        want = fig1_result.model.rom({"C2": 2e-12}, order=1)
        got = model.rom({"C2": 2e-12}, order=1)
        assert_array_equal(want.poles, got.poles)
        assert_array_equal(want.residues, got.residues)


class TestAllScalarChunk:
    """``sweep({})`` evaluates the fused program on Python floats, where
    a singular point raises; the sweep still quarantines it."""

    @pytest.fixture(scope="class")
    def singular_model(self):
        res = awesymbolic(fig1_circuit(), "out", symbols=["G2", "C2"],
                          order=2)
        tape = tape_from_model(res)
        # G2 = 0 floats the output node at DC: det(Y0) == 0 exactly
        symbols = [(n, 0.0 if n == "G2" else v) for n, v in tape.symbols]
        return TapeModel(OpTape(symbols, tape.consts, tape.ops, tape.outputs,
                                tape.output_names, meta=tape.meta))

    def test_singular_point_quarantined(self, singular_model):
        z = singular_model.sweep({}, metrics.dominant_pole_hz)
        assert np.isnan(z)
        [point] = z.diagnostics.quarantined
        assert point.stage == "moments"
        assert point.error == "PartitionError"

    def test_strict_raises(self, singular_model):
        from repro.errors import PartitionError

        with pytest.raises(PartitionError):
            singular_model.sweep({}, metrics.dominant_pole_hz, strict=True)


# ----------------------------------------------------------------------
# property test: fusion is exact for *any* rational program
# ----------------------------------------------------------------------
@st.composite
def _random_moment_tape(draw):
    """A random rational multi-output tape shaped like a moment program:
    some numerator outputs plus a trailing determinant output."""
    n_inputs = draw(st.integers(1, 3))
    n_consts = draw(st.integers(1, 3))
    consts = [draw(st.floats(-4.0, 4.0).map(lambda v: v or 1.0))
              for _ in range(n_consts)]
    base = n_inputs + n_consts
    n_ops = draw(st.integers(1, 24))
    ops = []
    for i in range(n_ops):
        limit = base + i
        opcode = draw(st.sampled_from([OP_ADD, OP_MUL, OP_DIV, OP_POW]))
        a = draw(st.integers(0, limit - 1))
        b = (draw(st.integers(1, 4)) if opcode == OP_POW
             else draw(st.integers(0, limit - 1)))
        ops.append((opcode, a, b))
    n_moments = draw(st.integers(2, 4))
    total = base + n_ops
    outputs = [draw(st.integers(0, total - 1)) for _ in range(n_moments)]
    outputs.append(draw(st.integers(0, total - 1)))  # det
    names = tuple(f"n{k}" for k in range(n_moments)) + ("det",)
    symbols = tuple((f"x{i}", 1.0) for i in range(n_inputs))
    return OpTape(symbols, consts, ops, outputs, names)


@given(tape=_random_moment_tape(), seed=st.integers(0, 2 ** 32 - 1),
       n_points=st.integers(1, 1024))
@settings(max_examples=25, deadline=None)
def test_fused_bit_identical_to_per_output_program(tape, seed, n_points):
    """Fused tape == schema-1 tape + numpy ladder, bit-for-bit, across
    random programs, point counts 1..1024, and mixed NaN/zero columns."""
    fused = fuse_moments(tape)
    assert fused.fused == {"moments": len(tape.outputs) - 1}
    assert fused.outputs[-1] == tape.outputs[-1]
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(len(tape.symbols)):
        c = rng.uniform(-2.0, 2.0, n_points)
        c[rng.random(n_points) < 0.08] = 0.0
        c[rng.random(n_points) < 0.08] = np.nan
        cols.append(c)
    fn_u = tape.build_function()
    fn_f = fused.build_function()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            raw_u = fn_u.eval_batch([c.copy() for c in cols], n_points)
        except ZeroDivisionError:
            raw_u = None
        try:
            raw_f = fn_f.eval_batch(cols, n_points)
        except ZeroDivisionError:
            # A constant-only subgraph divides by an exact scalar zero,
            # so the ladder runs in pure Python and raises instead of
            # producing inf/NaN.  Moment programs hold no such subgraph
            # (the expression builder folds constant arithmetic), so the
            # fused program never has to produce values here.
            return
        # the fused program contains every unfused op, so it can only
        # raise in strictly more cases than the per-output program
        assert raw_u is not None
        want = _ladder(raw_u, n_points)
        got = [np.broadcast_to(np.asarray(v, dtype=float), (n_points,))
               for v in raw_f]
    assert len(got) == len(want)
    for w, g in zip(want, got):
        assert_array_equal(w, g)


def test_fused_scalar_eval_matches_ladder(fig1_result):
    """Scalar (pure-Python) fused evaluation matches the per-output
    program's ladder at a non-singular point."""
    fn = _lowered(fig1_result)
    fused_fn = fuse_moments(tape_for(fn)).build_function()
    args = [float(s.nominal) * 1.31 for s in fn.space.symbols]
    raw = fn.eval_raw(*args)
    det = raw[-1]
    want, scale = [], det
    for num in raw[:-1]:
        want.append(num / scale)
        scale = scale * det
    want.append(det)
    assert list(fused_fn.eval_raw(*args)) == want
