"""Op-tape artifacts: round-trip fidelity and refusal of bad artifacts.

The tape is the compiled program's portable twin — the differential
contract is *bit identity*, not closeness: a program rebuilt from its
tape (in this process, another process, or another machine) must produce
byte-for-byte the floats the original produces, scalar and batched.
Artifacts that fail the schema or integrity check are refused with
:class:`~repro.errors.TapeError`, never executed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import awesymbolic
from repro.circuits.library import fig1_circuit
from repro.core import metrics
from repro.errors import TapeError
from repro.symbolic.tape import (TAPE_SCHEMA, OpTape, TapeModel, load_tape,
                                 tape_for, tape_from_json, tape_from_model)


@pytest.fixture(scope="module")
def fig1_result():
    return awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"], order=2)


@pytest.fixture(scope="module")
def fig1_tape(fig1_result):
    return tape_from_model(fig1_result)


def _probe_batch(fn, n=16):
    """Deterministic per-symbol columns around the nominal point."""
    cols = []
    for pos, sym in enumerate(fn.space.symbols):
        nominal = float(sym.nominal)
        cols.append(nominal * (0.5 + 0.11 * np.arange(n) / n
                               + 0.07 * (pos + 1)))
    return cols


class TestRoundTrip:
    def test_scalar_bit_identity(self, fig1_result, fig1_tape):
        fn = fig1_result.model.compiled_moments.fn
        rebuilt = fig1_tape.build_function()
        args = [float(s.nominal) * 1.17 for s in fn.space.symbols]
        assert rebuilt.eval_raw(*args) == fn.eval_raw(*args)

    def test_batch_bit_identity(self, fig1_result, fig1_tape):
        fn = fig1_result.model.compiled_moments.fn
        rebuilt = fig1_tape.build_function()
        cols = _probe_batch(fn)
        want = fn.eval_batch(cols, len(cols[0]))
        got = rebuilt.eval_batch([c.copy() for c in cols], len(cols[0]))
        for w, g in zip(want, got):
            assert_array_equal(np.asarray(w), np.asarray(g))

    def test_interpreter_matches_eval_raw(self, fig1_result, fig1_tape):
        fn = fig1_result.model.compiled_moments.fn
        args = [float(s.nominal) * 0.83 for s in fn.space.symbols]
        want = np.array(fn.eval_raw(*args), dtype=float)
        got = np.array(fig1_tape.evaluate(args), dtype=float)
        assert_array_equal(want, got)

    def test_file_round_trip(self, fig1_tape, tmp_path):
        path = tmp_path / "fig1.tape"
        fig1_tape.save(path)
        loaded = load_tape(path)
        assert loaded.content_hash == fig1_tape.content_hash
        assert_array_equal(np.asarray(loaded.ops),
                           np.asarray(fig1_tape.ops))
        assert_array_equal(np.asarray(loaded.consts),
                           np.asarray(fig1_tape.consts))
        assert loaded.meta == fig1_tape.meta

    def test_json_round_trip_hash_stable(self, fig1_tape):
        assert (tape_from_json(fig1_tape.to_json()).content_hash
                == fig1_tape.content_hash)

    def test_tape_model_sweep_matches_model(self, fig1_result, fig1_tape,
                                            tmp_path):
        path = tmp_path / "fig1.tape"
        fig1_tape.save(path)
        model = TapeModel(load_tape(path))
        assert model.output == "out"
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 7),
                 "C2": np.linspace(0.1e-12, 3e-12, 7)}
        base = fig1_result.model.sweep(grids, metrics.dominant_pole_hz)
        other = model.sweep(grids, metrics.dominant_pole_hz)
        assert_array_equal(np.asarray(base), np.asarray(other))

    def test_tape_model_rom(self, fig1_result, fig1_tape):
        model = TapeModel(fig1_tape)
        want = fig1_result.model.rom({"C2": 2e-12}, order=1)
        got = model.rom({"C2": 2e-12}, order=1)
        assert_array_equal(want.poles, got.poles)
        assert_array_equal(want.residues, got.residues)

    def test_tape_for_is_memoized(self, fig1_result):
        fn = fig1_result.model.compiled_moments.fn
        assert tape_for(fn) is tape_for(fn)


class TestProfile:
    def test_profile_program_loaded_from_tape(self, fig1_tape, tmp_path):
        """The op profiler runs on a program rebuilt from a ``.tape``
        artifact: one entry per tape op, provenance over the symbols."""
        from repro.obs.profile import profile_program
        from repro.runtime.batched import grid_columns

        path = tmp_path / "fig1.tape"
        fig1_tape.save(path)
        model = TapeModel(load_tape(path))
        fn = model.compiled_moments.fn
        _, _, cols = grid_columns(model, {
            "C1": np.linspace(0.5e-12, 5e-12, 16),
            "C2": np.linspace(0.1e-12, 3e-12, 16)})
        prof = profile_program(fn, cols, repeats=2)
        assert sum(e.ops for e in prof.entries) == fn.n_ops == fig1_tape.n_ops
        exprs = " ".join(e.expr for e in prof.entries)
        assert "C1" in exprs and "C2" in exprs


class TestRejection:
    def test_wrong_schema_version(self, fig1_tape):
        payload = json.loads(fig1_tape.to_json())
        payload["schema"] = TAPE_SCHEMA + 1
        with pytest.raises(TapeError, match="schema"):
            tape_from_json(json.dumps(payload))

    def test_corrupted_const_refused(self, fig1_tape):
        payload = json.loads(fig1_tape.to_json())
        payload["consts"][0] = repr(float(payload["consts"][0]) + 1.0)
        with pytest.raises(TapeError, match="corrupt"):
            tape_from_json(json.dumps(payload))

    def test_corrupted_op_refused(self, fig1_tape, tmp_path):
        payload = json.loads(fig1_tape.to_json())
        payload["ops"][0][0] = (payload["ops"][0][0] + 1) % 4
        path = tmp_path / "bad.tape"
        path.write_text(json.dumps(payload))
        with pytest.raises(TapeError, match="corrupt"):
            load_tape(path)

    def test_malformed_opcode_refused(self, fig1_tape):
        bad = [list(op) for op in fig1_tape.ops]
        bad[0][0] = 99
        with pytest.raises(TapeError):
            OpTape(fig1_tape.symbols, fig1_tape.consts,
                   tuple(tuple(op) for op in bad), fig1_tape.outputs,
                   fig1_tape.output_names)

    def test_operand_out_of_range_refused(self, fig1_tape):
        bad = [list(op) for op in fig1_tape.ops]
        bad[0][1] = 10 ** 6
        with pytest.raises(TapeError):
            OpTape(fig1_tape.symbols, fig1_tape.consts,
                   tuple(tuple(op) for op in bad), fig1_tape.outputs,
                   fig1_tape.output_names)

    def test_truncated_file_refused(self, fig1_tape, tmp_path):
        path = tmp_path / "trunc.tape"
        text = fig1_tape.to_json()
        path.write_text(text[:len(text) // 2])
        with pytest.raises((TapeError, ValueError)):
            load_tape(path)

    def test_bare_program_tape_is_not_a_model(self, fig1_result):
        fn = fig1_result.model.compiled_moments.fn
        bare = tape_for(fn)
        stripped = OpTape(bare.symbols, bare.consts, bare.ops,
                          bare.outputs, bare.output_names)
        with pytest.raises(TapeError, match="model artifact"):
            TapeModel(stripped)
