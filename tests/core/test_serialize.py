"""Round-trip tests for saved compiled models: the model tape."""

import json

import numpy as np
import pytest

from repro import awesymbolic
from repro.circuits import Circuit
from repro.core.compiled_model import TapeModel
from repro.errors import ApproximationError, SymbolicError, TapeError
from repro.symbolic.tape import TAPE_SCHEMA, load_tape, tape_from_dict


@pytest.fixture(scope="module")
def result():
    ckt = Circuit("rc2")
    ckt.V("Vin", "in", "0", ac=1.0)
    ckt.R("R1", "in", "n1", 1000.0)
    ckt.C("C1", "n1", "0", 1e-9)
    ckt.R("R2", "n1", "out", 2000.0)
    ckt.C("C2", "out", "0", 0.5e-9)
    return awesymbolic(ckt, "out", symbols=["R2", "C2"], order=2)


def reload(result) -> TapeModel:
    return TapeModel(tape_from_dict(json.loads(result.model.tape.to_json())))


def resealed(data: dict) -> dict:
    """``data`` with its integrity hash recomputed, so only the edit
    itself can be refused."""
    data = dict(data)
    data.pop("integrity")
    data["integrity"] = f"sha256:{tape_from_dict(data).content_hash}"
    return data


class TestRoundTrip:
    def test_json_is_valid_and_versioned(self, result, tmp_path):
        path = tmp_path / "rc2.tape"
        result.model.tape.save(path)
        data = json.loads(path.read_text())
        assert data["schema"] == TAPE_SCHEMA
        assert data["integrity"] == \
            f"sha256:{result.model.tape.content_hash}"
        assert data["meta"]["output"] == "out"
        assert {e[0] for e in data["meta"]["elements"]} == {"R2", "C2"}
        assert load_tape(path).content_hash == result.model.tape.content_hash

    def test_loaded_model_evaluates_identically(self, result):
        loaded = reload(result)
        for values in [{}, {"R2": 500.0}, {"R2": 8000.0, "C2": 2e-9}]:
            assert loaded.moments_at(values).tobytes() == \
                result.model.moments_at(values).tobytes()
            a = loaded.rom(values)
            b = result.rom(values)
            np.testing.assert_array_equal(a.poles, b.poles)

    def test_resistor_transform_survives(self, result):
        loaded = reload(result)
        # halving R2 must double its conductance symbol internally
        m_half = loaded.moments_at({"R2": 1000.0})
        m_full = loaded.moments_at({})
        assert m_half[1] != pytest.approx(m_full[1])
        assert loaded.slot("R2")[1](2000.0) == pytest.approx(1 / 2000.0)

    def test_unknown_element_rejected(self, result):
        loaded = reload(result)
        with pytest.raises(ApproximationError):
            loaded.rom({"R1": 100.0})  # R1 was not symbolic

    def test_order_limit_enforced(self, result):
        loaded = reload(result)
        with pytest.raises(ApproximationError):
            loaded.rom(order=10)


class TestFormatErrors:
    def test_wrong_version(self, result):
        data = result.model.tape.to_dict()
        data["schema"] = 99
        with pytest.raises(TapeError, match="schema 99"):
            tape_from_dict(data)
        assert issubclass(TapeError, SymbolicError)

    def test_unknown_transform(self, result):
        data = result.model.tape.to_dict()
        data["meta"] = dict(data["meta"], elements=[
            [name, pos, "sqrt"] for name, pos, _ in
            data["meta"]["elements"]])
        tape = tape_from_dict(resealed(data))  # a well-formed tape ...
        with pytest.raises(TapeError, match="unknown transform"):
            TapeModel(tape)                    # ... but not a model
