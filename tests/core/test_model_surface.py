"""One model surface: ``CompiledAWEModel`` is the ``TapeModel`` of its own
model tape, and every point's moments come from the fused program.

Both model types answer the same questions the same way: a singular
point raises :class:`PartitionError`, an unknown element
:class:`ApproximationError`, and a model loaded from a fused ``.tape``
evaluates its finished moments without unscaling them twice.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Circuit, awesymbolic
from repro.circuits.library import fig1_circuit
from repro.core.compiled_model import CompiledAWEModel, TapeModel
from repro.errors import ApproximationError, PartitionError
from repro.symbolic.symbols import TRANSFORMS
from repro.symbolic.tape import load_tape, tape_from_model


@pytest.fixture(scope="module")
def fig1_g2():
    """fig1 with the output-node conductance symbolic: G2 = 0 floats
    the output at DC, so det(Y0) is exactly zero there."""
    return awesymbolic(fig1_circuit(), "out", symbols=["G2", "C2"], order=2)


@pytest.fixture(scope="module")
def fig1_c():
    return awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"], order=2)


def both_models(result, tmp_path):
    path = tmp_path / "model.tape"
    tape_from_model(result, fused=True).save(path)
    return [result.model, TapeModel(load_tape(path))]


class TestSingularPoint:
    def test_moments_at_raises_partition_error(self, fig1_g2, tmp_path):
        for model in both_models(fig1_g2, tmp_path):
            with pytest.raises(PartitionError, match="singular"):
                model.moments_at({"G2": 0.0})

    def test_rom_raises_partition_error(self, fig1_g2, tmp_path):
        for model in both_models(fig1_g2, tmp_path):
            with pytest.raises(PartitionError, match="singular"):
                model.rom({"G2": 0.0})

    def test_array_lanes_stay_ieee(self, fig1_g2):
        """``CompiledMoments.__call__`` over arrays keeps inf/NaN lanes."""
        model = fig1_g2.model
        cols = [np.array([0.0, 1.0]) * v if n == "G2" else v
                for n, v in zip(model.space.names, model._nominal)]
        with np.errstate(all="ignore"):
            m = model.compiled_moments(cols)
        assert m.shape == (model.compiled_moments.order + 1, 2)
        assert not np.isfinite(m[:, 0]).all()
        assert np.isfinite(m[:, 1]).all()


def test_unknown_element_raises_approximation_error(fig1_c, tmp_path):
    for model in both_models(fig1_c, tmp_path):
        with pytest.raises(ApproximationError, match="not a symbolic"):
            model.moments_at({"C9": 5.0})
        with pytest.raises(ApproximationError, match="not a symbolic"):
            model.rom({"C9": 5.0})


class TestFusedTapeModel:
    def test_scalars_equal_moments_at(self, fig1_c, tmp_path):
        _, loaded = both_models(fig1_c, tmp_path)
        cm = loaded.compiled_moments
        assert cm.fn.tape.fused is not None
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = {"C1": 1e-12 * rng.uniform(0.3, 3.0),
                      "C2": 1e-12 * rng.uniform(0.3, 3.0)}
            vec = loaded._values_vector(values)
            want = loaded.moments_at(values)
            assert np.array(cm.scalars(vec)).tobytes() == want.tobytes()
            assert cm(vec).tobytes() == want.tobytes()

    def test_moments_match_compiled_model(self, fig1_c, tmp_path):
        compiled, loaded = both_models(fig1_c, tmp_path)
        want = compiled.moments_at({})
        assert loaded.moments_at({}).tobytes() == want.tobytes()
        vec = loaded._values_vector({})
        assert np.array(loaded.compiled_moments.scalars(vec)).tobytes() \
            == want.tobytes()


class TestOneSurface:
    def test_compiled_model_is_a_tape_model(self, fig1_c):
        model = fig1_c.model
        assert isinstance(model, CompiledAWEModel)
        assert isinstance(model, TapeModel)
        assert model.tape is tape_from_model(fig1_c)
        assert model.tape.meta["kind"] == "awesymbolic-moments"
        assert model.compiled_moments.fn.tape.ops.tobytes() \
            == model.tape.ops.tobytes()

    def test_tape_model_importable_from_symbolic(self):
        import repro.symbolic
        import repro.symbolic.tape

        assert repro.symbolic.tape.TapeModel is TapeModel
        assert repro.symbolic.TapeModel is TapeModel

    def test_element_slots_read_the_transform_table(self, fig1_g2):
        slots = fig1_g2.model.element_slots
        for se in fig1_g2.partition.symbolic:
            pos, transform = slots[se.name]
            assert transform is TRANSFORMS[se.transform]
            assert se.to_symbol_value is transform

    def test_saved_model_and_tape_name_the_same_transforms(self, tmp_path):
        """A resistor symbol is stamped as conductance: "inverse" in the
        saved artifact's meta and in the compiled model's tape alike."""
        ckt = Circuit("rc")
        ckt.V("Vin", "in", "0", ac=1.0)
        ckt.R("R1", "in", "out", 1e3)
        ckt.C("C2", "out", "0", 1e-9)
        res = awesymbolic(ckt, "out", symbols=["R1", "C2"], order=1)
        path = tmp_path / "rc.tape"
        res.model.tape.save(path)
        saved = json.loads(path.read_text())
        assert [e[2] for e in saved["meta"]["elements"]] == \
            ["inverse", "identity"]
        assert [e[2] for e in res.model.tape.meta["elements"]] == \
            ["inverse", "identity"]
        loaded = TapeModel(load_tape(path))
        assert loaded.tape.meta == res.model.tape.meta
        values = {"R1": 1.7e3}
        assert loaded.moments_at(values).tobytes() == \
            res.model.moments_at(values).tobytes()
