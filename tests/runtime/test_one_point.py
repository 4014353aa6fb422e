"""1-point sweeps and per-point model objects against ``rom()``.

A 1-point chunk runs the fused program's scalar code on numpy float64
scalars, so its values are ``metric(rom(values))`` bit for bit and no
ufunc kernel is specialized for it.  A metric without a vectorized
implementation sees, on every lane, the model ``rom()`` would build —
including the moment scale a stable-order ladder lane carries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import awesymbolic
from repro.circuits.library import small_signal_741
from repro.core import metrics
from repro.core.compiled_model import TapeModel
from repro.errors import ApproximationError, PartitionError
from repro.symbolic.tape import tape_from_model


@pytest.fixture(scope="module")
def amp_model():
    return awesymbolic(small_signal_741().circuit, "out",
                       symbols=["go_Q14", "Ccomp"], order=4)


def random_points(result, n, seed):
    rng = np.random.default_rng(seed)
    nominal = {se.name: float(se.element.value)
               for se in result.partition.symbolic}
    return [{k: v * rng.uniform(0.3, 3.0) for k, v in nominal.items()}
            for _ in range(n)]


def test_one_point_batch_specializes_no_kernel(fig1_model):
    model = TapeModel(tape_from_model(fig1_model, fused=True))
    fn = model.compiled_moments.fused
    assert fn is model.compiled_moments.fn  # a fused tape is its program
    for backend in ("serial", "native"):
        model.sweep({"C1": np.array([2e-12]), "C2": np.array([1e-12])},
                    metrics.dominant_pole_hz, backend=backend)
    model.sweep({}, metrics.dominant_pole_hz)  # an all-scalar chunk
    assert fn._kernels == {}


@pytest.mark.parametrize("name", ["fig1_model", "amp_model", "ota_model"])
@pytest.mark.parametrize("order", [1, 2])
def test_one_point_sweep_equals_rom(name, order, request):
    result = request.getfixturevalue(name)
    model = result.model
    for metric in (metrics.dominant_pole_hz, metrics.dc_gain):
        for values in random_points(result, 200, seed=order):
            got = model.sweep({k: np.array([v]) for k, v in values.items()},
                              metric, order=order)
            try:
                want = metric(model.rom(values, order=order))
            except (ApproximationError, PartitionError):
                want = np.nan
            assert np.asarray(got, dtype=float).tobytes() \
                == np.full((1, 1), want, dtype=float).tobytes(), values


def test_ladder_lanes_carry_their_moment_scale(amp_model):
    """``rom.scale`` has no vectorized implementation, so the batched
    sweep builds one model per ladder lane; each must carry the scale
    ``stable_reduction`` gives it."""
    go = amp_model.partition.symbolic[0].symbol.nominal
    grids = {"go_Q14": np.linspace(0.5, 4.0, 12) * go,
             "Ccomp": np.linspace(10e-12, 60e-12, 12)}

    def scale(rom):
        return rom.scale

    model = amp_model.model
    batched = model.sweep(grids, scale, order=4)
    per_point = model.sweep_per_point(grids, scale, order=4)
    assert batched.tobytes() == per_point.tobytes()
    assert (batched != 1.0).all()
