"""``ReducedOrderModel.dc_gain`` is the real part of ``-Σ rᵢ/pᵢ``.

Conjugate-pair residues cancel the imaginary part only up to rounding,
and that residue may exceed any fixed closeness tolerance; the scalar
metric must still return the real part, as its vectorized twin does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.awe import ReducedOrderModel
from repro.core import metrics
from repro.runtime.batched import VECTOR_METRICS


def random_order5(rng) -> ReducedOrderModel:
    """A stable order-5 model: two conjugate pairs and one real pole
    at 0.1-10 rad/s, pair residues of magnitude 1e2-1e3 that are
    conjugate up to a few ulp, as a Padé solve returns them."""
    poles, residues = [], []
    for _ in range(2):
        p = complex(-rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
        r = rng.uniform(1e2, 1e3) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        poles += [p, p.conjugate()]
        residues += [r, np.conj(r) * (1.0 + rng.uniform(-4, 4) * 2.0**-53)]
    poles.append(-rng.uniform(0.1, 10.0))
    residues.append(rng.uniform(-1e3, 1e3))
    return ReducedOrderModel(poles, residues)


def test_dc_gain_is_the_real_part_of_the_sum():
    rng = np.random.default_rng(2024)
    vector = VECTOR_METRICS[metrics.dc_gain]
    for _ in range(3000):
        rom = random_order5(rng)
        got = rom.dc_gain()
        assert type(got) is float
        want = vector(rom.poles[:, None], rom.residues[:, None])[0]
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_dc_gain_of_a_nan_pole_is_nan():
    rom = ReducedOrderModel([complex("nan+nanj"), -1.0], [1.0, 1.0])
    with np.errstate(invalid="ignore"):
        assert math.isnan(rom.dc_gain())
