"""The stacked stable-order Padé ladder against the scalar reduction.

:func:`repro.runtime.batched.vector_poles_residues_general` is the
order-q attempt of :func:`repro.awe.stability.stable_reduction` over a
stack of moment columns, and :func:`repro.runtime.batched._stable_ladder`
runs that function's order-dropping retries over the stack.  Both must
reproduce the scalar path lane for lane and bit for bit: poles, residues,
orders dropped, and whether a lane settles at all.  So no lane's values
may depend on the lanes stacked with it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import awesymbolic
from repro.awe.stability import stable_reduction
from repro.circuits.library import small_signal_741
from repro.errors import ApproximationError
from repro.runtime.batched import (_stable_ladder, grid_columns,
                                   vector_poles_residues_general)

#: moment rows of every slab: enough for order 5
ROWS = 10


@pytest.fixture(scope="module")
def slab_741() -> np.ndarray:
    """Compiled moments ``(10, 1024)`` of the 741 over a 32x32
    (go_Q14, Ccomp) grid; at order 4 a few lanes have exactly singular
    Hankel systems and most have unstable poles."""
    res = awesymbolic(small_signal_741().circuit, "out",
                      symbols=["go_Q14", "Ccomp"], order=4)
    go = res.partition.symbolic[0].symbol.nominal
    grids = {"go_Q14": np.linspace(0.5, 4.0, 32) * go,
             "Ccomp": np.linspace(10e-12, 60e-12, 32)}
    _, shape, columns = grid_columns(res.model, grids)
    n = int(np.prod(shape))
    raw = res.model.compiled_moments.fn.eval_batch(columns, n)
    return np.stack([np.broadcast_to(np.asarray(r, dtype=float), (n,))
                     for r in raw[:-1]])


def lane_bytes(poles, residues, ok, failed, i) -> tuple:
    return (poles[:, i].tobytes(), residues[:, i].tobytes(),
            bool(ok[i]), bool(failed[i]))


@pytest.fixture(scope="module")
def single_lanes(slab_741) -> dict:
    """Each lane's 1-lane attempt, per order."""
    return {order: [lane_bytes(*vector_poles_residues_general(
                        slab_741[:, i:i + 1], order), 0)
                    for i in range(slab_741.shape[1])]
            for order in (3, 4)}


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("stack", [1, 7, 100, 513, 1024])
def test_lanes_do_not_depend_on_the_stack(slab_741, single_lanes, order,
                                          stack):
    """``np.linalg.eigvals`` returns float only when the whole stack is
    real, and numpy's pairwise mean and power loops round by layout; a
    lane's attempt must still equal its 1-lane call bit for bit."""
    result = vector_poles_residues_general(slab_741[:, :stack], order)
    for i in range(stack):
        assert lane_bytes(*result, i) == single_lanes[order][i], i


def assert_ladder_matches_scalar(moments, order, require_stable) -> None:
    """Every lane of the stacked ladder against ``stable_reduction``."""
    poles, residues, settled = _stable_ladder(moments, order,
                                              require_stable)
    for i in range(moments.shape[1]):
        try:
            ref = stable_reduction(moments[:, i].copy(), order,
                                   require_stable=require_stable)
        except ApproximationError:
            assert settled[i] == 0, i
            continue
        q = int(settled[i])
        assert q == ref.order, i
        assert order - q == ref.dropped_unstable, i
        assert poles[:q, i].tobytes() == ref.poles.tobytes(), i
        assert residues[:q, i].tobytes() == ref.residues.tobytes(), i


@pytest.mark.parametrize("require_stable", [True, False])
def test_ladder_matches_stable_reduction_on_the_741(slab_741,
                                                    require_stable):
    _, _, settled = _stable_ladder(slab_741, 4, require_stable)
    assert (settled > 0).all()
    if require_stable:
        # most lanes drop to order 3 or 2: the ladder, not one attempt,
        # is what keeps them off the per-point path
        assert (settled < 4).mean() > 0.8
    assert_ladder_matches_scalar(slab_741, 4, require_stable)


# ----------------------------------------------------------------------
# random moment slabs
# ----------------------------------------------------------------------
def model_moments(poles, residues) -> np.ndarray:
    """``m_k = -Σ r_i / p_i^(k+1)`` for ``k < ROWS`` (real for a model
    of real poles and conjugate pairs)."""
    k = np.arange(ROWS)[:, None]
    p = np.asarray(poles, dtype=complex)
    r = np.asarray(residues, dtype=complex)
    return (-r / p ** (k + 1)).sum(axis=1).real


magnitude = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
sign = st.sampled_from([-1.0, 1.0])


@st.composite
def model_lane(draw) -> np.ndarray:
    """Moments of a random 1-5 pole model: real poles and conjugate
    pairs, stable or not."""
    size = draw(st.integers(1, 5))
    poles, residues = [], []
    while len(poles) < size:
        re = -draw(magnitude) * (1.0 if draw(st.booleans()) else -0.05)
        res = draw(sign) * draw(magnitude)
        if len(poles) + 2 <= size and draw(st.booleans()):
            im = draw(magnitude)
            res_im = draw(sign) * draw(magnitude)
            poles += [complex(re, im), complex(re, -im)]
            residues += [complex(res, res_im), complex(res, -res_im)]
        else:
            poles.append(complex(re))
            residues.append(complex(res))
    return model_moments(poles, residues)


@st.composite
def degenerate_lane(draw) -> np.ndarray:
    """Zero or constant moments (exactly singular Hankel systems), NaN
    moments, or a double pole (repeated Padé poles)."""
    kind = draw(st.sampled_from(["zero", "constant", "nan", "nan_row",
                                 "double"]))
    if kind == "zero":
        return np.zeros(ROWS)
    if kind == "constant":
        return np.full(ROWS, draw(sign) * draw(magnitude))
    if kind == "nan":
        return np.full(ROWS, np.nan)
    m = draw(model_lane())
    if kind == "nan_row":
        m[draw(st.integers(0, ROWS - 1))] = np.nan
        return m
    # H = c / (1 + s/a)^2: m_k = c (k + 1) (-1/a)^k
    a, c = draw(magnitude), draw(sign) * draw(magnitude)
    k = np.arange(ROWS)
    return c * (k + 1) * (-1.0 / a) ** k


@given(lanes=st.lists(st.one_of(model_lane(), model_lane(),
                                degenerate_lane()),
                      min_size=1, max_size=12),
       order=st.integers(1, 5), require_stable=st.booleans())
def test_ladder_matches_stable_reduction_on_random_slabs(lanes, order,
                                                         require_stable):
    moments = np.stack(lanes, axis=1)
    assert_ladder_matches_scalar(moments, order, require_stable)


def test_nonconverging_lane_is_left_to_the_per_point_path(slab_741,
                                                         monkeypatch):
    """When ``dgeev`` fails on one lane, the stacked ``eigvals`` raises
    for the whole stack; every other lane must still settle, exactly."""
    moments = slab_741[:, :40]
    reference = vector_poles_residues_general(moments, 4)
    real_eigvals = np.linalg.eigvals
    calls = []

    def flaky_eigvals(a):
        calls.append(a.shape)
        if a.ndim == 3 or len(calls) == 6:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", flaky_eigvals)
    poles, residues, ok, failed = vector_poles_residues_general(moments, 4)
    undecided = np.flatnonzero(~ok & ~failed)
    assert len(undecided) == 1
    for i in range(moments.shape[1]):
        if i not in undecided:
            assert (lane_bytes(poles, residues, ok, failed, i)
                    == lane_bytes(*reference, i))
