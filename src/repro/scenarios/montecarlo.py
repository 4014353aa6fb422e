"""Monte Carlo, corner, and temperature scenarios on compiled models.

The paper's economics: once the symbolic model is compiled, re-evaluation
at new element values is a handful of arithmetic ops.  A 10k-sample Monte
Carlo is therefore *just a 10k-point sweep* — this module samples the
parameter space and routes the joint samples through the batched sweep
runtime (``paired=True``), inheriting its vectorized evaluation, shard
backends (serial/thread/process), per-sample quarantine, and runtime
stats for free.

Three scenario generators share one execution path:

* :func:`monte_carlo` — independent per-element distributions
  (:func:`normal`, :func:`uniform`, relative or absolute spread);
* :func:`corner_sweep` — named discrete corners (slow/nom/fast …),
  evaluated as the cartesian corner product;
* :func:`temperature_sweep` — first-/second-order tempco models mapping
  a temperature axis onto element values.

Results carry percentile and yield reporting
(:class:`MonteCarloResult`), publish ``repro_scenario_*`` metrics, and
are differentially verified against the per-point oracle by
:mod:`repro.testing.differential`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..diagnostics import SweepDiagnostics
from ..errors import ReproError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..runtime.batched import batched_sweep
from ..runtime.stats import RuntimeStats
from .transient import _compiled

__all__ = [
    "Distribution",
    "normal",
    "uniform",
    "corners",
    "sample_parameters",
    "monte_carlo",
    "corner_sweep",
    "temperature_sweep",
    "MonteCarloResult",
    "CornerResult",
    "TempcoModel",
]

#: default percentile ladder for Monte Carlo reports
DEFAULT_PERCENTILES = (1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0)


@dataclass(frozen=True)
class Distribution:
    """One element's sampling rule.

    ``kind`` is ``"normal"`` (``a`` = mean, ``b`` = standard deviation)
    or ``"uniform"`` (``a``/``b`` = bounds).  Values are in the element's
    natural units (ohms, farads, siemens); the compiled model applies its
    own element→symbol transforms downstream.
    """

    kind: str
    a: float
    b: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "normal":
            return rng.normal(self.a, self.b, size=n)
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, size=n)
        raise ReproError(f"unknown distribution kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "normal":
            return f"normal(mean={self.a:g}, sigma={self.b:g})"
        return f"uniform({self.a:g}, {self.b:g})"


def normal(mean: float, sigma: float | None = None,
           rel_sigma: float | None = None) -> Distribution:
    """Gaussian spread; give ``sigma`` absolute or ``rel_sigma`` as a
    fraction of the mean (the usual "±5 % component" spec)."""
    if (sigma is None) == (rel_sigma is None):
        raise ReproError("normal() needs exactly one of sigma/rel_sigma")
    s = float(sigma) if sigma is not None else abs(mean) * float(rel_sigma)
    return Distribution("normal", float(mean), s)


def uniform(lo: float, hi: float) -> Distribution:
    """Uniform spread over ``[lo, hi]``."""
    if hi < lo:
        raise ReproError(f"uniform() needs lo <= hi, got [{lo}, {hi}]")
    return Distribution("uniform", float(lo), float(hi))


def corners(values: Mapping[str, float]) -> dict[str, float]:
    """A named corner is just an element→value map; helper for symmetry."""
    return dict(values)


def sample_parameters(distributions: Mapping[str, Distribution], n: int,
                      seed: int | None = None) -> dict[str, np.ndarray]:
    """Draw ``n`` joint samples of every element's distribution.

    Deterministic for a given ``seed`` (``np.random.default_rng``); the
    sample matrix is what :func:`monte_carlo` sends through the paired
    batched sweep, and what the differential harness replays per point.
    """
    if n <= 0:
        raise ReproError(f"need a positive sample count, got {n}")
    rng = np.random.default_rng(seed)
    return {name: dist.sample(rng, int(n))
            for name, dist in distributions.items()}


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class MonteCarloResult:
    """A Monte Carlo run: joint samples, metric values, and statistics.

    ``values`` is 1-D with one entry per sample; quarantined samples are
    NaN with a structured record in ``diagnostics`` (the batched
    runtime's quarantine contract, applied per sample).
    """

    samples: dict[str, np.ndarray]
    values: np.ndarray
    metric: str
    diagnostics: SweepDiagnostics
    stats: RuntimeStats
    seed: int | None
    seconds: float
    distributions: dict[str, Distribution] = field(default_factory=dict)
    order: int | None = None

    @property
    def n_samples(self) -> int:
        return int(self.values.size)

    @property
    def n_quarantined(self) -> int:
        return len(self.diagnostics.quarantined)

    @property
    def finite(self) -> np.ndarray:
        """The surviving (non-quarantined, finite) metric values."""
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals):
            vals = vals.real
        return vals[np.isfinite(vals)]

    @property
    def samples_per_second(self) -> float:
        return self.n_samples / self.seconds if self.seconds > 0 else 0.0

    # ------------------------------------------------------------------
    def percentiles(self, qs: Sequence[float] = DEFAULT_PERCENTILES,
                    ) -> dict[float, float]:
        """Metric percentiles over the surviving samples."""
        finite = self.finite
        if finite.size == 0:
            return {float(q): float("nan") for q in qs}
        vals = np.percentile(finite, list(qs))
        return {float(q): float(v) for q, v in zip(qs, vals)}

    def mean(self) -> float:
        finite = self.finite
        return float(finite.mean()) if finite.size else float("nan")

    def std(self) -> float:
        finite = self.finite
        return float(finite.std(ddof=1)) if finite.size > 1 else float("nan")

    def yield_fraction(self, lo: float | None = None,
                       hi: float | None = None) -> float:
        """Fraction of *all* samples inside ``[lo, hi]``.

        Quarantined samples count as failures — a sample whose circuit
        degenerates is not a passing die.
        """
        if lo is None and hi is None:
            raise ReproError("yield_fraction needs a lo and/or hi spec")
        finite = self.finite
        ok = np.ones(finite.shape, dtype=bool)
        if lo is not None:
            ok &= finite >= lo
        if hi is not None:
            ok &= finite <= hi
        return float(ok.sum()) / self.n_samples if self.n_samples else 0.0

    def summary(self, qs: Sequence[float] = DEFAULT_PERCENTILES) -> str:
        lines = [f"monte carlo [{self.metric}]: {self.n_samples} samples"
                 f" ({self.n_quarantined} quarantined), "
                 f"{self.samples_per_second:,.0f} samples/s, "
                 f"seed {self.seed}"]
        for name, dist in self.distributions.items():
            lines.append(f"  {name:<12} ~ {dist.describe()}")
        finite = self.finite
        if finite.size:
            lines.append(f"  mean {self.mean():.6g}   std {self.std():.6g}")
            pct = self.percentiles(qs)
            lines.append("  " + "   ".join(
                f"p{q:g} {v:.6g}" for q, v in pct.items()))
        else:
            lines.append("  no surviving samples")
        return "\n".join(lines)

    def to_dict(self, qs: Sequence[float] = DEFAULT_PERCENTILES) -> dict:
        """JSON-ready report (schema-stable; consumed by the CLI)."""
        return {
            "metric": self.metric,
            "n_samples": self.n_samples,
            "n_quarantined": self.n_quarantined,
            "seed": self.seed,
            "seconds": self.seconds,
            "samples_per_second": self.samples_per_second,
            "distributions": {n: {"kind": d.kind, "a": d.a, "b": d.b}
                              for n, d in self.distributions.items()},
            "mean": self.mean(),
            "std": self.std(),
            "percentiles": {f"p{q:g}": v
                            for q, v in self.percentiles(qs).items()},
            "quarantined": [p.to_dict()
                            for p in self.diagnostics.quarantined],
        }


@dataclass(frozen=True)
class CornerResult:
    """A corner sweep: one metric value per named corner combination."""

    names: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    values: np.ndarray
    metric: str
    diagnostics: SweepDiagnostics

    def value(self, *labels: str) -> float:
        """Metric at one corner, addressed by its per-element labels."""
        try:
            i = self.labels.index(tuple(labels))
        except ValueError:
            raise ReproError(f"unknown corner {labels!r} "
                             f"(have {list(self.labels)})") from None
        return float(np.asarray(self.values).reshape(-1)[i])

    def worst(self) -> tuple[tuple[str, ...], float]:
        """(labels, value) of the corner with the largest |metric|."""
        flat = np.asarray(self.values).reshape(-1)
        finite = np.where(np.isfinite(flat), np.abs(flat), -np.inf)
        i = int(np.argmax(finite))
        return self.labels[i], float(flat[i])

    def summary(self) -> str:
        flat = np.asarray(self.values).reshape(-1)
        lines = [f"corners [{self.metric}]: {flat.size} combination(s) of "
                 + " x ".join(self.names)]
        for labels, v in zip(self.labels, flat):
            tag = ", ".join(f"{n}={l}" for n, l in zip(self.names, labels))
            lines.append(f"  {tag:<40} {v:.6g}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# scenario drivers
# ----------------------------------------------------------------------
def monte_carlo(model, distributions: Mapping[str, Distribution],
                metric: Callable, n: int = 1000,
                seed: int | None = 0,
                order: int | None = None,
                require_stable: bool = True,
                shards: int | None = None,
                max_workers: int | None = None,
                backend: str | None = None,
                strict: bool = False,
                stats: RuntimeStats | None = None,
                cancel=None) -> MonteCarloResult:
    """Monte Carlo a metric over sampled element values.

    Args:
        model: compiled model (:class:`CompiledAWEModel` or a loaded
            :class:`~repro.symbolic.tape.TapeModel`).
        distributions: ``{element name: Distribution}`` in natural units.
        metric: scalar metric of a reduced-order model (anything the
            batched sweep accepts, including :data:`VECTOR_METRICS`
            entries).
        n: sample count.
        seed: RNG seed (``None`` = nondeterministic).
        shards / max_workers / backend / strict / cancel: forwarded to
            the batched runtime — an MC run shards, retries, quarantines
            and drains on cancellation exactly like a grid sweep.

    Returns:
        :class:`MonteCarloResult` with per-sample values (NaN at
        quarantined samples), percentile/yield reporting, and the full
        sweep diagnostics.
    """
    stats = stats if stats is not None else RuntimeStats()
    samples = sample_parameters(distributions, n, seed=seed)
    t0 = time.perf_counter()
    with _trace.span("scenario.mc", samples=int(n),
                     metric=getattr(metric, "__name__", str(metric))):
        result = batched_sweep(_compiled(model), samples, metric,
                               order=order,
                               require_stable=require_stable,
                               shards=shards, max_workers=max_workers,
                               backend=backend, strict=strict,
                               stats=stats, paired=True, cancel=cancel)
    seconds = time.perf_counter() - t0
    reg = _metrics.registry()
    reg.counter("repro_scenario_mc_runs_total",
                "Monte Carlo scenario runs").inc()
    reg.counter("repro_scenario_mc_samples_total",
                "Monte Carlo samples evaluated").inc(int(n))
    reg.counter("repro_scenario_mc_quarantined_total",
                "Monte Carlo samples quarantined"
                ).inc(len(result.diagnostics.quarantined))
    reg.histogram("repro_scenario_mc_seconds",
                  "wall time of one Monte Carlo run").observe(seconds)
    return MonteCarloResult(
        samples=samples, values=np.asarray(result),
        metric=getattr(metric, "__name__", str(metric)),
        diagnostics=result.diagnostics, stats=stats, seed=seed,
        seconds=seconds, distributions=dict(distributions), order=order)


def corner_sweep(model, corner_values: Mapping[str, Mapping[str, float]],
                 metric: Callable,
                 order: int | None = None,
                 require_stable: bool = True,
                 backend: str | None = None,
                 strict: bool = False) -> CornerResult:
    """Evaluate a metric at every combination of named per-element corners.

    Args:
        corner_values: ``{element: {label: value}}`` — e.g.
            ``{"Ccomp": {"slow": 36e-12, "nom": 30e-12, "fast": 24e-12}}``.
            The cartesian product of labels forms the corner set (the
            classic SS/TT/FF matrix for two elements of three corners).

    Returns:
        :class:`CornerResult` addressable by label tuples.
    """
    names = list(corner_values)
    if not names:
        raise ReproError("corner_sweep needs at least one element")
    label_axes = [list(corner_values[n]) for n in names]
    grids = {n: np.asarray([corner_values[n][l] for l in labels],
                           dtype=float)
             for n, labels in zip(names, label_axes)}
    with _trace.span("scenario.corners",
                     combinations=int(np.prod([len(a)
                                               for a in label_axes]))):
        result = batched_sweep(_compiled(model), grids, metric,
                               order=order,
                               require_stable=require_stable,
                               backend=backend, strict=strict)
    labels = tuple(itertools.product(*label_axes))
    _metrics.registry().counter(
        "repro_scenario_corner_runs_total", "corner scenario runs").inc()
    return CornerResult(names=tuple(names), labels=labels,
                        values=np.asarray(result),
                        metric=getattr(metric, "__name__", str(metric)),
                        diagnostics=result.diagnostics)


@dataclass(frozen=True)
class TempcoModel:
    """First/second-order temperature coefficient of one element.

    ``value(T) = nominal · (1 + tc1 (T - tnom) + tc2 (T - tnom)²)`` —
    the standard SPICE resistor tempco form.
    """

    nominal: float
    tc1: float = 0.0
    tc2: float = 0.0
    tnom: float = 27.0

    def values(self, temps: np.ndarray) -> np.ndarray:
        dt = np.asarray(temps, dtype=float) - self.tnom
        return self.nominal * (1.0 + self.tc1 * dt + self.tc2 * dt * dt)


def temperature_sweep(model, tempcos: Mapping[str, TempcoModel],
                      metric: Callable, temps: np.ndarray,
                      order: int | None = None,
                      require_stable: bool = True,
                      backend: str | None = None,
                      strict: bool = False):
    """Sweep temperature by mapping a temp axis through element tempcos.

    Every element moves *together* with temperature (they share the
    die), so this is a paired sweep over the temperature axis — one
    point per temperature, not a cartesian grid.

    Returns:
        The batched :class:`~repro.diagnostics.SweepResult` (1-D, one
        value per temperature) — NaN at quarantined temperatures.
    """
    temps = np.asarray(temps, dtype=float)
    samples = {name: tc.values(temps) for name, tc in tempcos.items()}
    with _trace.span("scenario.temperature", points=int(temps.size)):
        result = batched_sweep(_compiled(model), samples, metric,
                               order=order,
                               require_stable=require_stable,
                               backend=backend, strict=strict,
                               paired=True)
    _metrics.registry().counter(
        "repro_scenario_temperature_runs_total",
        "temperature scenario runs").inc()
    return result
