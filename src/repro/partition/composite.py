"""Composite symbolic moment computation (paper eqs. 11-13).

The global system collects every numeric block's port admittance expansion,
every symbolic element's (finite) stamp, and the independent sources:

    (Yg0 + Yg1 s + Yg2 s² + ...)(V0 + V1 s + ...) = I0        (impulse input)

Matching powers of ``s``:

    Yg0 · V0 = I0
    Yg0 · Vk = - Σ_{j>=1} Ygj · V_{k-j}

``Yg0`` has polynomial entries in the symbols, so the recursion runs on the
division-free :class:`~repro.symbolic.matrix.SymbolicLinearSolver`: every
``Vk`` is a polynomial numerator vector over the shared denominator
``det(Yg0)^(k+1)``.  The output row of each ``Vk`` is the symbolic moment
``m_k`` — a rational function of the symbols that evaluates *identically*
to the numeric AWE moment at any symbol values (the paper's headline
exactness claim, enforced in our integration tests).

:meth:`SymbolicMoments.compile` builds a model's one moment program
(:func:`moment_tape`): the numerators and the determinant lowered to an
op tape, followed by the ``m_k = n_k / det^(k+1)`` unscaling ladder
(:func:`~repro.symbolic.tape.fuse_moments`), exec'd once.
:class:`CompiledMoments` evaluates every point through it, so the scalar
path, the array path, the batched sweep, the process workers and the
profiler all run the same program.  The lowering orders operands by
content, so that program is the same in every process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..circuits.circuit import GROUND
from ..circuits.elements import (VCCS, Capacitor, Conductance, CurrentSource,
                                 Inductor, Resistor, VoltageSource)
from ..errors import PartitionError
from ..obs import trace as _trace
from ..symbolic import (CompiledFunction, OpTape, Poly, PolyMatrix,
                        Rational, SymbolicLinearSolver, SymbolSpace,
                        compile_rationals)
from ..symbolic.compile import lower_rationals
from ..symbolic.tape import fuse_moments
from .blocks import CircuitPartition
from .ports import NumericBlockExpansion, port_admittance_moments

_SINGULAR = "global symbolic system singular at this point"


def moment_tape(space: SymbolSpace, numerators: Sequence[Poly],
                det: Poly) -> OpTape:
    """The moment program of ``m_k = numerators[k] / det**(k+1)``: the
    numerators and the determinant lowered to one op tape (full CSE),
    then the unscaling ladder appended (schema 2).  Its outputs are
    ``m0 .. mK, det``."""
    return fuse_moments(lower_rationals(
        space, [*numerators, det],
        output_names=[f"n{k}" for k in range(len(numerators))] + ["det"]))


@dataclass(frozen=True)
class SymbolicMoments:
    """Symbolic transfer-function moments ``m_0..m_order``.

    Every moment is ``numerators[k] / det**(k+1)`` — polynomials over the
    partition's symbol space.  ``evaluate`` and ``compile`` implement the
    paper's "compiled set of operations" evaluation path.
    """

    space: SymbolSpace
    output: str
    numerators: tuple[Poly, ...]
    det: Poly
    partition: CircuitPartition

    @property
    def order(self) -> int:
        return len(self.numerators) - 1

    def rationals(self, cancel: bool = False) -> list[Rational]:
        """Moments as explicit rational functions (optionally reduced)."""
        out = []
        den = Poly.one(self.space)
        for num in self.numerators:
            den = den * self.det
            r = Rational(num, den)
            out.append(r.cancel() if cancel else r)
        return out

    def evaluate(self, values: Mapping | Sequence[float]) -> np.ndarray:
        """Numeric moments at given *symbol* values (see
        :meth:`CircuitPartition.symbol_values` for element-value mapping)."""
        det = self.det.evaluate(values)
        if det == 0.0:
            raise PartitionError(_SINGULAR)
        out = np.empty(len(self.numerators))
        scale = 1.0
        for k, num in enumerate(self.numerators):
            scale *= det
            out[k] = num.evaluate(values) / scale
        return out

    def compile(self) -> "CompiledMoments":
        """Compile the moment program (:func:`moment_tape`) — one
        lowering, one ``exec``."""
        with _trace.span("compile.moments", order=self.order,
                         output=self.output):
            tape = moment_tape(self.space, self.numerators, self.det)
            fn = tape.build_function(self.space)
        return CompiledMoments(fn=fn, order=self.order)

    def to_sympy(self):
        """Moments as a list of sympy expressions (requires sympy).

        Handy for pretty-printing, further manipulation, or cross-checking
        against an independent CAS — the role Mathematica played for the
        paper's authors.
        """
        from ..symbolic.interop import rational_to_sympy

        return [rational_to_sympy(r) for r in self.rationals()]

    def derivative_rationals(self, symbol) -> list[Rational]:
        """``∂m_k/∂symbol`` as explicit rational functions.

        With ``m_k = n_k / det^(k+1)``, the quotient rule gives
        ``(n_k' det - (k+1) n_k det') / det^(k+2)`` — one of the roles the
        paper's introduction lists for symbolic forms ("sensitivity
        calculation"), here exact and closed-form.
        """
        ddet = self.det.derivative(symbol)
        out: list[Rational] = []
        den = self.det * self.det
        for k, num in enumerate(self.numerators):
            dnum = num.derivative(symbol)
            top = dnum * self.det - (float(k + 1)) * num * ddet
            out.append(Rational(top, den))
            den = den * self.det
        return out

    def compile_sensitivities(self, symbols=None) -> "CompiledSensitivities":
        """Compile moments *and* their derivatives w.r.t. the given symbols
        (default: all) into one straight-line function."""
        names = list(self.space.names) if symbols is None else [
            s if isinstance(s, str) else s.name for s in symbols]
        items: list[Poly] = list(self.numerators) + [self.det]
        labels = [f"n{k}" for k in range(len(self.numerators))] + ["det"]
        ddet = {name: self.det.derivative(name) for name in names}
        for name in names:
            for k, num in enumerate(self.numerators):
                items.append(num.derivative(name))
                labels.append(f"dn{k}_d{name}")
            items.append(ddet[name])
            labels.append(f"ddet_d{name}")
        fn = compile_rationals(self.space, items, output_names=labels)
        return CompiledSensitivities(fn=fn, order=self.order,
                                     symbol_names=tuple(names))


@dataclass(frozen=True)
class CompiledMoments:
    """Straight-line evaluator for symbolic moments.

    ``fn`` is the model's moment program (:func:`moment_tape`): one
    register-machine pass returns the finished moments ``m0 .. mK`` and
    then the determinant, so calling it with symbol values returns the
    numeric moment vector in ``n_ops`` arithmetic operations — no
    circuit solve.
    """

    fn: CompiledFunction
    order: int

    @property
    def n_ops(self) -> int:
        return self.fn.n_ops

    def _raw(self, values: Mapping | Sequence[float]) -> tuple:
        try:
            return self.fn(values)
        except ZeroDivisionError:  # det == 0 in Python-float arithmetic
            raise PartitionError(_SINGULAR) from None

    def scalars(self, values: Mapping | Sequence[float]) -> list[float]:
        """Fast scalar path: moments as plain Python floats (no numpy).

        This is the per-iteration hot loop of Table 1: one pass of the
        program, whose last ``order + 1`` divisions unscale the moments.

        Raises:
            PartitionError: the symbolic system is singular here.
        """
        raw = self._raw(values)
        if raw[-1] == 0.0:  # numpy-scalar inputs: inf/NaN, no raise
            raise PartitionError(_SINGULAR)
        return list(raw[:-1])

    def __call__(self, values: Mapping | Sequence[float]) -> np.ndarray:
        """Moments as an array, broadcast over array-valued symbols: the
        program's outputs, so a point's moments equal :meth:`scalars`
        bit for bit.  Array lanes at a singular point hold inf/NaN; a
        singular scalar point raises :class:`PartitionError`."""
        raw = self._raw(values)[:-1]
        # outputs independent of some symbols come back as scalars even on
        # vectorized sweeps; broadcast everything to the common grid shape
        out = np.empty((len(raw),) + np.broadcast_shapes(
            *(np.shape(v) for v in raw)))
        for k, moment in enumerate(raw):
            out[k] = moment
        return out


@dataclass(frozen=True)
class CompiledSensitivities:
    """Straight-line evaluator for moments plus their symbol derivatives.

    Layout of the underlying function's outputs:
    ``n0..nK, det, then per symbol: dn0..dnK, ddet``.
    """

    fn: CompiledFunction
    order: int
    symbol_names: tuple[str, ...]

    def __call__(self, values: Mapping | Sequence[float],
                 ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Return ``(moments, {symbol: d moments/d symbol})`` at ``values``."""
        raw = self.fn(values)
        k1 = self.order + 1
        nums = np.asarray(raw[:k1], dtype=float)
        det = float(raw[k1])
        if det == 0.0:
            raise PartitionError(_SINGULAR)
        powers = det ** np.arange(1, k1 + 1, dtype=float)
        moments = nums / powers
        sens: dict[str, np.ndarray] = {}
        base = k1 + 1
        for i, name in enumerate(self.symbol_names):
            dnums = np.asarray(raw[base + i * (k1 + 1):
                                   base + i * (k1 + 1) + k1], dtype=float)
            ddet = float(raw[base + i * (k1 + 1) + k1])
            ks = np.arange(1, k1 + 1, dtype=float)
            # d(n/det^k)/dv = (dn det - k n ddet) / det^(k+1)
            sens[name] = (dnums * det - ks * nums * ddet) / (powers * det)
        return moments, sens


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled composite system ``(Σ matrices[k] s^k) V = rhs`` (impulse)."""

    space: SymbolSpace
    matrices: tuple[PolyMatrix, ...]
    rhs: tuple[Poly, ...]
    rows: dict[str, int]
    aux: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.rhs)


def _nominal_prune(poly: Poly, weights: tuple[float, ...], rtol: float) -> Poly:
    """Drop float-dust terms by their magnitude *at nominal symbol values*.

    Raw-coefficient pruning is wrong here: symbols span wildly different
    scales (a conductance ~1e-5 S next to a capacitance ~1e-11 F), so a
    huge coefficient can belong to a negligible term and vice versa.
    Weighting each term by ``Π |nominal_i|^e_i`` compares like with like.
    """
    if rtol <= 0.0 or not poly.terms:
        return poly
    mags = {}
    for exps, coeff in poly.terms.items():
        mag = abs(coeff)
        for w, e in zip(weights, exps):
            if e == 1:
                mag *= w
            elif e:
                mag *= w ** e
        mags[exps] = mag
    cutoff = max(mags.values()) * rtol
    return Poly(poly.space,
                {e: c for e, c in poly.terms.items() if mags[e] > cutoff},
                _clean=True)


def _poly_stamp(matrix: list[list[Poly]], rows: dict[str, int], a: str,
                b: str, value: Poly) -> None:
    """Two-terminal admittance stamp with ground dropping (in place)."""
    ia = rows.get(a, -1) if a != GROUND else -1
    ib = rows.get(b, -1) if b != GROUND else -1
    if ia >= 0:
        matrix[ia][ia] = matrix[ia][ia] + value
    if ib >= 0:
        matrix[ib][ib] = matrix[ib][ib] + value
    if ia >= 0 and ib >= 0:
        matrix[ia][ib] = matrix[ia][ib] + -1.0 * value
        matrix[ib][ia] = matrix[ib][ia] + -1.0 * value


def assemble_global(part: CircuitPartition, order: int,
                    expansions: Sequence[NumericBlockExpansion] | None = None,
                    equilibrate: bool = True) -> GlobalSystem:
    """Assemble the composite symbolic admittance expansion (paper eqs. 11/12).

    Row equilibration (on by default) rescales every equation by the
    magnitude of its ``Yg0`` row at nominal symbol values so ``det(Yg0)``
    stays O(1); the moment denominators ``det^(k+1)`` would otherwise
    overflow or underflow at evaluation time.
    """
    with _trace.span("moments.assemble", order=order,
                     blocks=len(part.numeric_blocks)):
        return _assemble_global(part, order, expansions, equilibrate)


def _assemble_global(part: CircuitPartition, order: int,
                     expansions: Sequence[NumericBlockExpansion] | None,
                     equilibrate: bool) -> GlobalSystem:
    space = part.space

    # ---- global unknown layout: nodes then aux branches ------------------
    rows: dict[str, int] = {n: i for i, n in enumerate(part.global_nodes)}
    aux: dict[str, int] = {}
    for src in part.sources:
        if isinstance(src, VoltageSource):
            aux[src.name] = len(rows) + len(aux)
    for se in part.symbolic:
        if isinstance(se.element, Inductor):
            aux[se.name] = len(rows) + len(aux)
    size = len(rows) + len(aux)

    # ---- numeric block expansions ----------------------------------------
    if expansions is None:
        expansions = [port_admittance_moments(blk.circuit, blk.ports, order)
                      for blk in part.numeric_blocks]
    if len(expansions) != len(part.numeric_blocks):
        raise PartitionError("expansion count does not match numeric blocks")

    # ---- assemble Yg_k (on mutable builders; wrapped into PolyMatrix once
    # at the end — the copy-per-stamp of PolyMatrix.add_to_entry would
    # dominate assembly time) ----------------------------------------------
    zero = Poly.zero(space)
    builders: list[list[list[Poly]]] = [
        [[zero] * size for _ in range(size)] for _ in range(order + 1)]
    for blk, exp in zip(part.numeric_blocks, expansions):
        if tuple(exp.ports) != tuple(blk.ports):
            raise PartitionError("expansion ports do not match block ports")
        port_rows = [rows[p] for p in blk.ports]
        for k in range(min(order, exp.order) + 1):
            Yk = exp.Y[k]
            m = builders[k]
            for i, ri in enumerate(port_rows):
                for j, rj in enumerate(port_rows):
                    v = Yk[i, j]
                    if v != 0.0:
                        m[ri][rj] = m[ri][rj] + Poly.constant(space, v)

    for se in part.symbolic:
        sym = Poly.symbol(space, se.symbol)
        e = se.element
        if isinstance(e, (Resistor, Conductance)):
            _poly_stamp(builders[0], rows, e.n1, e.n2, sym)
        elif isinstance(e, Capacitor):
            if order >= 1:
                _poly_stamp(builders[1], rows, e.n1, e.n2, sym)
        elif isinstance(e, Inductor):
            br = aux[se.name]
            one = Poly.one(space)
            m0 = builders[0]
            for node, sign in ((e.n1, 1.0), (e.n2, -1.0)):
                if node != GROUND:
                    r = rows[node]
                    m0[r][br] = m0[r][br] + one * sign
                    m0[br][r] = m0[br][r] + one * sign
            if order >= 1:
                builders[1][br][br] = builders[1][br][br] + -1.0 * sym
        elif isinstance(e, VCCS):
            m0 = builders[0]
            for out_node, s_out in ((e.n1, 1.0), (e.n2, -1.0)):
                if out_node == GROUND:
                    continue
                ro = rows[out_node]
                for ctl_node, s_ctl in ((e.nc1, 1.0), (e.nc2, -1.0)):
                    if ctl_node == GROUND:
                        continue
                    rc = rows[ctl_node]
                    m0[ro][rc] = m0[ro][rc] + sym * (s_out * s_ctl)
        else:  # pragma: no cover - blocked earlier by symbol_for
            raise PartitionError(f"unsupported symbolic element {e.name!r}")

    rhs = [Poly.zero(space) for _ in range(size)]
    for src in part.sources:
        if isinstance(src, VoltageSource):
            br = aux[src.name]
            one = Poly.one(space)
            m0 = builders[0]
            for node, sign in ((src.n1, 1.0), (src.n2, -1.0)):
                if node != GROUND:
                    r = rows[node]
                    m0[r][br] = m0[r][br] + one * sign
                    m0[br][r] = m0[br][r] + one * sign
            rhs[br] = rhs[br] + src.ac
        elif isinstance(src, CurrentSource):
            if src.n1 != GROUND:
                rhs[rows[src.n1]] = rhs[rows[src.n1]] - src.ac
            if src.n2 != GROUND:
                rhs[rows[src.n2]] = rhs[rows[src.n2]] + src.ac

    # ---- row equilibration -------------------------------------------------
    if equilibrate:
        nominal = space.values_vector({})
        m0_num = PolyMatrix(space, builders[0]).evaluate(nominal)
        scale = np.max(np.abs(m0_num), axis=1)
        scale[scale == 0.0] = 1.0
        inv = 1.0 / scale
        for k in range(order + 1):
            builders[k] = [[entry * inv[i] for entry in builders[k][i]]
                           for i in range(size)]
        rhs = [rhs[i] * inv[i] for i in range(size)]

    matrices = [PolyMatrix(space, b) for b in builders]
    return GlobalSystem(space=space, matrices=tuple(matrices), rhs=tuple(rhs),
                        rows=rows, aux=aux)


class MomentRecursion:
    """Resumable composite moment recursion (paper eq. 13).

    Holds every intermediate of the k-recursion — the factored ``Yg0``
    solver (adjugate + determinant), the determinant power ladder, and all
    global moment vectors ``V0..Vk`` computed so far — so a Padé-order bump
    extends the recursion from ``k = order + 1`` instead of restarting.
    Each ``matrices[k]`` and block-expansion prefix re-assembles
    bit-identically at any higher order, so the extended vectors equal a
    cold run coefficient for coefficient (enforced by tests).
    """

    def __init__(self, part: CircuitPartition, prune_rtol: float = 0.0) -> None:
        self.part = part
        self.space = part.space
        self.prune_rtol = prune_rtol
        self.weights = tuple(max(abs(v), 1e-300)
                             for v in part.space.values_vector({}))
        self.order = -1
        self.system: GlobalSystem | None = None
        self.solver: SymbolicLinearSolver | None = None
        self.det: Poly | None = None
        self.det_pows: list[Poly] | None = None
        self._neg_det_pows: list[Poly] | None = None
        self.vectors: list[list[Poly]] = []

    def extend(self, order: int,
               expansions: Sequence[NumericBlockExpansion] | None = None,
               ) -> "MomentRecursion":
        """Compute moments up to ``order``, reusing everything already done.

        Re-assembles the global system at the new order (the ``s^k``
        matrices are independent per ``k``, so the prefix is unchanged) and
        continues the recursion from the first missing moment.  A no-op
        when ``order`` does not exceed what is already computed.
        """
        if order <= self.order and self.system is not None:
            return self
        space = self.space
        system = assemble_global(self.part, order, expansions=expansions)
        matrices = system.matrices
        size = system.size

        if self.solver is None:
            try:
                self.solver = SymbolicLinearSolver(matrices[0])
            except Exception as exc:
                raise PartitionError(
                    f"global resistive system singular: {exc}") from exc
            self.det = self.solver.det
            self.det_pows = [Poly.one(space), self.det]
            # IEEE negation is exact and distributes over products and
            # sums, so folding the recursion's -1 into the determinant
            # power once keeps every downstream coefficient bit-identical
            # while dropping a scalar pass per (k, j, row).
            self._neg_det_pows = [p * -1.0 for p in self.det_pows]
        solver, det = self.solver, self.det
        det_pows, vectors = self.det_pows, self.vectors
        neg_pows = self._neg_det_pows
        self.system = system

        resume_from = len(vectors)
        with _trace.span("moments.recursion", order=order, size=size,
                         resume_from=resume_from):
            if not vectors:
                n0, _ = solver.solve_poly(list(system.rhs))
                n0 = [_nominal_prune(p, self.weights, self.prune_rtol)
                      for p in n0]
                vectors.append(n0)
            for k in range(len(vectors), order + 1):
                while len(det_pows) <= k:
                    det_pows.append(det_pows[-1] * det)
                    neg_pows.append(det_pows[-1] * -1.0)
                acc = [Poly.zero(space) for _ in range(size)]
                for j in range(1, k + 1):
                    prod = matrices[j].matvec(vectors[k - j])
                    neg_factor = neg_pows[j - 1]
                    for i in range(size):
                        if not prod[i].is_zero():
                            acc[i] = acc[i] + prod[i] * neg_factor
                nk, _ = solver.solve_poly(acc)
                nk = [_nominal_prune(p, self.weights, self.prune_rtol)
                      for p in nk]
                vectors.append(nk)
        self.order = order
        return self

    def moments(self, output: str, order: int | None = None) -> SymbolicMoments:
        """Moments of ``output`` up to ``order`` (default: all computed).

        Raises:
            PartitionError: nothing computed yet, ``order`` exceeds what has
            been computed, or ``output`` is not a preserved global node.
        """
        if self.system is None:
            raise PartitionError("call extend() before moments()")
        if order is None:
            order = self.order
        if order > self.order:
            raise PartitionError(
                f"order {order} not computed yet (have {self.order}); "
                "call extend() first")
        if output not in self.system.rows:
            raise PartitionError(
                f"output {output!r} is not a global node of the partition "
                f"(available: {list(self.part.global_nodes)})")
        row = self.system.rows[output]
        return SymbolicMoments(
            space=self.space, output=output,
            numerators=tuple(v[row] for v in self.vectors[:order + 1]),
            det=self.det, partition=self.part)


def symbolic_moments_multi(part: CircuitPartition, outputs: Sequence[str],
                           order: int,
                           expansions: Sequence[NumericBlockExpansion] | None = None,
                           prune_rtol: float = 0.0,
                           ) -> dict[str, SymbolicMoments]:
    """Symbolic moments for several outputs from *one* composite solve.

    The moment recursion computes the full global vectors ``Vk`` anyway,
    so every preserved node's moments come for free — the natural way to
    model all victims of a bus simultaneously.

    Args/Raises: see :func:`symbolic_moments`; every entry of ``outputs``
    must be a preserved global node.
    """
    for output in outputs:
        if output not in part.global_nodes:
            raise PartitionError(
                f"output {output!r} is not a global node of the partition "
                f"(available: {list(part.global_nodes)})")
    if not outputs:
        raise PartitionError("at least one output is required")
    rec = MomentRecursion(part, prune_rtol=prune_rtol)
    rec.extend(order, expansions=expansions)
    return {output: rec.moments(output) for output in outputs}


def symbolic_moments(part: CircuitPartition, output: str, order: int,
                     expansions: Sequence[NumericBlockExpansion] | None = None,
                     prune_rtol: float = 0.0) -> SymbolicMoments:
    """Run the composite symbolic moment recursion for one output.

    Args:
        part: a :func:`~repro.partition.blocks.partition` result.
        output: observed node (must be one of the partition's global nodes).
        order: highest moment index to compute.
        expansions: pre-computed numeric block expansions (recomputed when
            omitted; pass them to amortize across calls).
        prune_rtol: relative threshold for dropping small terms from the
            polynomial numerators after each recursion step, weighted by
            the nominal symbol values.  Default 0 (keep everything): term
            counts stay small for few-symbol models, and pruning silently
            degrades accuracy far from nominal (a term negligible at
            nominal can dominate at 100x nominal).  Use a nonzero value
            only for many-symbol models whose term counts explode.

    Raises:
        PartitionError: output is not a preserved global node, or the
        global resistive system is symbolically singular.
    """
    return symbolic_moments_multi(part, [output], order,
                                  expansions=expansions,
                                  prune_rtol=prune_rtol)[output]
