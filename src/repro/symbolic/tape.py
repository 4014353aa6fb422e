"""Portable op-tape artifacts: flat, versioned encodings of compiled programs.

A compiled straight-line program (:class:`~repro.symbolic.compile.
CompiledFunction`) exists only as generated Python source plus the
expression DAG it came from.  That is fine inside one process, but it is
a poor *artifact*: shipping it to a worker process means re-hashing and
re-``exec``-ing tens of kilobytes of source per sweep, and persisting it
means trusting arbitrary source text.  The **op tape** is the portable
form: a flat register-machine trace of the same program —

* registers ``[0, n_inputs)`` hold the positional symbol values,
* registers ``[n_inputs, n_inputs + n_consts)`` hold the constant pool,
* op ``i`` writes register ``n_inputs + n_consts + i``;

every op is a ``(opcode, a, b)`` triple over register indices (``b`` is
the integer exponent immediate for ``pow``).  N-ary adds/products are
lowered to left-associative binary chains and small integer powers to
repeated multiplication — exactly the evaluation order of the generated
source — so a tape, the source regenerated *from* the tape, the in-place
ufunc kernel regenerated from the tape, and a native (C / numba) kernel
compiled from the tape all produce **bit-identical** float64 results.

Tapes are versioned (:data:`TAPE_SCHEMA`, rejected on mismatch like
``CACHE_SCHEMA`` cache entries) and content-addressed: the integrity
hash is a SHA-256 over the canonical JSON payload, verified on load, so
a corrupted or tampered artifact is refused rather than executed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Callable, Mapping, Sequence

import numpy as np

from ..errors import ApproximationError, SymbolicError, TapeError
from .compile import (CompiledFunction, _pow_unrolls, _safe_log, _safe_sqrt,
                      runtime_namespace, vector_namespace)
from .cse import topological
from .expr import Expr
from .symbols import Symbol, SymbolSpace

__all__ = [
    "OP_NAMES",
    "SUPPORTED_TAPE_SCHEMAS",
    "TAPE_SCHEMA",
    "OpTape",
    "TapeModel",
    "fuse_moments",
    "load_tape",
    "tape_for",
    "tape_from_json",
    "tape_from_model",
    "tape_from_roots",
]

#: newest artifact schema this build can *write*.  Schema 1 is the plain
#: multi-output program; schema 2 adds the optional ``fused`` section for
#: tapes whose outputs are already det-unscaled moments (see
#: :func:`fuse_moments`).  Unfused tapes still serialize as schema 1, so
#: every pre-existing content hash (cache keys, registry keys, native
#: ``.so`` keys) is unchanged.
TAPE_SCHEMA = 2

#: schema versions loaders accept (mirroring the program cache's
#: ``CACHE_SCHEMA`` compatibility gate — anything else is refused)
SUPPORTED_TAPE_SCHEMAS = (1, 2)

# opcodes (stable wire values — append, never renumber)
OP_ADD = 0
OP_MUL = 1
OP_DIV = 2
OP_POW = 3   # b operand = signed integer exponent immediate
OP_SQRT = 4
OP_EXP = 5
OP_LOG = 6
OP_ABS = 7

OP_NAMES = {
    OP_ADD: "add", OP_MUL: "mul", OP_DIV: "div", OP_POW: "pow",
    OP_SQRT: "sqrt", OP_EXP: "exp", OP_LOG: "log", OP_ABS: "abs",
}

_BINARY = (OP_ADD, OP_MUL, OP_DIV)
_UNARY = {OP_SQRT: "sqrt", OP_EXP: "exp", OP_LOG: "log", OP_ABS: "abs"}
_UNARY_KIND = {"sqrt": OP_SQRT, "exp": OP_EXP, "log": OP_LOG, "abs": OP_ABS}

#: opcodes a native (C / numba) kernel may execute: pure rational
#: arithmetic.  ``sqrt``/``log`` switch to complex arithmetic on negative
#: inputs and ``exp`` may route through SIMD implementations that are not
#: guaranteed bit-identical to libm, so tapes containing them stay on the
#: ufunc kernel.  Moment programs are rational, so the hot path qualifies.
NATIVE_OPS = frozenset((OP_ADD, OP_MUL, OP_DIV, OP_POW))


class OpTape:
    """One compiled program as a flat, self-contained register trace.

    Attributes:
        symbols: ``((name, nominal), ...)`` — the input symbol table.
        consts: float64 constant pool.
        ops: ``(n_ops, 3)`` int64 array of ``(opcode, a, b)`` triples.
        outputs: register index per output.
        output_names: labels parallel to ``outputs``.
        meta: JSON-safe metadata (moment order, element transforms,
            provenance); hashed with the program.
        fused: ``None`` for a plain program tape (schema 1), or
            ``{"moments": K}`` when the first ``K`` outputs are already
            det-unscaled moments ``m_k = n_k / det^(k+1)`` and the last
            output is the determinant (schema 2; see
            :func:`fuse_moments`).
    """

    def __init__(self, symbols: Sequence, consts, ops, outputs: Sequence[int],
                 output_names: Sequence[str], meta: dict | None = None,
                 fused: Mapping | None = None) -> None:
        self.symbols = tuple((str(n), None if v is None else float(v))
                             for n, v in symbols)
        self.consts = np.asarray(consts, dtype=np.float64).reshape(-1)
        self.ops = np.asarray(ops, dtype=np.int64).reshape(-1, 3)
        self.outputs = tuple(int(o) for o in outputs)
        self.output_names = tuple(str(n) for n in output_names)
        self.meta = dict(meta) if meta else {}
        self.fused = dict(fused) if fused else None
        self._hash: str | None = None
        self._validate()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def n_inputs(self) -> int:
        return len(self.symbols)

    @property
    def n_consts(self) -> int:
        return len(self.consts)

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    @property
    def n_registers(self) -> int:
        return self.n_inputs + self.n_consts + self.n_ops

    @property
    def native_eligible(self) -> bool:
        """True when every op is rational arithmetic (see NATIVE_OPS)."""
        return all(int(op) in NATIVE_OPS for op in self.ops[:, 0])

    def _validate(self) -> None:
        base = self.n_inputs + self.n_consts
        if len(self.output_names) != len(self.outputs):
            raise TapeError("op tape output_names do not match outputs")
        for i, (opc, a, b) in enumerate(self.ops):
            opc, a, b = int(opc), int(a), int(b)
            if opc not in OP_NAMES:
                raise TapeError(f"op tape has unknown opcode {opc} at {i}")
            limit = base + i
            if not 0 <= a < limit:
                raise TapeError(
                    f"op tape operand {a} at op {i} is out of range")
            if opc in _BINARY and not 0 <= b < limit:
                raise TapeError(
                    f"op tape operand {b} at op {i} is out of range")
        for o in self.outputs:
            if not 0 <= o < self.n_registers:
                raise TapeError(f"op tape output register {o} out of range")
        if self.fused is not None:
            try:
                n_moments = int(self.fused["moments"])
            except (KeyError, TypeError, ValueError):
                raise TapeError(
                    "fused op tape must declare an integer moment count "
                    f"(got {self.fused!r})") from None
            if n_moments != len(self.outputs) - 1 or n_moments < 1:
                raise TapeError(
                    f"fused op tape declares {n_moments} moments but has "
                    f"{len(self.outputs)} outputs (need moments + det)")

    # ------------------------------------------------------------------
    # content addressing
    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """The canonical JSON-safe body (everything but the integrity hash).

        Unfused tapes serialize as schema 1 — byte-for-byte the format
        this module has always written — so their content hashes (and
        every cache/registry key derived from them) are stable across the
        schema-2 introduction.  Only fused tapes carry the new section.
        """
        body = {
            "schema": 2 if self.fused is not None else 1,
            "symbols": [[n, v] for n, v in self.symbols],
            "consts": [float(c) for c in self.consts],
            "ops": [[int(o), int(a), int(b)] for o, a, b in self.ops],
            "outputs": list(self.outputs),
            "output_names": list(self.output_names),
            "meta": self.meta,
        }
        if self.fused is not None:
            body["fused"] = self.fused
        return body

    @property
    def content_hash(self) -> str:
        """SHA-256 over the canonical payload — the artifact's identity,
        used as cache/registry key exactly like ``ProgramCache.key_for``
        output (and verified on every load)."""
        if self._hash is None:
            canon = json.dumps(self.payload(), sort_keys=True,
                               separators=(",", ":"))
            self._hash = hashlib.sha256(canon.encode()).hexdigest()
        return self._hash

    def to_json(self, indent: int | None = None) -> str:
        body = self.payload()
        body["integrity"] = f"sha256:{self.content_hash}"
        return json.dumps(body, indent=indent, sort_keys=True)

    def save(self, path) -> str:
        """Write the artifact atomically; returns its content hash."""
        path = os.fspath(path)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(self.to_json(indent=2) + "\n")
        os.replace(tmp, path)
        return self.content_hash

    # ------------------------------------------------------------------
    # reference interpreter (slow, always available — the test oracle)
    # ------------------------------------------------------------------
    def evaluate(self, args: Sequence) -> tuple:
        """Interpret the tape positionally; bit-identical to the compiled
        source for scalar and array inputs alike."""
        if len(args) != self.n_inputs:
            raise TapeError(
                f"op tape expects {self.n_inputs} inputs, got {len(args)}")
        base = self.n_inputs + self.n_consts
        regs: list = list(args) + [float(c) for c in self.consts]
        regs += [None] * self.n_ops
        for i, (opc, a, b) in enumerate(self.ops):
            opc, a, b = int(opc), int(a), int(b)
            x = regs[a]
            if opc == OP_ADD:
                v = x + regs[b]
            elif opc == OP_MUL:
                v = x * regs[b]
            elif opc == OP_DIV:
                v = x / regs[b]
            elif opc == OP_POW:
                v = x ** b
            elif opc == OP_SQRT:
                v = _safe_sqrt(x)
            elif opc == OP_EXP:
                v = np.exp(x)
            elif opc == OP_LOG:
                v = _safe_log(x)
            else:
                v = np.abs(x)
            regs[base + i] = v
        return tuple(regs[o] for o in self.outputs)

    # ------------------------------------------------------------------
    # code regeneration (deterministic: one binary assignment per op)
    # ------------------------------------------------------------------
    def _ref(self, r: int) -> str:
        if r < self.n_inputs:
            return f"x{r}"
        if r < self.n_inputs + self.n_consts:
            return f"k{r - self.n_inputs}"
        return f"r{r - self.n_inputs - self.n_consts}"

    def program_source(self, fn_name: str = "_compiled") -> str:
        """Python source evaluating the tape, bit-identical to the original
        ``generate_source`` output (same binary operation order)."""
        ref = self._ref
        lines = [f"    k{j} = {float(c)!r}"
                 for j, c in enumerate(self.consts)]
        for i, (opc, a, b) in enumerate(self.ops):
            opc, a, b = int(opc), int(a), int(b)
            if opc == OP_ADD:
                text = f"{ref(a)} + {ref(b)}"
            elif opc == OP_MUL:
                text = f"{ref(a)}*{ref(b)}"
            elif opc == OP_DIV:
                text = f"{ref(a)} / {ref(b)}"
            elif opc == OP_POW:
                text = f"{ref(a)}**{b}"
            else:
                text = f"_{_UNARY[opc]}({ref(a)})"
            lines.append(f"    r{i} = {text}")
        args = ", ".join(f"x{i}" for i in range(self.n_inputs))
        returns = ", ".join(ref(o) for o in self.outputs)
        body = "\n".join(lines) if lines else "    pass"
        return (f"def {fn_name}({args}):\n{body}\n"
                f"    return ({returns},)\n")

    def kernel_source(self, mask: Sequence[bool],
                      fn_name: str = "_vector") -> tuple[str, int, int]:
        """In-place ufunc kernel source specialized on an array-arg mask.

        Same contract as :func:`~repro.symbolic.compile.
        generate_vector_source` — ``(source, n_ops, n_buffers)`` with
        liveness-recycled float64 buffers — regenerated from the tape
        alone, so worker processes need no DAG roots.
        """
        mask = tuple(bool(b) for b in mask)
        if len(mask) != self.n_inputs:
            raise TapeError(
                f"array mask has {len(mask)} entries for "
                f"{self.n_inputs} inputs")
        base = self.n_inputs + self.n_consts
        n_regs = self.n_registers
        vec = [False] * n_regs
        taint = [False] * n_regs
        for i in range(self.n_inputs):
            vec[i] = mask[i]
        remaining = [0] * n_regs
        for o in self.outputs:
            remaining[o] += 1  # never decremented: outputs stay live
        for i, (opc, a, b) in enumerate(self.ops):
            opc, a, b = int(opc), int(a), int(b)
            r = base + i
            operands = (a, b) if opc in _BINARY else (a,)
            vec[r] = any(vec[p] for p in operands)
            taint[r] = (opc in (OP_SQRT, OP_LOG)
                        or any(taint[p] for p in operands))
            for p in operands:
                remaining[p] += 1

        ref = self._ref
        code: dict[int, str] = {}

        def name_of(r: int) -> str:
            return code.get(r, ref(r))

        buffer_of: dict[int, str] = {}
        pool: list[str] = []
        n_buffers = 0
        lines: list[str] = [f"    k{j} = {float(c)!r}"
                            for j, c in enumerate(self.consts)]

        def acquire() -> str:
            nonlocal n_buffers
            if pool:
                return pool.pop()
            nm = f"b{n_buffers}"
            n_buffers += 1
            return nm

        def consume(operands) -> None:
            for p in operands:
                remaining[p] -= 1
                if remaining[p] == 0:
                    buf = buffer_of.pop(p, None)
                    if buf is not None:
                        pool.append(buf)

        for i, (opc, a, b) in enumerate(self.ops):
            opc, a, b = int(opc), int(a), int(b)
            r = base + i
            operands = (a, b) if opc in _BINARY else (a,)
            if not vec[r] or taint[r]:
                # scalar or complex-capable: plain allocating statement
                if opc == OP_ADD:
                    text = f"{name_of(a)} + {name_of(b)}"
                elif opc == OP_MUL:
                    text = f"{name_of(a)}*{name_of(b)}"
                elif opc == OP_DIV:
                    text = f"{name_of(a)} / {name_of(b)}"
                elif opc == OP_POW:
                    text = f"{name_of(a)}**{b}"
                else:
                    text = f"_{_UNARY[opc]}({name_of(a)})"
                lines.append(f"    r{i} = {text}")
                code[r] = f"r{i}"
                consume(operands)
                continue
            # dtype-stable vector op: in-place ufunc into a recycled buffer
            buf = acquire()
            if opc == OP_ADD:
                lines.append(f"    _np_add({name_of(a)}, {name_of(b)}, "
                             f"out={buf})")
            elif opc == OP_MUL:
                lines.append(f"    _np_mul({name_of(a)}, {name_of(b)}, "
                             f"out={buf})")
            elif opc == OP_DIV:
                lines.append(f"    _np_div({name_of(a)}, {name_of(b)}, "
                             f"out={buf})")
            elif opc == OP_POW:
                lines.append(f"    _np_pow({name_of(a)}, {b}, out={buf})")
            else:
                lines.append(f"    _{_UNARY[opc]}({name_of(a)}, out={buf})")
            buffer_of[r] = buf
            code[r] = buf
            consume(operands)

        args = ", ".join(f"x{i}" for i in range(self.n_inputs))
        returns = ", ".join(name_of(o) for o in self.outputs)
        alloc = [f"    b{i} = _empty(_n)" for i in range(n_buffers)]
        body = alloc + (lines if lines else ["    pass"])
        source = (f"def {fn_name}({args}, *, _n):\n"
                  + "\n".join(body) + "\n"
                  f"    return ({returns},)\n")
        return source, self.n_ops, n_buffers

    def build_function(self) -> CompiledFunction:
        """Rebuild an executable :class:`CompiledFunction` from the tape.

        The function carries ``tape=self`` instead of DAG roots, so its
        vector (and native) kernels regenerate from the tape on demand.
        """
        space = SymbolSpace([Symbol(n, nominal=v) for n, v in self.symbols])
        source = self.program_source()
        namespace = runtime_namespace()
        exec(compile(source, "<awesymbolic-tape>", "exec"), namespace)
        fn = CompiledFunction(space, source, namespace["_compiled"],
                              self.n_ops, self.output_names)
        fn.tape = self
        fn.moments_fused = self.fused is not None
        return fn

    def build_kernel(self, mask: Sequence[bool]):
        """Exec the ufunc kernel for ``mask`` (mostly for tests)."""
        source, _n_ops, _n_buffers = self.kernel_source(mask)
        namespace = vector_namespace()
        exec(compile(source, "<awesymbolic-tape-vector>", "exec"), namespace)
        return namespace["_vector"]

    def __repr__(self) -> str:
        kind = "fused, " if self.fused is not None else ""
        return (f"OpTape({kind}{len(self.outputs)} outputs, {self.n_ops} "
                f"ops, {self.n_inputs} inputs, {self.n_consts} consts, "
                f"sha256:{self.content_hash[:12]})")


# ----------------------------------------------------------------------
# building tapes
# ----------------------------------------------------------------------
def tape_from_roots(space: SymbolSpace, roots: Sequence[Expr],
                    output_names: Sequence[str] | None = None,
                    meta: dict | None = None) -> OpTape:
    """Lower expression DAG roots to an op tape.

    The lowering mirrors :func:`~repro.symbolic.compile.generate_source`
    exactly: n-ary ``add``/``mul`` become left-associative binary chains,
    integer powers 2..4 become repeated multiplication, everything else
    is one op — so evaluating the tape is bit-identical to evaluating
    the generated source.
    """
    roots = list(roots)
    order = topological(roots)
    n_inputs = len(space)
    sym_pos = {s.name: i for i, s in enumerate(space.symbols)}

    consts: list[float] = []
    const_slot: dict[bytes, int] = {}
    for node in order:
        if node.kind == "const":
            value = node.payload
            if isinstance(value, complex):
                raise TapeError(
                    "op tapes encode real-valued programs; got a complex "
                    f"constant {value!r}")
            key = np.float64(value).tobytes()
            if key not in const_slot:
                const_slot[key] = len(consts)
                consts.append(float(value))

    base = n_inputs + len(consts)
    ops: list[tuple[int, int, int]] = []
    reg: dict[int, int] = {}

    def emit(opcode: int, a: int, b: int = 0) -> int:
        ops.append((opcode, a, b))
        return base + len(ops) - 1

    for node in order:
        kind = node.kind
        if kind == "const":
            reg[id(node)] = (n_inputs
                             + const_slot[np.float64(node.payload).tobytes()])
        elif kind == "sym":
            try:
                reg[id(node)] = sym_pos[node.payload]
            except KeyError:
                raise SymbolicError(
                    f"expression references symbol {node.payload!r} "
                    f"outside the space {space.names}") from None
        elif kind in ("add", "mul"):
            opc = OP_ADD if kind == "add" else OP_MUL
            acc = reg[id(node.children[0])]
            for child in node.children[1:]:
                acc = emit(opc, acc, reg[id(child)])
            reg[id(node)] = acc
        elif kind == "div":
            a, b = node.children
            reg[id(node)] = emit(OP_DIV, reg[id(a)], reg[id(b)])
        elif kind == "pow":
            exponent = node.payload
            if not isinstance(exponent, int):
                raise TapeError(
                    f"op tapes require integer pow exponents, "
                    f"got {exponent!r}")
            b_reg = reg[id(node.children[0])]
            if _pow_unrolls(exponent):
                acc = emit(OP_MUL, b_reg, b_reg)
                for _ in range(exponent - 2):
                    acc = emit(OP_MUL, acc, b_reg)
                reg[id(node)] = acc
            else:
                reg[id(node)] = emit(OP_POW, b_reg, exponent)
        elif kind in _UNARY_KIND:
            reg[id(node)] = emit(_UNARY_KIND[kind],
                                 reg[id(node.children[0])])
        else:
            raise TapeError(f"cannot encode node kind {kind!r} on an op tape")

    names = (tuple(output_names) if output_names is not None
             else tuple(f"out{i}" for i in range(len(roots))))
    return OpTape(
        symbols=[(s.name, None if s.nominal is None else float(s.nominal))
                 for s in space.symbols],
        consts=consts, ops=ops,
        outputs=[reg[id(r)] for r in roots],
        output_names=names, meta=meta)


def tape_for(fn: CompiledFunction) -> OpTape:
    """The (cached) op tape of a compiled function.

    Functions built by :meth:`OpTape.build_function` already carry their
    tape; functions compiled from DAG roots get one lowered and memoized
    on first use — later sweeps reuse it without re-hashing anything.
    """
    tape = getattr(fn, "tape", None)
    if tape is None:
        if not fn.roots:
            raise TapeError(
                "cannot build an op tape without expression roots")
        tape = tape_from_roots(fn.space, fn.roots, fn.output_names)
        fn.tape = tape
    return tape


def fuse_moments(tape: OpTape) -> OpTape:
    """Fuse the det-unscaling ladder into a moment tape (schema 2).

    A moment tape's outputs are the raw numerators ``n_0 .. n_K`` plus
    the shared determinant; every consumer then divides on the Python
    side: ``m_k = n_k / det^(k+1)``.  This appends that ladder to the
    tape itself —

    ==========  =================================
    ``m_0``     ``div(n_0, det)``
    ``s_1``     ``mul(det, det)``
    ``m_1``     ``div(n_1, s_1)``
    ``s_k``     ``mul(s_{k-1}, det)``  (k >= 2)
    ``m_k``     ``div(n_k, s_k)``
    ==========  =================================

    — so one register-machine pass (one ufunc kernel, one native loop)
    emits the finished moments.  The ladder performs exactly the IEEE
    operations of the batched unscaling loop (``scale = det``;
    ``scale = scale * det`` per step; one division per moment), so fused
    outputs are bit-identical to the unfused path at every non-singular
    point.  At singular points (``det == 0``) the divisions produce
    infs/NaNs under array semantics — callers mask those columns to NaN,
    matching the unfused path's ``safe_det`` behavior — and raise
    ``ZeroDivisionError`` under pure-Python scalar evaluation.

    The fused tape keeps every original op (the numerator registers are
    shared subexpressions of the ladder, preserving cross-output CSE)
    and the original metadata; outputs become ``m0 .. mK, det``.
    """
    if tape.fused is not None:
        return tape
    if len(tape.outputs) < 2:
        raise TapeError(
            "fusing needs at least one numerator output plus the "
            f"determinant; tape has {len(tape.outputs)} outputs")
    base = tape.n_inputs + tape.n_consts
    ops = [(int(o), int(a), int(b)) for o, a, b in tape.ops]
    det = tape.outputs[-1]
    numerators = tape.outputs[:-1]

    def emit(opcode: int, a: int, b: int) -> int:
        ops.append((opcode, a, b))
        return base + len(ops) - 1

    outputs = []
    scale = det
    for k, num in enumerate(numerators):
        if k > 0:
            scale = emit(OP_MUL, scale, det)
        outputs.append(emit(OP_DIV, num, scale))
    outputs.append(det)
    names = tuple(f"m{k}" for k in range(len(numerators))) + ("det",)
    return OpTape(tape.symbols, tape.consts, ops, outputs, names,
                  meta=tape.meta, fused={"moments": len(numerators)})


def _transform_name(transform) -> str:
    """Recover the serializable name of an element-value transform by
    probing it (transforms are pure scalar maps — see
    :data:`repro.core.serialize._TRANSFORMS`)."""
    from ..core.serialize import _TRANSFORMS
    for name, known in _TRANSFORMS.items():
        if transform is known:
            return name
    try:
        if transform(2.0) == 2.0 and transform(0.25) == 0.25:
            return "identity"
        if transform(2.0) == 0.5 and transform(0.25) == 4.0:
            return "inverse"
    except Exception:
        pass
    raise TapeError(
        f"cannot serialize element transform {transform!r} onto an op tape")


def tape_from_model(model, title: str | None = None, *,
                    fused: bool = False) -> OpTape:
    """Lower a compiled model's moment program to a *model* tape.

    Accepts an ``AWESymbolicResult``, a ``CompiledAWEModel``, a
    ``LoadedModel``, or a ``TapeModel``; the result carries everything a
    :class:`TapeModel` needs to evaluate and sweep — moment order, Padé
    order, output node, and the element→symbol slot table.

    With ``fused=True`` the returned tape is the schema-2 fused form
    (:func:`fuse_moments`): its outputs are finished moments plus the
    determinant, evaluated in one register-machine pass.
    """
    inner = getattr(model, "model", model)  # AWESymbolicResult -> model
    existing = getattr(inner, "tape", None)
    if isinstance(existing, OpTape):
        if fused and existing.fused is None:
            return fuse_moments(existing)
        return existing
    cm = inner.compiled_moments
    fn = cm.fn
    elements = []
    for name, (pos, transform) in inner.element_slots.items():
        elements.append([str(name), int(pos), _transform_name(transform)])
    if title is None:
        title = getattr(inner, "title", None)
        if title is None:  # AWESymbolicResult: title lives on the circuit
            partition = getattr(model, "partition", None)
            title = getattr(getattr(partition, "circuit", None), "title", "")
    output = getattr(inner, "output", None)
    if output is None:  # AWESymbolicResult: output lives on the moments
        output = getattr(getattr(model, "moments", None), "output", "")
    meta = {
        "kind": "awesymbolic-moments",
        "title": str(title),
        "output": str(output),
        "order": int(inner.order),
        "moment_order": int(cm.order),
        "elements": elements,
    }
    tape = tape_for(fn)
    if tape.meta != meta:
        tape = OpTape(tape.symbols, tape.consts, tape.ops, tape.outputs,
                      tape.output_names, meta=meta, fused=tape.fused)
    if fused and tape.fused is None:
        tape = fuse_moments(tape)
    return tape


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def tape_from_dict(data) -> OpTape:
    """Rebuild and verify a tape from its JSON payload.

    Raises:
        TapeError: wrong schema version, integrity mismatch, or any
            structural defect — a bad artifact is refused, never run.
    """
    if not isinstance(data, dict):
        raise TapeError("op tape artifact must be a JSON object")
    schema = data.get("schema")
    if schema not in SUPPORTED_TAPE_SCHEMAS:
        supported = "-".join(str(s) for s in
                             (SUPPORTED_TAPE_SCHEMAS[0],
                              SUPPORTED_TAPE_SCHEMAS[-1]))
        raise TapeError(
            f"unsupported op-tape schema {schema!r} "
            f"(this build reads schemas {supported})")
    fused = data.get("fused")
    if schema == 1 and fused is not None:
        raise TapeError(
            "schema-1 op tape carries a fused section; fused tapes are "
            "schema 2 — artifact is corrupt or mislabeled")
    if schema == 2 and fused is None:
        raise TapeError(
            "schema-2 op tape is missing its fused section; plain "
            "program tapes are schema 1 — artifact is corrupt or "
            "mislabeled")
    declared = data.get("integrity")
    try:
        tape = OpTape(symbols=[(n, v) for n, v in data["symbols"]],
                      consts=data["consts"], ops=data["ops"],
                      outputs=data["outputs"],
                      output_names=data["output_names"],
                      meta=data.get("meta") or {}, fused=fused)
    except TapeError:
        raise
    except Exception as exc:
        raise TapeError(f"malformed op tape artifact: {exc}") from exc
    if declared is not None:
        if declared != f"sha256:{tape.content_hash}":
            raise TapeError(
                "op tape integrity mismatch: artifact is corrupt or was "
                f"modified (declared {declared!r}, "
                f"computed sha256:{tape.content_hash})")
    return tape


def tape_from_json(text: str) -> OpTape:
    try:
        data = json.loads(text)
    except Exception as exc:
        raise TapeError(f"op tape artifact is not valid JSON: {exc}") from exc
    return tape_from_dict(data)


def load_tape(path) -> OpTape:
    """Load and verify a ``.tape`` artifact from disk."""
    try:
        text = open(os.fspath(path)).read()
    except OSError as exc:
        raise TapeError(f"cannot read op tape {path}: {exc}") from exc
    return tape_from_json(text)


# ----------------------------------------------------------------------
# evaluatable model over a tape
# ----------------------------------------------------------------------
class TapeModel:
    """A sweep-ready model rebuilt from a *model* tape.

    The tape-borne twin of :class:`~repro.core.serialize.LoadedModel`:
    exposes ``compiled_moments`` / ``element_slots`` / ``order`` /
    ``sweep`` so it is a full citizen of the batched runtime and the
    serving registry, with zero compilation on load — the program is
    ``exec``'d straight off the tape.
    """

    def __init__(self, tape: OpTape) -> None:
        from ..core.serialize import _TRANSFORMS
        from ..partition.composite import CompiledMoments

        meta = tape.meta
        if meta.get("kind") != "awesymbolic-moments":
            raise TapeError(
                "this op tape is a bare program, not a model artifact "
                "(missing awesymbolic-moments metadata); build it with "
                "tape_from_model or `repro compile --emit-tape`")
        self.tape = tape
        self.title = str(meta.get("title", ""))
        self.output = str(meta.get("output", ""))
        self.order = int(meta.get("order", 1))
        t0 = time.perf_counter()
        fn = tape.build_function()
        moment_order = int(meta.get("moment_order",
                                    len(tape.outputs) - 2))
        self.compiled_moments = CompiledMoments(fn=fn, order=moment_order)
        self.compile_seconds = time.perf_counter() - t0
        self.space = fn.space
        slots: dict[str, tuple] = {}
        for entry in meta.get("elements", []):
            name, pos, tname = entry
            try:
                transform = _TRANSFORMS[tname]
            except KeyError:
                raise TapeError(
                    f"op tape names unknown transform {tname!r}") from None
            slots[str(name)] = (int(pos), transform)
        self.element_slots = slots

    @property
    def n_ops(self) -> int:
        return self.tape.n_ops

    @property
    def key(self) -> str:
        return self.tape.content_hash

    def _values_vector(self, element_values: Mapping[str, float] | None,
                       ) -> list[float]:
        vec = [float(s.nominal) for s in self.space.symbols]
        for name, value in (element_values or {}).items():
            try:
                pos, transform = self.element_slots[name]
            except KeyError:
                raise ApproximationError(
                    f"{name!r} is not a symbolic element of this "
                    "model") from None
            vec[pos] = transform(float(value))
        return vec

    def moments_at(self, element_values: Mapping[str, float] | None = None,
                   ) -> np.ndarray:
        """Transfer-function moments at one operating point (scalar path,
        same numerator/det unscaling as the batched evaluator)."""
        vec = self._values_vector(element_values)
        if self.tape.fused is not None:
            # fused tape: outputs are already m_k = n_k / det^(k+1); a
            # singular point divides by zero inside the program itself
            try:
                raw = self.compiled_moments.fn(vec)
            except ZeroDivisionError:
                raise ApproximationError(
                    "model singular at this point") from None
            if raw[-1] == 0.0:  # array-semantics inputs: inf/nan, no raise
                raise ApproximationError("model singular at this point")
            return np.array(raw[:-1])
        raw = self.compiled_moments.fn(vec)
        det = raw[-1]
        if det == 0.0:
            raise ApproximationError("model singular at this point")
        out = []
        scale = 1.0
        for num in raw[:-1]:
            scale *= det
            out.append(num / scale)
        return np.array(out)

    def rom(self, element_values: Mapping[str, float] | None = None,
            order: int | None = None, require_stable: bool = True):
        """Reduced-order model at one operating point — the serving
        layer's degraded path calls this with ``order=1``."""
        from ..awe.stability import rom_from_moments  # lazy: avoids cycle

        q = self.order if order is None else order
        moments = self.moments_at(element_values)
        if len(moments) < 2 * q:
            raise ApproximationError(
                f"tape model has {len(moments)} moments; order {q} "
                f"needs {2 * q}")
        return rom_from_moments(list(moments), q,
                                require_stable=require_stable)

    def sweep(self, grids: Mapping[str, np.ndarray],
              metric: Callable, order: int | None = None,
              require_stable: bool = True, *,
              shards: int | None = None,
              max_workers: int | None = None,
              stats=None, strict: bool = False, resilience=None,
              backend: str | None = None, cancel=None,
              chunk_points: int | None = None):
        """Batched metric sweep — same contract as
        :meth:`~repro.core.compiled_model.CompiledAWEModel.sweep`,
        streamed through cache-resident chunks of ``chunk_points`` points
        (token or not)."""
        from ..runtime.batched import batched_sweep  # lazy: avoids cycle

        return batched_sweep(self, grids, metric, order=order,
                             require_stable=require_stable, shards=shards,
                             max_workers=max_workers, stats=stats,
                             strict=strict, resilience=resilience,
                             backend=backend, cancel=cancel,
                             chunk_points=chunk_points)

    def __repr__(self) -> str:
        return (f"TapeModel({self.title!r}, output={self.output!r}, "
                f"order={self.order}, {self.tape.n_ops} ops)")
