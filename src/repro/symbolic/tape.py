"""Op tapes: the one lowering of every compiled program.

:func:`~repro.symbolic.compile.lower_exprs` lowers the post-CSE
expression DAG exactly once, to an **op tape** — a flat register-machine
trace of the program:

* registers ``[0, n_inputs)`` hold the positional symbol values,
* registers ``[n_inputs, n_inputs + n_consts)`` hold the constant pool,
* op ``i`` writes register ``n_inputs + n_consts + i``;

every op is a ``(opcode, a, b)`` triple over register indices (``b`` is
the integer exponent immediate for ``pow``).  N-ary adds/products are
lowered to left-associative binary chains and small integer powers to
repeated multiplication.  Everything that evaluates a program is
generated from the tape alone: the scalar Python program
(:meth:`OpTape.program_source`), the in-place ufunc kernels
(:meth:`OpTape.kernel_source`), the native C kernel
(:mod:`repro.runtime.native`) and the profiler's instrumented program
(:meth:`OpTape.instrumented_source`).  Each performs the tape's IEEE
operations in the tape's grouping, so all of them — and the reference
interpreter :meth:`OpTape.evaluate` — produce **bit-identical** float64
results, in this process or any other.  The expression builder orders
operands by content (:func:`repro.symbolic.expr.content_key`), so the
same expressions lower to the same tape in every process.

A compiled model has one program: its *moment tape*, the lowered
numerators and determinant followed by the unscaling ladder
(:func:`fuse_moments`, schema 2).

Tapes are also the portable artifact.  They are versioned
(:data:`TAPE_SCHEMA`, rejected on mismatch like ``CACHE_SCHEMA`` cache
entries) and content-addressed: the integrity hash is a SHA-256 over the
canonical JSON payload, verified on load, so a corrupted or tampered
artifact is refused rather than executed.

This module is the IR only: the tape, its lowerings and its loading.
The model that evaluates a *model tape*,
:class:`~repro.core.compiled_model.TapeModel`, lives with the compiled
model it generalizes and stays importable from here.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Mapping, Sequence

import numpy as np

from ..errors import SymbolicError, TapeError
from .compile import (CompiledFunction, _pow_unrolls, _safe_log, _safe_sqrt,
                      runtime_namespace)
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
#: multi-output program (closed forms, sensitivities); schema 2 adds the
#: ``fused`` section of a moment program, whose outputs are already
#: det-unscaled moments (see :func:`fuse_moments`).  Every compiled
#: moment program, and so every model tape, is schema 2; schema-1 model
#: tapes written by older builds still load and are fused at load.
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

#: opcodes the native C kernel may execute: pure rational
#: arithmetic.  ``sqrt``/``log`` switch to complex arithmetic on negative
#: inputs and ``exp`` may route through SIMD implementations that are not
#: guaranteed bit-identical to libm, so tapes containing them stay on the
#: ufunc kernel.  Moment programs are rational, so the hot path qualifies.
NATIVE_OPS = frozenset((OP_ADD, OP_MUL, OP_DIV, OP_POW))

_UFUNC = {OP_ADD: "_np_add", OP_MUL: "_np_mul", OP_DIV: "_np_div"}

#: constants pool by their float64 bit pattern (keeps 0.0 and -0.0 apart)
_F64 = struct.Struct("=d")

# precedence of a generated Python operand, loosest first: an operand
# binding looser than its slot needs is parenthesized
_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = range(5)


def _infix(opc: int, a: int, b: int, text: list, prec: list,
           ) -> tuple[str, int]:
    """Python expression of one op over operand texts, and its precedence.

    Parentheses follow Python's precedence and left associativity, so the
    expression keeps the tape's binary grouping: ``a + (b + c)`` stays
    grouped, ``(a*b)*c`` renders as ``a*b*c``, and a negative literal
    base renders as ``(-2.0)**3``.
    """
    if opc == OP_ADD:
        tb = text[b]
        if prec[b] <= _P_ADD:
            tb = f"({tb})"
        return f"{text[a]} + {tb}", _P_ADD
    ta = text[a]
    if opc == OP_MUL or opc == OP_DIV:
        tb = text[b]
        if prec[a] < _P_MUL:
            ta = f"({ta})"
        if prec[b] <= _P_MUL:
            tb = f"({tb})"
        return (f"{ta}*{tb}" if opc == OP_MUL else f"{ta} / {tb}"), _P_MUL
    if opc == OP_POW:
        if prec[a] < _P_ATOM:
            ta = f"({ta})"
        return f"{ta}**{b}", _P_POW
    return f"_{_UNARY[opc]}({ta})", _P_ATOM


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
        return bool(np.isin(self.ops[:, 0], list(NATIVE_OPS)).all())

    def _validate(self) -> None:
        base = self.n_inputs + self.n_consts
        if len(self.output_names) != len(self.outputs):
            raise TapeError("op tape output_names do not match outputs")
        opc, a, b = self.ops.T
        limit = base + np.arange(len(self.ops))
        bad_op = ~np.isin(opc, list(OP_NAMES))
        bad_a = (a < 0) | (a >= limit)
        bad_b = np.isin(opc, _BINARY) & ((b < 0) | (b >= limit))
        bad = bad_op | bad_a | bad_b
        if bad.any():
            i = int(np.argmax(bad))
            if bad_op[i]:
                raise TapeError(
                    f"op tape has unknown opcode {int(opc[i])} at {i}")
            operand = int(a[i] if bad_a[i] else b[i])
            raise TapeError(
                f"op tape operand {operand} at op {i} is out of range")
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

    def _reads(self) -> list[int]:
        """Per-register read count: operand reads plus output references."""
        n = self.n_registers
        binary = np.isin(self.ops[:, 0], _BINARY)
        reads = (np.bincount(self.ops[:, 1], minlength=n)
                 + np.bincount(self.ops[binary, 2], minlength=n)
                 + np.bincount(np.asarray(self.outputs, dtype=np.int64),
                               minlength=n))
        return reads.tolist()

    def _triples(self):
        """The ops as ``(opcode, a, b)`` Python ints, one shared tuple at a
        time (``ops.tolist()`` would allocate a list per op)."""
        return zip(*self.ops.T.tolist())

    def _leaves(self) -> tuple[list[str], list[int]]:
        """Operand texts and precedences of the input and constant
        registers: ``x0, x1, ...`` and the constants as exact literals."""
        consts = list(map(repr, self.consts.tolist()))
        text = [f"x{i}" for i in range(self.n_inputs)] + consts
        prec = [_P_ATOM] * self.n_inputs + [
            _P_NEG if c[0] == "-" else _P_ATOM for c in consts]
        return text, prec

    # ------------------------------------------------------------------
    # content addressing
    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """The canonical JSON-safe body (everything but the integrity hash).

        Plain programs serialize as schema 1 — byte-for-byte the format
        this module has always written — so their content hashes are
        stable.  Only fused moment programs carry the schema-2 section.
        """
        body = {
            "schema": 2 if self.fused is not None else 1,
            "symbols": [[n, v] for n, v in self.symbols],
            "consts": self.consts.tolist(),
            "ops": self.ops.tolist(),
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

    def to_dict(self) -> dict:
        """The artifact as a JSON-safe dict: :meth:`payload` plus its
        integrity hash (what :func:`tape_from_dict` loads)."""
        body = self.payload()
        body["integrity"] = f"sha256:{self.content_hash}"
        return body

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

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
        regs: list = list(args) + self.consts.tolist()
        for opc, a, b in self._triples():
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
            regs.append(v)
        return tuple(regs[o] for o in self.outputs)

    # ------------------------------------------------------------------
    # code generation: every evaluator of a program comes from here
    # ------------------------------------------------------------------
    def program_source(self, fn_name: str = "_compiled") -> str:
        """Python source evaluating the tape, bit-identical to
        :meth:`evaluate`.

        A register read exactly once is inlined into its reader and
        constants are inlined as literals, parenthesized by precedence so
        every expression keeps the tape's binary grouping; every other
        register becomes a temporary ``t0, t1, ...``.  The program is
        therefore as short as the DAG it came from (one statement per
        shared subexpression) and performs the tape's operations exactly.
        """
        reads = self._reads()
        text, prec = self._leaves()
        lines: list[str] = []
        for opc, a, b in self._triples():
            expr, p = _infix(opc, a, b, text, prec)
            if reads[len(text)] != 1:
                name = f"t{len(lines)}"
                lines.append(f"    {name} = {expr}")
                expr, p = name, _P_ATOM
            text.append(expr)
            prec.append(p)
        args = ", ".join(f"x{i}" for i in range(self.n_inputs))
        returns = ", ".join(text[o] for o in self.outputs)
        body = "\n".join(lines) if lines else "    pass"
        return (f"def {fn_name}({args}):\n{body}\n"
                f"    return ({returns},)\n")

    def kernel_source(self, mask: Sequence[bool],
                      fn_name: str = "_vector") -> tuple[str, int, int]:
        """In-place ufunc kernel source specialized on an array-arg mask.

        ``mask[i]`` flags whether input ``i`` arrives as a flat ``(n,)``
        float64 column (True) or a scalar (False).  Returns ``(source,
        n_ops, n_buffers)``.

        Each batch-varying, dtype-stable op is one ufunc call writing
        into a float64 buffer (``_np_add(x0, b1, out=b2)``).  A buffer
        returns to the pool once the last reader of its register has run;
        output buffers are never recycled.  An op writes into the buffer
        of an operand that dies at that op (``_np_add(b1, x0, out=b1)``),
        which keeps the fewest buffers live.  Ops with no array input
        below them stay plain scalar statements, and ops with
        ``sqrt``/``log`` below them are allocating statements (their
        dtype is data-dependent, so a float64 buffer cannot hold them).
        The kernel performs the tape's IEEE operations in the tape's
        order, bit-identical to :meth:`program_source`.
        """
        mask = tuple(bool(m) for m in mask)
        if len(mask) != self.n_inputs:
            raise TapeError(
                f"array mask has {len(mask)} entries for "
                f"{self.n_inputs} inputs")
        base = self.n_inputs + self.n_consts
        remaining = self._reads()
        vec = list(mask) + [False] * (self.n_consts + self.n_ops)
        taint = [False] * self.n_registers
        text, prec = self._leaves()
        buffer_of: dict[int, str] = {}
        pool: list[str] = []
        n_buffers = 0
        lines: list[str] = []
        for i, (opc, a, b) in enumerate(self._triples()):
            r = base + i
            operands = (a, b) if opc in _BINARY else (a,)
            vec[r] = any(vec[p] for p in operands)
            taint[r] = (opc in (OP_SQRT, OP_LOG)
                        or any(taint[p] for p in operands))
            if not vec[r] or taint[r]:
                lines.append(f"    r{i} = {_infix(opc, a, b, text, prec)[0]}")
                text.append(f"r{i}")
            else:
                buf = None
                for p in operands:
                    if p in buffer_of and remaining[p] == operands.count(p):
                        buf = buffer_of.pop(p)
                        break
                if buf is None:
                    if pool:
                        buf = pool.pop()
                    else:
                        buf = f"b{n_buffers}"
                        n_buffers += 1
                if opc in _BINARY:
                    call = f"{_UFUNC[opc]}({text[a]}, {text[b]}, out={buf})"
                elif opc == OP_POW:
                    call = f"_np_pow({text[a]}, {b}, out={buf})"
                else:
                    call = f"_{_UNARY[opc]}({text[a]}, out={buf})"
                lines.append(f"    {call}")
                buffer_of[r] = buf
                text.append(buf)
            prec.append(_P_ATOM)
            for p in operands:
                remaining[p] -= 1
                if remaining[p] == 0 and p in buffer_of:
                    pool.append(buffer_of.pop(p))
        args = ", ".join(f"x{i}" for i in range(self.n_inputs))
        returns = ", ".join(text[o] for o in self.outputs)
        alloc = [f"    b{i} = _empty(_n)" for i in range(n_buffers)]
        body = alloc + (lines if lines else ["    pass"])
        source = (f"def {fn_name}({args}, *, _n):\n"
                  + "\n".join(body) + "\n"
                  f"    return ({returns},)\n")
        return source, self.n_ops, n_buffers

    def instrumented_source(self, fn_name: str = "_profiled",
                            ) -> tuple[str, list[dict]]:
        """The op profiler's program: one statement per tape op, each
        followed by a timestamp write (``_rec[i + 1] = _t()``).

        Returns ``(source, labels)`` with one label per op: ``{"kind",
        "expr", "ops"}``, where ``expr`` is the op's provenance rendered
        over the symbol names and ``ops`` is 1, so the labels' ops sum to
        :attr:`n_ops`.
        """
        base = self.n_inputs + self.n_consts
        ops = self.ops.tolist()
        text, prec = self._leaves()
        lines = ["    _rec[0] = _t()"]
        labels: list[dict] = []
        for i, (opc, a, b) in enumerate(ops):
            lines.append(f"    r{i} = {_infix(opc, a, b, text, prec)[0]}")
            lines.append(f"    _rec[{i + 1}] = _t()")
            text.append(f"r{i}")
            prec.append(_P_ATOM)
            labels.append({"kind": OP_NAMES[opc],
                           "expr": self._provenance(base + i, ops),
                           "ops": 1})
        args = "".join(f"x{i}, " for i in range(self.n_inputs))
        returns = ", ".join(text[o] for o in self.outputs)
        source = (f"def {fn_name}({args}*, _rec):\n"
                  + "\n".join(lines) + "\n"
                  f"    return ({returns},)\n")
        return source, labels

    def _provenance(self, r: int, ops: list, depth: int = 3,
                    max_len: int = 60) -> str:
        """Short rendering of the expression register ``r`` computes.

        A left-associated chain of adds (or products) renders as one
        n-ary level, as the DAG node it was lowered from."""
        base = self.n_inputs + self.n_consts

        def kind(p: int) -> int | None:
            return ops[p - base][0] if p >= base else None

        def go(r: int, depth: int) -> str:
            if r < self.n_inputs:
                return self.symbols[r][0]
            if r < base:
                return f"{self.consts[r - self.n_inputs]:.4g}"
            if depth <= 0:
                return "..."
            opc, a, b = ops[r - base]
            if opc in (OP_ADD, OP_MUL):
                terms = [go(a, depth if kind(a) == opc else depth - 1),
                         go(b, depth - 1)]
                if opc == OP_ADD:
                    return " + ".join(terms)
                if kind(b) == OP_ADD:
                    terms[1] = f"({terms[1]})"
                if kind(a) == OP_ADD:
                    terms[0] = f"({terms[0]})"
                return "*".join(terms)
            if opc == OP_DIV:
                return f"({go(a, depth - 1)})/({go(b, depth - 1)})"
            if opc == OP_POW:
                return f"({go(a, depth - 1)})**{b}"
            return f"{_UNARY[opc]}({go(a, depth - 1)})"

        text = go(r, depth)
        if len(text) > max_len:
            text = text[:max_len - 3] + "..."
        return text

    def build_function(self, space: SymbolSpace | None = None,
                       ) -> CompiledFunction:
        """Exec the tape's program into a :class:`CompiledFunction`.

        ``space`` is the caller's symbol space (the compiler passes its
        own); by default it is rebuilt from the tape's symbol table.
        """
        if space is None:
            space = SymbolSpace([Symbol(n, nominal=v)
                                 for n, v in self.symbols])
        source = self.program_source()
        namespace = runtime_namespace()
        exec(compile(source, "<awesymbolic-compiled>", "exec"), namespace)
        return CompiledFunction(space, self, source, namespace["_compiled"])

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
    """Lower expression DAG roots to an op tape — the compiler's only
    lowering of a DAG.

    N-ary ``add``/``mul`` become left-associative binary chains, integer
    powers ``2.._POW_UNROLL_MAX`` (12) become repeated multiplication,
    everything else is one op; constants are pooled by their bit
    pattern.
    """
    roots = list(roots)
    order = topological(roots)
    n_inputs = len(space)
    sym_pos = {s.name: i for i, s in enumerate(space.symbols)}

    consts: list[float] = []
    const_slot: dict[bytes, int] = {}
    reg: dict[int, int] = {}
    for node in order:
        if node.kind == "const":
            value = node.payload
            if isinstance(value, complex):
                raise TapeError(
                    "op tapes encode real-valued programs; got a complex "
                    f"constant {value!r}")
            key = _F64.pack(value)
            slot = const_slot.get(key)
            if slot is None:
                slot = const_slot[key] = len(consts)
                consts.append(float(value))
            reg[id(node)] = n_inputs + slot

    ops: list[int] = []  # flat (opcode, a, b) triples
    out = n_inputs + len(consts) - 1  # register of the last op emitted
    for node in order:
        kind = node.kind
        if kind == "const":
            continue
        if kind == "sym":
            try:
                reg[id(node)] = sym_pos[node.payload]
            except KeyError:
                raise SymbolicError(
                    f"expression references symbol {node.payload!r} "
                    f"outside the space {space.names}") from None
            continue
        if kind in ("add", "mul"):
            opc = OP_ADD if kind == "add" else OP_MUL
            children = node.children
            acc = reg[id(children[0])]
            for child in children[1:]:
                ops += (opc, acc, reg[id(child)])
                out += 1
                acc = out
            reg[id(node)] = acc
            continue
        if kind == "div":
            a, b = node.children
            ops += (OP_DIV, reg[id(a)], reg[id(b)])
            out += 1
        elif kind == "pow":
            exponent = node.payload
            if not isinstance(exponent, int):
                raise TapeError(
                    f"op tapes require integer pow exponents, "
                    f"got {exponent!r}")
            b_reg = reg[id(node.children[0])]
            if _pow_unrolls(exponent):
                ops += (OP_MUL, b_reg, b_reg)
                out += 1
                for _ in range(exponent - 2):
                    ops += (OP_MUL, out, b_reg)
                    out += 1
            else:
                ops += (OP_POW, b_reg, exponent)
                out += 1
        elif kind in _UNARY_KIND:
            ops += (_UNARY_KIND[kind], reg[id(node.children[0])], 0)
            out += 1
        else:
            raise TapeError(f"cannot encode node kind {kind!r} on an op tape")
        reg[id(node)] = out

    names = (tuple(output_names) if output_names is not None
             else tuple(f"out{i}" for i in range(len(roots))))
    return OpTape(
        symbols=[(s.name, None if s.nominal is None else float(s.nominal))
                 for s in space.symbols],
        consts=consts, ops=ops,
        outputs=[reg[id(r)] for r in roots],
        output_names=names, meta=meta)


def tape_for(fn: CompiledFunction) -> OpTape:
    """The op tape of a compiled function (every program carries the
    tape it was generated from)."""
    return fn.tape


def fuse_moments(tape: OpTape) -> OpTape:
    """Fuse the det-unscaling ladder into a moment tape (schema 2).

    A lowered moment program's outputs are the raw numerators
    ``n_0 .. n_K`` plus the shared determinant; this appends the ladder
    ``m_k = n_k / det^(k+1)`` to the tape itself —

    ==========  =================================
    ``m_0``     ``div(n_0, det)``
    ``s_1``     ``mul(det, det)``
    ``m_1``     ``div(n_1, s_1)``
    ``s_k``     ``mul(s_{k-1}, det)``  (k >= 2)
    ``m_k``     ``div(n_k, s_k)``
    ==========  =================================

    — so one register-machine pass (one ufunc kernel, one native loop)
    emits the finished moments: the program every compiled model runs
    (:func:`~repro.partition.composite.moment_tape`).  At singular
    points (``det == 0``) the divisions produce infs/NaNs under array
    semantics — callers mask those columns to NaN — and raise
    ``ZeroDivisionError`` under pure-Python scalar evaluation.

    The fused tape keeps every original op (the numerator registers are
    shared subexpressions of the ladder, preserving cross-output CSE)
    and the original metadata; outputs become ``m0 .. mK, det``.  A
    fused tape is returned unchanged.
    """
    if tape.fused is not None:
        return tape
    if len(tape.outputs) < 2:
        raise TapeError(
            "fusing needs at least one numerator output plus the "
            f"determinant; tape has {len(tape.outputs)} outputs")
    det = tape.outputs[-1]
    numerators = tape.outputs[:-1]
    first = tape.n_registers  # register of the first ladder op
    ladder: list[tuple[int, int, int]] = []
    outputs = []
    scale = det
    for k, num in enumerate(numerators):
        if k > 0:
            ladder.append((OP_MUL, scale, det))
            scale = first + len(ladder) - 1
        ladder.append((OP_DIV, num, scale))
        outputs.append(first + len(ladder) - 1)
    outputs.append(det)
    names = tuple(f"m{k}" for k in range(len(numerators))) + ("det",)
    ops = np.concatenate([tape.ops, np.array(ladder, dtype=np.int64)])
    return OpTape(tape.symbols, tape.consts, ops, outputs, names,
                  meta=tape.meta, fused={"moments": len(numerators)})


def tape_from_model(model, *, fused: bool = True) -> OpTape:
    """A compiled model's *model* tape: its one (fused, schema-2) moment
    program plus what a :class:`~repro.core.compiled_model.TapeModel`
    needs to evaluate and sweep it — moment order, Padé order, output
    node, and the element→symbol slot table.

    Accepts an ``AWESymbolicResult`` or any ``TapeModel``.  ``fused`` is
    accepted for older callers and has no effect.
    """
    return getattr(model, "model", model).tape  # AWESymbolicResult -> model


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
    if schema is None:
        raise TapeError(
            "not an op tape (no schema field); a saved-model JSON from an "
            "older build must be re-saved with `repro analyze --save` or "
            "`repro compile --emit-tape`")
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
        with open(os.fspath(path)) as fh:
            text = fh.read()
    except OSError as exc:
        raise TapeError(f"cannot read op tape {path}: {exc}") from exc
    return tape_from_json(text)


def __getattr__(name: str):
    # the model type lives with the compiled model it generalizes; this
    # keeps ``repro.symbolic.tape.TapeModel`` importable without the IR
    # module importing the layers above it
    if name == "TapeModel":
        from ..core.compiled_model import TapeModel
        return TapeModel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
