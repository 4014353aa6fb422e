"""Native (compiled) evaluator kernels for op tapes.

The ufunc kernel evaluates a moment program as ~300 separate numpy calls
per chunk; at sweep-sized chunks that is dominated by per-call dispatch,
not arithmetic.  This module generates C for one fused loop over the
batch from a program's *op tape* — the same tape every other evaluator
of the program is generated from (:mod:`repro.symbolic.tape`) — builds
it with the system compiler (``cc``/``gcc``/``clang``) as a shared
object and binds it via :mod:`ctypes`.  Constants are emitted as C99 hex
float literals (exact), and the build forbids FMA contraction
(``-ffp-contract=off -fno-fast-math``) so every op is a single
correctly-rounded IEEE operation.

Only tapes whose ops are pure rational arithmetic (+, *, /, integer
pow) are eligible — ``sqrt``/``log`` switch to complex arithmetic on
negative inputs and ``exp``/``abs`` may route through SIMD libm variants
— and every freshly built kernel is **probed**: evaluated on a small
deterministic batch and byte-compared against ``eval_raw``.  Any
mismatch, missing toolchain, or build failure raises
:class:`NativeUnavailable`, which callers treat as "use the ufunc
kernel" (with a logged warning), never as an error.

Kernels are built **in the background**: the first batch of a
(program, array-mask) pair asks :func:`request_kernel` for one and runs
the ufunc kernel meanwhile.  One builder thread per process takes the
requests one at a time — the store lookup, ``cc`` (at ``nice`` 19) and
the probe all run there — binds each verified kernel to its program and
exits when its queue is empty.  A build reads the environment as it was
when the kernel was asked for (:class:`BuildEnv`), and one asked for
before ``REPRO_NATIVE=off`` was set is dropped.  At interpreter exit
queued builds are dropped and the one in flight finishes, so no ``cc``
outlives the process.

A kernel runs on its caller's thread: a sweep uses more than one CPU
only through its shards (:mod:`repro.runtime.backends`), each of which
runs its own kernel.

Environment knobs:

* ``REPRO_NATIVE`` — ``off`` disables native kernels entirely (any other
  value is ignored).
* ``REPRO_NATIVE_CACHE`` — directory of the kernel store (default: a
  per-user tmp directory), an :class:`~repro.runtime.store.ArtifactStore`
  of verified ``.so`` files keyed by tape hash + mask + compiler, so warm
  starts skip the compiler; bad entries are quarantined and rebuilt, and
  the store keeps under :data:`_STORE_MAX_BYTES`.  Read, with ``PATH``,
  when a kernel is asked for.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
from collections import deque
from typing import NamedTuple, Sequence

import numpy as np

from ..symbolic.tape import (NATIVE_OPS, OP_ADD, OP_DIV, OP_MUL, OP_POW,
                             OpTape, tape_for)
from ..testing import faults as _faults
from .store import ArtifactStore

__all__ = ["NativeUnavailable", "native_kernel_for", "build_native_kernel",
           "native_store", "request_kernel", "wait_for_builds", "BuildEnv"]

logger = logging.getLogger("repro.runtime.native")

#: bumped when generated-code layout changes, to invalidate cached .so
#: files (3: whole-batch ``(n, scalars, cols, out)`` kernel signature)
_CODEGEN_VERSION = 3

#: points in the bit-identity probe batch
_PROBE_POINTS = 8

#: byte budget of the kernel store; a kernel is ~15-30 KB
_STORE_MAX_BYTES = 32 << 20


class NativeUnavailable(RuntimeError):
    """A native kernel cannot be built here; use the ufunc kernel."""


# ----------------------------------------------------------------------
# eligibility + shared codegen helpers
# ----------------------------------------------------------------------
def _vec_flags(tape: OpTape, mask: Sequence[bool]) -> list[bool]:
    """Per-register "varies across the batch" flags under ``mask``."""
    base = tape.n_inputs + tape.n_consts
    vec = [False] * tape.n_registers
    for i in range(tape.n_inputs):
        vec[i] = bool(mask[i])
    for i, (opc, a, b) in enumerate(tape.ops):
        opc, a, b = int(opc), int(a), int(b)
        operands = (a, b) if opc != OP_POW else (a,)
        vec[base + i] = any(vec[p] for p in operands)
    return vec


def _check_eligible(tape: OpTape, mask: Sequence[bool]) -> list[bool]:
    if len(mask) != tape.n_inputs:
        raise NativeUnavailable(
            f"mask has {len(mask)} entries for {tape.n_inputs} inputs")
    if not tape.native_eligible:
        bad = sorted({int(o) for o in tape.ops[:, 0]} - set(NATIVE_OPS))
        raise NativeUnavailable(
            f"tape uses non-rational ops {bad}; only +, *, /, pow are "
            "native-eligible")
    vec = _vec_flags(tape, mask)
    base = tape.n_inputs + tape.n_consts
    for i, (opc, _a, _b) in enumerate(tape.ops):
        # a batch-varying ** goes through numpy's SIMD pow, which is not
        # bit-compatible with the libm pow a native loop would call;
        # scalar ** hoists to one libm pow in CPython and C alike.
        # Unrolled small exponents never reach the tape as pow at all.
        if int(opc) == OP_POW and vec[base + i]:
            raise NativeUnavailable(
                "tape applies ** to a batch-varying value; numpy's SIMD "
                "pow is not bit-reproducible in a native loop")
    # outputs constant across the batch are simply broadcast-stored —
    # a float64 copy per point, exact by construction
    for c in tape.consts:
        if not np.isfinite(c):
            raise NativeUnavailable(f"non-finite constant {c!r} on tape")
    return vec


def _mask_tag(mask: Sequence[bool]) -> str:
    return "".join("1" if m else "0" for m in mask)


# ----------------------------------------------------------------------
# C path
# ----------------------------------------------------------------------
def _find_cc() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def native_store() -> ArtifactStore:
    """The kernel store (``tape-<key32>.so`` in ``REPRO_NATIVE_CACHE``)."""
    directory = os.environ.get("REPRO_NATIVE_CACHE")
    if not directory:
        uid = getattr(os, "getuid", lambda: "na")()
        directory = os.path.join(tempfile.gettempdir(),
                                 f"repro-native-{uid}")
    return ArtifactStore(directory, "tape-", ".so", _STORE_MAX_BYTES)


class BuildEnv(NamedTuple):
    """What a build takes from the environment: the kernel store
    (``REPRO_NATIVE_CACHE``) and the compiler on ``PATH``."""

    store: ArtifactStore
    cc: str | None

    @classmethod
    def current(cls) -> "BuildEnv":
        return cls(native_store(), _find_cc())


def generate_c_source(tape: OpTape, mask: Sequence[bool],
                      fn_name: str = "repro_tape_kernel") -> str:
    """C for one fused batch loop over the tape.

    Signature::

        void fn(long n, const double *scalars,
                const double *const *cols, double *out)

    The function evaluates all ``n`` points of the batch.  ``scalars``
    is indexed by input position (array positions unused),
    ``cols`` holds the masked columns in position order, and ``out`` is
    a dense ``(n_outputs, n)`` row-major block.  Constants are baked in
    as C99 hex literals; batch-invariant ops are hoisted above the loop.
    """
    vec = _check_eligible(tape, mask)
    base = tape.n_inputs + tape.n_consts
    col_of = {}
    for pos, m in enumerate(mask):
        if m:
            col_of[pos] = len(col_of)

    def ref(r: int, in_loop: bool) -> str:
        if r < tape.n_inputs:
            if vec[r]:
                return f"cols[{col_of[r]}][i]" if in_loop else "(bug)"
            return f"scalars[{r}]"
        if r < base:
            return f"k{r - tape.n_inputs}"
        return f"r{r - base}"

    hoisted: list[str] = []
    body: list[str] = []
    for j, c in enumerate(tape.consts):
        hoisted.append(
            f"    const double k{j} = {float(c).hex()}; /* {float(c)!r} */")
    for i, (opc, a, b) in enumerate(tape.ops):
        opc, a, b = int(opc), int(a), int(b)
        r = base + i
        in_loop = vec[r]
        dest = hoisted if not in_loop else body
        indent = "    " if not in_loop else "        "
        ra = ref(a, in_loop)
        if opc == OP_ADD:
            text = f"{ra} + {ref(b, in_loop)}"
        elif opc == OP_MUL:
            text = f"{ra} * {ref(b, in_loop)}"
        elif opc == OP_DIV:
            text = f"{ra} / {ref(b, in_loop)}"
        else:  # OP_POW, checked eligible
            text = f"pow({ra}, (double){b}.0)"
        dest.append(f"{indent}const double r{i} = {text};")
    stores = [
        f"        out[{k}*n + i] = {ref(o, True)};"
        for k, o in enumerate(tape.outputs)]
    return "\n".join([
        "#include <math.h>",
        "",
        f"void {fn_name}(long n, const double *scalars,",
        "                const double *const *cols, double *out)",
        "{",
        *hoisted,
        "    for (long i = 0; i < n; i++) {",
        *body,
        *stores,
        "    }",
        "}",
        "",
    ])


def _build_c_kernel(tape: OpTape, mask: Sequence[bool], probe=None,
                    env: BuildEnv | None = None):
    """The C kernel from the store, or built, probed and published.

    A stored kernel is dlopen'ed only once its digest matches; one that
    fails the digest, the load or ``probe`` is quarantined and rebuilt
    once.  ``cc`` runs in a private temp directory where the new kernel
    is also loaded and probed, so only a verified ``.so`` is published.
    ``env`` defaults to the current environment.
    """
    if disabled():
        raise NativeUnavailable("disabled via REPRO_NATIVE=off")
    env = env or BuildEnv.current()
    cc = env.cc
    if cc is None:
        raise NativeUnavailable("no C compiler (cc/gcc/clang) on PATH")
    source = generate_c_source(tape, mask)
    key = hashlib.sha256(
        f"{_CODEGEN_VERSION}|{tape.content_hash}|{_mask_tag(mask)}|{cc}"
        .encode()).hexdigest()
    store = env.store
    if store.load(key) is not None:
        path = store.path(key)
        try:
            kernel = _bind(ctypes.CDLL(str(path)), tape, mask, source)
            if probe is not None:
                probe(kernel)
            return kernel
        except OSError:
            store.quarantine(path, "load")
        except NativeUnavailable:
            store.quarantine(path, "probe")
    os.makedirs(store.directory, mode=0o700, exist_ok=True)
    # mkdtemp, not TemporaryDirectory: the latter's exit-time finalizer
    # could remove the directory under a build the process is finishing
    build_dir = tempfile.mkdtemp(prefix="repro-cc-")
    try:
        c_path = os.path.join(build_dir, "kernel.c")
        so_path = os.path.join(build_dir, "kernel.so")
        with open(c_path, "w") as fh:
            fh.write(source)
        cmd = [cc, "-O2", "-fPIC", "-shared",
               "-ffp-contract=off", "-fno-fast-math",
               "-o", so_path, c_path, "-lm"]
        nice = shutil.which("nice")
        if nice:
            # a build yields the CPU to the sweeps it serves
            cmd = [nice, "-n", "19", *cmd]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:
            raise NativeUnavailable(f"C compiler failed to run: {exc}")
        if proc.returncode != 0:
            raise NativeUnavailable(
                f"C compilation failed: {proc.stderr.strip()[:500]}")
        try:
            kernel = _bind(ctypes.CDLL(so_path), tape, mask, source)
        except OSError as exc:
            raise NativeUnavailable(f"cannot load compiled kernel: {exc}")
        if probe is not None:
            probe(kernel)
        with open(so_path, "rb") as fh:
            store.publish(key, fh.read())
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)
    return kernel


def _bind(lib, tape: OpTape, mask: Sequence[bool], source: str):
    """Wrap the loaded library's entry point as ``kernel(args, n)``,
    which returns the ``(n_outputs, n)`` float64 slab (its rows are the
    outputs)."""
    cfn = lib.repro_tape_kernel
    cfn.restype = None
    cfn.argtypes = [ctypes.c_long, ctypes.POINTER(ctypes.c_double),
                    ctypes.POINTER(ctypes.POINTER(ctypes.c_double)),
                    ctypes.POINTER(ctypes.c_double)]

    n_inputs = tape.n_inputs
    n_out = len(tape.outputs)
    dptr = ctypes.POINTER(ctypes.c_double)
    PtrArray = dptr * max(1, sum(mask))

    def kernel(args, n_points: int):
        scalars = np.zeros(max(1, n_inputs))
        cols = []
        for pos, a in enumerate(args):
            if mask[pos]:
                col = np.ascontiguousarray(a, dtype=np.float64)
                cols.append(col)
            else:
                scalars[pos] = float(a)
        out = np.empty((n_out, n_points))
        ptrs = PtrArray(*(c.ctypes.data_as(dptr) for c in cols))
        cfn(n_points, scalars.ctypes.data_as(dptr), ptrs,
            out.ctypes.data_as(dptr))
        return out

    kernel.source = source
    return kernel


# ----------------------------------------------------------------------
# probe + entry points
# ----------------------------------------------------------------------
def _probe_args(fn, mask: Sequence[bool]):
    """A small deterministic batch exercising every input."""
    args = []
    for pos, sym in enumerate(fn.space.symbols):
        nominal = sym.nominal if sym.nominal else 1.0
        if mask[pos]:
            # distinct, reproducible, nowhere zero
            col = nominal * (0.625 + 0.125 * np.arange(_PROBE_POINTS)
                             + 0.037 * (pos + 1))
            args.append(np.asarray(col, dtype=np.float64))
        else:
            args.append(float(nominal * (1.0 + 0.01 * pos)))
    return args


def _probe(fn, kernel, mask: Sequence[bool]) -> None:
    """Byte-compare the kernel against ``eval_raw`` on the probe batch."""
    args = _probe_args(fn, mask)
    with np.errstate(all="ignore"):
        want = fn.eval_raw(*args)
        got = kernel(args, _PROBE_POINTS)
    if len(want) != len(got):
        raise NativeUnavailable("probe arity mismatch against eval_raw")
    for k, (w, g) in enumerate(zip(want, got)):
        w = np.broadcast_to(np.asarray(w, dtype=np.float64),
                            (_PROBE_POINTS,))
        if w.tobytes() != np.asarray(g).tobytes():
            raise NativeUnavailable(
                f"probe mismatch on output {k}: native kernel is not "
                "bit-identical to eval_raw on this platform")


def disabled() -> bool:
    """True when ``REPRO_NATIVE=off`` rules the native path out entirely.

    Checked at *dispatch* time too (not only at build time), so flipping
    the variable in a live process also stops already-built kernels from
    being used — the off switch means "this evaluation must go through
    the ufunc kernel", not "don't build anything new".
    """
    return os.environ.get("REPRO_NATIVE", "").strip().lower() == "off"


def build_native_kernel(tape: OpTape, mask: Sequence[bool]):
    """Build the C kernel for ``tape`` under ``mask`` (no probe).

    Raises:
        NativeUnavailable: ``REPRO_NATIVE=off``, an ineligible tape, no
            C compiler, or a failed build.
    """
    return _build_c_kernel(tape, mask)


def native_kernel_for(fn, mask: Sequence[bool],
                      env: BuildEnv | None = None):
    """Build + probe a native kernel for a compiled function (in
    ``env``, default the current environment).

    The returned callable has signature ``kernel(args, n_points) ->
    np.ndarray`` (the ``(n_outputs, n_points)`` slab) and is guaranteed
    (by the probe) to be bit-identical to ``fn.eval_raw`` on this
    platform.

    Raises:
        NativeUnavailable: anything prevented a verified build.
    """
    tape = tape_for(fn)
    mask = tuple(bool(m) for m in mask)
    kernel = _build_c_kernel(tape, mask,
                             probe=lambda k: _probe(fn, k, mask), env=env)
    logger.debug("native kernel ready for tape %s", tape.content_hash[:12])
    return kernel


# ----------------------------------------------------------------------
# the background builder
# ----------------------------------------------------------------------
#: ``(fn, mask, env)`` builds waiting for the builder thread, oldest
#: first
_QUEUE: deque = deque()
#: ``(id(fn), mask)`` of every queued or in-flight build (a queued
#: build holds its ``fn``, so the id cannot be reused meanwhile)
_PENDING: set = set()
_BUILDER: threading.Thread | None = None
_BUILD_LOCK = threading.Lock()
#: notified when the builder thread exits (its queue ran empty)
_IDLE = threading.Condition(_BUILD_LOCK)
_CLOSING = False


def warn_unavailable(reason) -> None:
    """Log that a program runs the ufunc kernel (callers log once per
    program)."""
    logger.warning("native kernel unavailable (%s); falling back to the "
                   "ufunc kernel for this program", reason)


def request_kernel(fn, mask: tuple) -> None:
    """Ask the builder thread for ``fn``'s native kernel under ``mask``.

    Returns at once.  The first request per (program, mask) queues a
    build in the current :class:`BuildEnv` (later ones, from any thread,
    are no-ops while it is pending) and starts the builder thread if
    none runs.  The build ends in ``fn._native_kernels[mask]`` (a probed
    kernel) or in ``fn._native_failed``; the program's first failure
    logs a warning.  A build that ``REPRO_NATIVE=off`` finds still
    queued is dropped and records nothing, so a batch after the switch
    is back on asks again.
    """
    global _BUILDER
    key = (id(fn), mask)
    if key in _PENDING:  # every batch while it builds: re-checked below
        return
    env = BuildEnv.current()
    with _BUILD_LOCK:
        # the builder sets a result before it un-pends the key, so a
        # caller that saw neither result before taking the lock sees it
        # here
        if (key in _PENDING or _CLOSING or mask in fn._native_kernels
                or mask in fn._native_failed):
            return
        _PENDING.add(key)
        _QUEUE.append((fn, mask, env))
        if _BUILDER is None:
            _BUILDER = threading.Thread(target=_build_queued,
                                        name="repro-native-build",
                                        daemon=True)
            _BUILDER.start()


def _build_queued() -> None:
    """The builder thread: one build at a time until the queue is empty."""
    global _BUILDER
    while True:
        with _BUILD_LOCK:
            if not _QUEUE:
                _BUILDER = None
                _IDLE.notify_all()
                return
            fn, mask, env = _QUEUE.popleft()
        try:
            with _faults.muted():
                kernel = native_kernel_for(fn, mask, env)
        except Exception as exc:  # noqa: BLE001 — any failure means ufunc
            if not disabled():  # switched off since the request: drop it
                if not fn._native_failed:
                    warn_unavailable(exc)
                fn._native_failed.add(mask)
        else:
            fn._native_kernels[mask] = kernel
        with _BUILD_LOCK:
            _PENDING.discard((id(fn), mask))


def wait_for_builds(timeout: float | None = None) -> bool:
    """Block until no build is queued or in flight (``False`` when
    ``timeout`` seconds pass first)."""
    with _IDLE:
        return _IDLE.wait_for(lambda: _BUILDER is None, timeout)


def _drop_queued_builds() -> None:
    """At interpreter exit: drop queued builds, finish the one in flight
    (the daemon builder would otherwise die mid-``cc``)."""
    global _CLOSING
    with _BUILD_LOCK:
        _CLOSING = True
        _QUEUE.clear()
    wait_for_builds()


def _reset_after_fork() -> None:
    """A forked child has no builder thread, and a lock another thread
    held at the fork would never be released."""
    global _BUILD_LOCK, _IDLE, _BUILDER
    _BUILD_LOCK = threading.Lock()
    _IDLE = threading.Condition(_BUILD_LOCK)
    _BUILDER = None
    _QUEUE.clear()
    _PENDING.clear()


atexit.register(_drop_queued_builds)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)
