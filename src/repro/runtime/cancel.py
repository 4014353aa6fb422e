"""Cooperative cancellation and deadlines for sweeps and the serving layer.

The batched runtime executes shards on worker threads, and a thread
cannot be killed — historically a timed-out shard attempt was simply
*abandoned* and kept computing to the end of its range, leaking CPU.
This module closes that hole cooperatively:

* a :class:`CancelToken` is threaded from the caller through
  :func:`repro.runtime.resilience.run_shards` into every shard attempt;
* the batched shard loop (:mod:`repro.runtime.batched`) splits its range
  into bounded *chunks* and checks the token between chunk evaluations,
  so a cancelled or timed-out attempt stops within one chunk of work;
* a :class:`Deadline` is a wall-clock budget whose token fires once the
  clock passes it, giving the serving layer end-to-end deadline
  propagation.

Tokens are hierarchical: cancelling a parent cancels every child, while
a child (e.g. one timed-out attempt) can be cancelled without touching
its siblings.  Everything is thread-safe — tokens are shared between the
caller and pool threads.
"""

from __future__ import annotations

import math
import threading
import time

from ..errors import CancelledSweep

__all__ = ["CancelToken", "Deadline"]


class CancelToken:
    """A latch observed cooperatively by shard execution.

    Args:
        parent: optional token whose cancellation implies this one's
            (checked on read — no callback registration, so tokens are
            cheap and never leak references).
    """

    __slots__ = ("_event", "_parent", "_reason")

    def __init__(self, parent: "CancelToken | None" = None) -> None:
        self._event = threading.Event()
        self._parent = parent
        self._reason: str = "cancelled"

    def cancel(self, reason: str = "cancelled") -> None:
        """Fire the token (idempotent; the first reason wins)."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        if self._event.is_set():
            return True
        return self._parent.cancelled if self._parent is not None else False

    @property
    def reason(self) -> str:
        """Why the token fired (meaningful once :attr:`cancelled`)."""
        if self._event.is_set():
            return self._reason
        if self._parent is not None and self._parent.cancelled:
            return self._parent.reason
        return self._reason

    def child(self) -> "CancelToken":
        """A token that fires when this one does, but not vice versa."""
        return CancelToken(parent=self)

    def raise_if_cancelled(self, where: str = "sweep") -> None:
        """Raise :class:`~repro.errors.CancelledSweep` when fired — the
        check production code places between chunk evaluations."""
        if self.cancelled:
            raise CancelledSweep(f"{where} cancelled ({self.reason})",
                                 reason=self.reason)


class _DeadlineToken(CancelToken):
    """A token that fires on read: :attr:`cancelled` compares the
    monotonic clock with ``expires_at``, so no timer thread is needed."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        super().__init__()
        self.expires_at = expires_at

    @property
    def cancelled(self) -> bool:
        if (not self._event.is_set()
                and time.monotonic() >= self.expires_at):
            self.cancel("deadline exceeded")
        return self._event.is_set()


class Deadline:
    """A monotonic-clock budget whose token fires once it runs out.

    The token is built on first access and checks the clock whenever it
    is read, so a deadline costs no thread, and one that is only ever
    *checked* (``remaining()`` / ``expired``) costs nothing.  Deadlines
    compose with token hierarchies: pass ``deadline.token`` (or a child
    of it) anywhere a :class:`CancelToken` is accepted.
    """

    __slots__ = ("expires_at", "_token", "_lock")

    def __init__(self, expires_at: float) -> None:
        self.expires_at = float(expires_at)
        self._token: _DeadlineToken | None = None
        self._lock = threading.Lock()

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (monotonic clock)."""
        return cls(time.monotonic() + float(seconds))

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    @property
    def token(self) -> CancelToken:
        """The token this deadline fires."""
        with self._lock:
            if self._token is None:
                self._token = _DeadlineToken(self.expires_at)
            return self._token

    def close(self) -> None:
        """Disarm the token (idempotent; call when the work finished
        early): it keeps a cancellation that already fired, and fires on
        no later read."""
        with self._lock:
            if self._token is not None:
                self._token.expires_at = math.inf

    def __enter__(self) -> "Deadline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
