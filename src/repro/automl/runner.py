"""Fault-isolated trial execution.

The AutoML loop (Section III-A) evaluates arbitrary pipeline
configurations, and arbitrary configurations fail in arbitrary ways: a
degenerate PCA raises ``LinAlgError``, a quadratic-blowup preprocessor
raises ``MemoryError``, a pathological forest simply never finishes.
The paper's headline result (Figure 10) is about search quality *under a
wall-clock budget*, which only means something if one bad trial cannot
stall or kill the run — auto-sklearn (Feurer et al., NeurIPS 2015) gets
this by evaluating every configuration in a budgeted subprocess and
logging each trial durably.

This module provides the same substrate:

* :class:`TrialRunner` — runs one trial callable under a per-trial time
  limit with a chosen isolation mode (``signal`` alarm, forked
  ``subprocess``, or inline ``none``) and converts *every* non-fatal
  exception into a :class:`TrialOutcome` error string with a traceback
  summary.  ``KeyboardInterrupt``/``SystemExit`` still propagate.
* :func:`format_error` — the one-line error summary a failed trial
  records.

Each trial lands in the run's :class:`~repro.events.EventLog` as a
``trial`` record, so a crashed or interrupted search leaves a durable,
resumable trace (see :mod:`repro.automl.optimizer`).
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ISOLATION_MODES = ("auto", "signal", "subprocess", "none")


class TrialTimeout(Exception):
    """A trial exceeded its per-trial time limit."""


def format_error(exc: BaseException, limit: int = 3) -> str:
    """``TypeName: message [at file:line in fn; ...]`` for a caught error.

    The traceback summary keeps the last ``limit`` frames — enough to
    locate the failing component without storing a full traceback per
    trial.
    """
    frames = traceback.extract_tb(exc.__traceback__)
    message = f"{type(exc).__name__}: {exc}".strip().rstrip(":")
    if not frames:
        return message
    tail = "; ".join(f"{Path(f.filename).name}:{f.lineno} in {f.name}"
                     for f in frames[-limit:])
    return f"{message} [at {tail}]"


@dataclass
class TrialOutcome:
    """What one isolated trial execution produced."""

    score: float
    elapsed: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _subprocess_child(fn, conn) -> None:
    """Run ``fn`` in the forked child; ship (status, payload) back."""
    try:
        result = ("ok", float(fn()))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        result = ("error", format_error(exc))
    try:
        conn.send(result)
    finally:
        conn.close()


class TrialRunner:
    """Execute trial callables with fault isolation and a time limit.

    Parameters
    ----------
    timeout:
        Per-trial wall-clock limit in seconds (``None`` = unlimited).
    isolation:
        * ``"signal"`` — a ``SIGALRM`` itimer interrupts the trial in
          process.  Cheap (no fork) but only works on the main thread of
          a POSIX process and cannot interrupt C extensions mid-call.
        * ``"subprocess"`` — the trial runs in a forked worker that is
          terminated on timeout; also survives hard crashes (segfault,
          OOM kill) of the trial itself.  The trial callable must only
          *return a score* — any fitted state dies with the child.
        * ``"none"`` — run inline; the timeout is recorded but not
          enforced (the sequential fallback).
        * ``"auto"`` (default) — ``signal`` where available (POSIX main
          thread) when a timeout is set, else ``none``.
    timeout_score / error_score:
        Scores assigned to timed-out / failed trials (both default 0.0,
        the optimizer's failure penalty).

    ``run(fn)`` never raises for trial-level failures: every
    :class:`Exception` (including ``MemoryError``, ``OverflowError`` and
    ``numpy.linalg.LinAlgError``) becomes ``TrialOutcome.error``.
    """

    def __init__(self, timeout: float | None = None,
                 isolation: str = "auto", timeout_score: float = 0.0,
                 error_score: float = 0.0):
        if isolation not in ISOLATION_MODES:
            raise ValueError(f"isolation must be one of {ISOLATION_MODES}, "
                             f"got {isolation!r}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        self.isolation = isolation
        self.timeout_score = timeout_score
        self.error_score = error_score

    # -- mode resolution ------------------------------------------------

    @property
    def effective_isolation(self) -> str:
        """The mode ``run`` will actually use (resolves ``"auto"``)."""
        if self.isolation != "auto":
            return self.isolation
        if self.timeout is None:
            return "none"
        return "signal" if self._signal_available() else "none"

    @staticmethod
    def _signal_available() -> bool:
        return (hasattr(signal, "SIGALRM")
                and threading.current_thread() is threading.main_thread())

    # -- execution ------------------------------------------------------

    def run(self, fn) -> TrialOutcome:
        """Evaluate ``fn() -> score`` under this runner's policy."""
        mode = self.effective_isolation
        started = time.monotonic()
        try:
            if mode == "subprocess":
                score = self._run_subprocess(fn)
            elif mode == "signal" and self.timeout is not None:
                score = self._run_with_alarm(fn)
            else:
                score = float(fn())
            outcome = TrialOutcome(score, 0.0)
        except TrialTimeout as exc:
            outcome = TrialOutcome(self.timeout_score, 0.0,
                                   f"TrialTimeout: {exc}")
        except _RemoteTrialError as exc:
            outcome = TrialOutcome(self.error_score, 0.0, str(exc))
        except Exception as exc:  # noqa: BLE001 - the point of the runner
            outcome = TrialOutcome(self.error_score, 0.0, format_error(exc))
        outcome.elapsed = time.monotonic() - started
        return outcome

    def _run_with_alarm(self, fn) -> float:
        if not self._signal_available():
            raise RuntimeError(
                "signal isolation needs SIGALRM on the main thread; "
                "use isolation='subprocess' or 'none'")

        def _on_alarm(signum, frame):
            raise TrialTimeout(
                f"trial exceeded {self.timeout:g}s (signal)")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.timeout)
        try:
            return float(fn())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _run_subprocess(self, fn) -> float:
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: degrade gracefully
            if self.timeout is not None and self._signal_available():
                return self._run_with_alarm(fn)
            return float(fn())
        receiver, sender = ctx.Pipe(duplex=False)
        worker = ctx.Process(target=_subprocess_child, args=(fn, sender),
                             daemon=True)
        worker.start()
        sender.close()
        worker.join(self.timeout)
        if worker.is_alive():
            worker.terminate()
            worker.join(1.0)
            if worker.is_alive():  # pragma: no cover - stubborn child
                worker.kill()
                worker.join()
            receiver.close()
            raise TrialTimeout(
                f"trial exceeded {self.timeout:g}s (subprocess terminated)")
        try:
            # A dead child leaves the pipe readable-at-EOF, so recv can
            # still raise: both shapes mean the trial died unreported
            # (segfault / OOM kill analog).
            if not receiver.poll():
                raise EOFError
            status, payload = receiver.recv()
        except (EOFError, OSError):
            raise _RemoteTrialError(
                f"ProcessDied: trial subprocess exited with code "
                f"{worker.exitcode} before reporting a result") from None
        finally:
            receiver.close()
        if status == "ok":
            return payload
        raise _RemoteTrialError(payload)


class _RemoteTrialError(Exception):
    """A trial failed in the worker; the message is already formatted."""
