"""The queue worker: ``resim worker DIR`` / ``python -m repro.exec DIR``.

A worker is the executing half of the directory queue
(:mod:`repro.exec.queue`): it loops *claim → simulate → write result →
complete*, entirely through atomic renames, so any number of workers
on any number of hosts sharing the queue directory cooperate without
a coordinator process, a lock server, or any network protocol beyond
the filesystem.

Crash tolerance from the executing side:

* before simulating, the worker checks whether a valid result already
  exists (a predecessor may have died between its result write and
  its lease rename) and completes the unit for free if so;
* while simulating, a :class:`LeaseHeartbeat` daemon thread refreshes
  the lease mtime, so only a *dead* worker's lease ever goes stale and
  gets reclaimed.  The heartbeat lives beside the engine, not inside
  it: the unit runs with no observer attached, on the tier its spec
  asks for, and a hung simulation is still caught by the engine's
  cycle-budget guard.  The thread is stopped before the lease is
  completed, so a completed lease is never touched again;
* a unit that raises gets an **error document** written to its result
  path — the coordinator learns what failed instead of waiting — and
  is still marked done (re-enqueueing a deterministic failure would
  loop forever; the sweep layer's checkpoint validation discards
  error documents on resume, so a later rerun recomputes it).

Waiting for work: a worker the coordinator spawned has its doorbell
(:mod:`repro.exec.queue`) as stdin.  It waits on it instead of
sleeping, so newly enqueued units are claimed at once, and rings it
back after each claim it resolves.  Any other stdin — a terminal, a
pipe, ``/dev/null`` — leaves the worker polling the queue every
``--poll-seconds``, and so does a doorbell whose coordinator hung up.
Any socket on stdin counts as a doorbell, so start an external worker
under a launcher that passes one with ``< /dev/null``.  Either way
the queue directories decide what runs; the doorbell only says when
to look.

Exit policy: by default a worker polls forever (fleet style — start
it once per host, point it at the mount, Ctrl-C when the campaign is
over).  ``--exit-when-drained`` exits once pending *and* leases are
empty (scripted use); ``--idle-exit N`` exits after N seconds without
finding work (what coordinator-spawned workers use); ``--max-units
N`` bounds the total processed.

Per-unit messages go to the ``repro.exec.worker`` logger; the
command line shows them on stderr unless ``--quiet``.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import socket
import stat
import sys
import threading
import time
from collections.abc import Iterator
from pathlib import Path
from types import TracebackType

from repro.core.engine import EngineObserver
from repro.exec.lease import DEFAULT_LEASE_SECONDS
from repro.exec.queue import (
    QueuePaths,
    claim_next,
    complete_lease,
    queue_paths,
    read_unit,
    reclaim_stale,
    ring,
    touch_lease,
    wait_for_bells,
)
from repro.exec.unit import (
    ExecError,
    atomic_write_json,
    error_document,
    execute_unit,
    reusable_result,
)
from repro.utils.memo import memo_info

logger = logging.getLogger(__name__)


def worker_id() -> str:
    """Stable identity of this worker process, for log lines."""
    return f"{socket.gethostname()}:{os.getpid()}"


class LeaseHeartbeat(EngineObserver):
    """Keeps a lease fresh from a daemon thread while a unit runs.

    Use it as a context manager around the work: entering starts a
    thread that touches the lease every ``interval_seconds``; exiting
    stops and joins it, so no touch happens after the ``with`` block.
    It is an :class:`EngineObserver` that overrides no hook, so
    attaching one to a run changes nothing — in particular not the
    engine tier the run executes on.
    """

    def __init__(self, lease_path: Path, *,
                 interval_seconds: float) -> None:
        self._lease_path = lease_path
        self._interval = interval_seconds
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> LeaseHeartbeat:
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._beat, name="lease-heartbeat", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 traceback: TracebackType | None) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            touch_lease(self._lease_path)


def process_one(paths: QueuePaths, lease_path: Path, *,
                lease_seconds: float) -> bool:
    """Resolve one claimed unit; True if it was genuinely resolved
    (simulated, failed-with-error-document, or completed from an
    existing result *of this exact unit*), False if it had to be
    abandoned (unreadable descriptor; the coordinator re-enqueues
    from its in-memory copy).

    Never raises for unit-level problems: failures become error
    documents (see module docstring), and the lease is completed in
    every path.
    """
    try:
        unit = read_unit(lease_path)
    except ExecError as error:
        logger.warning("[worker %s] abandoning unreadable unit %s: %s",
                       worker_id(), lease_path.name, error)
        complete_lease(paths, lease_path)
        return False

    if reusable_result(unit) is not None:
        # Honor the result a predecessor that died before marking done
        # (or a racing duplicate executor) wrote — deterministic, hence
        # identical — instead of re-simulating.
        complete_lease(paths, lease_path)
        return True
    heartbeat = LeaseHeartbeat(
        lease_path, interval_seconds=max(lease_seconds / 4.0, 0.05))
    try:
        with heartbeat:
            execute_unit(unit)
        logger.info("[worker %s] completed %s", worker_id(),
                    unit.unit_id)
    except Exception as error:  # noqa: BLE001 - becomes an error doc
        if reusable_result(unit) is None and lease_path.exists():
            # Report the failure only while we still own the claim —
            # lease paths are claimant-unique, so existence *is*
            # ownership.  A missing lease means we stalled past the
            # horizon and were reclaimed: the unit is pending again
            # or re-running elsewhere, and our verdict must not
            # clobber that retry's.  (The coordinator additionally
            # defers error documents while any live lease exists.)
            # And never clobber a valid result a racing executor
            # already wrote.
            atomic_write_json(unit.result_path,
                              error_document(unit, error))
        logger.warning("[worker %s] unit %s failed: %s: %s",
                       worker_id(), unit.unit_id,
                       type(error).__name__, error)
    complete_lease(paths, lease_path)
    return True


def run_worker(
    queue_dir: str | Path,
    *,
    poll_seconds: float = 0.2,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_units: int | None = None,
    idle_exit: float | None = None,
    exit_when_drained: bool = False,
    doorbell: socket.socket | None = None,
) -> int:
    """Drain a queue directory; returns units resolved (executed,
    failed-with-error-document, or completed from an existing
    result).  Abandoned unreadable descriptors are not counted.  See
    module docstring for the exit policy knobs and for ``doorbell``
    (:func:`stdin_doorbell`), which stays the caller's to close."""
    paths = queue_paths(queue_dir)
    bell = doorbell
    processed = 0
    idle_since = time.monotonic()
    while True:
        if max_units is not None and processed >= max_units:
            return processed
        lease = claim_next(paths)
        if lease is not None:
            if process_one(paths, lease, lease_seconds=lease_seconds):
                processed += 1
            if bell is not None and not ring(bell):
                bell = None  # the coordinator hung up: poll from now on
            idle_since = time.monotonic()
            continue
        # Nothing pending: recover orphans (that may repopulate
        # pending/), then decide whether to keep waiting.
        if reclaim_stale(paths, lease_seconds):
            continue
        drained = not any(paths.pending.glob("*.json")) and \
            not any(paths.leases.glob("*.json"))
        if exit_when_drained and drained:
            return processed
        if idle_exit is not None and \
                time.monotonic() - idle_since >= idle_exit:
            return processed
        if bell is None:
            time.sleep(poll_seconds)
        elif wait_for_bells([bell], poll_seconds):
            bell = None  # the coordinator hung up: poll from now on


def stdin_doorbell() -> socket.socket | None:
    """This process's stdin as a non-blocking socket when it is one
    (a coordinator-spawned worker's doorbell), else None."""
    try:
        if not stat.S_ISSOCK(os.fstat(0).st_mode):
            return None
        fd = os.dup(0)
    except OSError:
        return None
    try:
        bell = socket.socket(fileno=fd)
    except OSError:
        os.close(fd)
        return None
    bell.setblocking(False)
    return bell


@contextlib.contextmanager
def _unit_messages(quiet: bool) -> Iterator[None]:
    """Show the worker's per-unit messages on stderr, one per line,
    unless ``quiet``; the handler is gone again on exit."""
    handler: logging.Handler = logging.NullHandler() if quiet else \
        logging.StreamHandler(sys.stderr)
    level = logger.level
    logger.addHandler(handler)
    if not quiet:
        logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """The worker option surface, defined once — both entry points
    (``resim worker`` and ``python -m repro.exec``) build on it, so
    they cannot drift apart."""
    parser.add_argument("queue_dir", help="queue root directory "
                        "(shared by coordinator and all workers)")
    parser.add_argument("--poll-seconds", type=float, default=0.2,
                        help="wait between empty-queue scans")
    parser.add_argument("--lease-seconds", type=float,
                        default=DEFAULT_LEASE_SECONDS,
                        help="silence after which another worker may "
                             "reclaim a claimed unit")
    parser.add_argument("--max-units", type=int, default=None,
                        help="exit after processing this many units")
    parser.add_argument("--idle-exit", type=float, default=None,
                        help="exit after this many seconds without "
                             "finding work")
    parser.add_argument("--exit-when-drained", action="store_true",
                        help="exit once pending and leased units are "
                             "both empty (scripted/CI use)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-unit log lines")


def run_from_args(args: argparse.Namespace) -> int:
    """Validate parsed worker options and run the loop (the shared
    implementation behind both entry points)."""
    if args.poll_seconds <= 0:
        raise SystemExit(f"--poll-seconds must be positive, "
                         f"got {args.poll_seconds}")
    if args.lease_seconds <= 0:
        raise SystemExit(f"--lease-seconds must be positive, "
                         f"got {args.lease_seconds}")
    doorbell = stdin_doorbell()
    try:
        with _unit_messages(args.quiet):
            processed = run_worker(
                args.queue_dir,
                poll_seconds=args.poll_seconds,
                lease_seconds=args.lease_seconds,
                max_units=args.max_units,
                idle_exit=args.idle_exit,
                exit_when_drained=args.exit_when_drained,
                doorbell=doorbell,
            )
    finally:
        if doorbell is not None:
            doorbell.close()
    # Decoded segments lead: the line's opening text is what scripts
    # and tests match on.
    memos = memo_info()
    names = ["decoded segments",
             *sorted(memos.keys() - {"decoded segments"})]
    print(f"processed {processed} unit(s); " + "; ".join(
        f"{name}: {memos[name]['hits']} hit(s), "
        f"{memos[name]['misses']} miss(es)" for name in names))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="resim worker",
        description="Process work units from a shared-filesystem "
                    "queue (see repro.exec.queue).",
    )
    add_worker_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
