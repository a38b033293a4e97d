"""Fault-tolerant process-pool fan-out for embarrassingly parallel sweeps.

Every figure of the paper is a sweep: the profiler runs one full cycle-level
simulation per point of the ``(N, p)`` warp-tuple grid, and the evaluation
runs one per (scheme, kernel) pair.  The points are independent, so
:meth:`SweepExecutor.imap` fans them out over a ``ProcessPoolExecutor`` and
streams the results back in submission order, each as soon as it and every
earlier result are final: callers checkpoint as results land, aggregation
stays deterministic and the counters are bit-identical to a serial run.
``map`` is ``list(imap(...))``.  Closing the stream early (a stop request,
an exception in the consumer) starts no further job: queued jobs are
cancelled and the workers killed.

On top of the fan-out sits the fault-tolerance layer:

* **per-job wall-clock timeouts** (``timeout=``/``REPRO_TIMEOUT``) — the
  parent waits up to ``timeout`` on each job in turn, so time a job spends
  queued behind others never counts against it; a job still running after
  that wait is declared stalled, the pool restarted and the job retried;
* **bounded retry with deterministic jittered backoff**
  (``retries=``/``REPRO_RETRIES``; the backoff base is the fixed
  :data:`BACKOFF_BASE`) — transient failures (``OSError``, timeouts,
  worker death) are retried; exceptions raised by the job function itself
  (anything else) propagate unchanged, after every earlier result;
* **partial-result salvage** — when the pool breaks (OOM-killed worker,
  sandbox reaping) every future that already completed keeps its result and
  only the missing jobs are recomputed;
* **serial escalation** — a job that exhausts its pool attempts runs one
  final time in the parent process, which always works;
* a structured :class:`JobReport` (attempts, retries, timeouts, salvaged,
  escalated, pool restarts) in ``last_report``, current as of the latest
  result, and from :meth:`SweepExecutor.map_with_report`.

The worker count comes from ``jobs=`` or the ``REPRO_JOBS`` environment
variable, the one budget every ``--jobs`` flag sets (:func:`jobs_budget`)
and whose grammar it shares (:func:`jobs_arg`):

* unset or ``1`` — serial execution in-process (the default; this is also
  what tests use for determinism-by-construction),
* ``0`` or ``auto`` — one worker per CPU core,
* any other positive integer — that many workers,
* anything else — a one-time warning naming the bad value, then serial.

Worker processes force ``REPRO_JOBS=1`` for themselves, and an escalated
job runs under it too, so nested sweeps (e.g. a profile sweep inside a
parallel training run) never spawn pools of pools.  Timeouts cannot preempt the serial path (there is no worker to
abandon); serial execution still retries transient ``OSError``s.
"""

from __future__ import annotations

import argparse
import os
import random
import time
import warnings
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.runtime import faults

#: Environment variables controlling the fan-out and its failure policy.
JOBS_ENV = "REPRO_JOBS"
TIMEOUT_ENV = "REPRO_TIMEOUT"
RETRIES_ENV = "REPRO_RETRIES"

#: Default retry budget per job (attempts = retries + 1, then escalation).
DEFAULT_RETRIES = 2
#: Backoff base in seconds before a retry round (exponential, jittered, capped).
BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0

#: Exceptions treated as transient (retryable).  ``FaultInjectedError`` is an
#: ``OSError`` subclass, so injected faults ride the same policy as real ones.
RETRYABLE = (OSError,)

#: The (variable, bad value) pairs already warned about in this process.
_warned_env: Set[Tuple[str, str]] = set()


def env_number(
    env_var: str,
    cast: Callable[[str], Any],
    fallback: Any,
    fallback_desc: str,
) -> Any:
    """Parse a numeric environment variable with warn-once fallback.

    The single policy for every numeric ``REPRO_*`` runtime knob: an
    unset/blank variable silently takes the fallback, while a value
    ``cast`` rejects warns once — naming the bad value and what is used
    instead — and then takes the fallback.  Never raises, never silently
    swallows a typo.
    """
    raw = os.environ.get(env_var, "").strip()
    if not raw:
        return fallback
    try:
        return cast(raw)
    except (TypeError, ValueError):
        if (env_var, raw) not in _warned_env:
            _warned_env.add((env_var, raw))
            warnings.warn(
                f"{env_var}={raw!r} is not a valid value — falling back to "
                f"{fallback_desc}",
                RuntimeWarning,
                stacklevel=2,
            )
        return fallback


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The worker count: ``jobs``, else ``REPRO_JOBS``, else 1.

    0 means one worker per CPU core, as ``auto`` does in the environment.
    """
    if jobs is None:
        return env_number(JOBS_ENV, _parse_jobs, 1, "serial execution (1 job)")
    jobs = int(jobs)
    return max(1, jobs) if jobs else (os.cpu_count() or 1)


def _parse_jobs(raw: str) -> int:
    """A worker count from text: a non-negative integer or ``auto``."""
    value = raw.strip().lower()
    count = 0 if value == "auto" else int(value)
    if count < 0:
        raise ValueError(f"negative worker count {raw!r}")
    return resolve_jobs(count)


def jobs_arg(raw: str) -> int:
    """The argparse ``type`` of every ``--jobs`` flag: ``REPRO_JOBS``'s grammar."""
    try:
        return _parse_jobs(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs must be a non-negative integer or 'auto', got {raw!r}"
        ) from None


@contextmanager
def jobs_budget(jobs: Optional[int]) -> Iterator[None]:
    """Make a parsed ``--jobs`` value the ``REPRO_JOBS`` budget of every
    fan-out in this scope: the command's own and the nested ones its
    in-process jobs start (prefetched runs, profile grids, training).

    ``None`` (the flag was not given) leaves ``REPRO_JOBS`` as it is.
    """
    previous = os.environ.get(JOBS_ENV)
    if jobs is not None:
        os.environ[JOBS_ENV] = str(jobs)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(JOBS_ENV, None)
        else:
            os.environ[JOBS_ENV] = previous


def resolve_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-job wall-clock timeout in seconds; ``None``/``0`` disables."""
    if timeout is None:
        timeout = env_number(TIMEOUT_ENV, float, 0.0, "no per-job timeout")
    timeout = float(timeout)
    return timeout if timeout > 0 else None


def resolve_retries(retries: Optional[int] = None) -> int:
    """Retry budget per job (on top of the first attempt)."""
    if retries is None:
        retries = env_number(RETRIES_ENV, int, DEFAULT_RETRIES, f"{DEFAULT_RETRIES} retries")
    return max(0, int(retries))


def _worker_init() -> None:
    """Run in every pool worker: force serial execution for nested sweeps."""
    os.environ[JOBS_ENV] = "1"


def _job_with_cache_delta(fn: Callable, *args) -> Tuple[Any, Dict[str, int]]:
    """Run one pool job; return its result and the cache counters it moved.

    ``CacheStats`` counters are per process, so a parallel sweep's
    worker-side hits and misses would otherwise never reach the parent (the
    documented blind spot of the telemetry layer); the parent folds the
    shipped deltas into :attr:`JobReport.worker_cache`.
    """
    from repro.runtime.cache import cache_stats

    before = cache_stats().snapshot()
    result = fn(*args)
    return result, cache_stats().delta(before).to_dict()


@dataclass(frozen=True)
class JobReport:
    """Structured failure accounting of one :meth:`SweepExecutor.imap` call."""

    jobs: int
    attempts: int
    retries: int
    timeouts: int
    transient_errors: int
    salvaged: int
    escalated: int
    pool_restarts: int
    injected: int
    #: Cache counters accumulated *inside* pool workers (summed over jobs),
    #: or ``None`` for a serial run (the parent's own counters already
    #: account for everything).  Closes the per-process counter blind spot.
    worker_cache: Optional[Dict[str, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        """The plain-dict form telemetry sidecars and bench entries embed."""
        return asdict(self)

    @property
    def clean(self) -> bool:
        """True when every job succeeded on its first attempt."""
        return not (
            self.retries
            or self.timeouts
            or self.transient_errors
            or self.salvaged
            or self.escalated
            or self.pool_restarts
        )

    def summary(self) -> str:
        retries = f"{self.retries} {'retry' if self.retries == 1 else 'retries'}"
        parts = [
            f"{self.jobs} jobs",
            f"{self.attempts} attempts ({retries})",
        ]
        if self.timeouts:
            parts.append(f"{self.timeouts} timed out")
        if self.transient_errors:
            parts.append(f"{self.transient_errors} transient errors")
        if self.salvaged:
            parts.append(f"{self.salvaged} salvaged")
        if self.escalated:
            parts.append(f"{self.escalated} escalated to serial")
        if self.pool_restarts:
            restarts = "restart" if self.pool_restarts == 1 else "restarts"
            parts.append(f"{self.pool_restarts} pool {restarts}")
        if self.injected:
            parts.append(f"{self.injected} fault-injected")
        return ", ".join(parts)


class SweepExecutor:
    """Order-preserving, fault-tolerant, streamed map over independent jobs.

    ``imap(fn, args_list)`` yields what ``(fn(*args) for args in args_list)``
    would, but fans the calls out over ``jobs`` worker processes when
    ``jobs > 1``.  ``fn`` must be picklable (a module-level function, or a
    bound method of a picklable object) and so must every argument (an
    unpicklable argument raises, loudly — it is a programming error, not an
    environment problem).  Pool-*infrastructure* failures — a sandbox that
    forbids subprocesses, a fork failure, workers dying, stalls past the
    per-job timeout — are retried, salvaged around and ultimately escalated
    to the serial path, which always works; exceptions raised by ``fn``
    itself propagate unchanged.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.timeout = resolve_timeout(timeout)
        self.retries = resolve_retries(retries)
        # The latest imap's accounting: attempts per job, the jobs a fault
        # was injected into, event counts, and the cache counters pool
        # workers shipped home.
        self._attempts: Optional[List[int]] = None
        self._injected: Set[int] = set()
        self._events: Counter = Counter()
        self._worker_cache: Counter = Counter()

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    @property
    def last_report(self) -> Optional[JobReport]:
        """The :class:`JobReport` of the latest :meth:`imap` (or ``map``),
        current as of its latest result; ``None`` before the first."""
        if self._attempts is None:
            return None
        events = self._events
        return JobReport(
            jobs=len(self._attempts),
            attempts=sum(self._attempts),
            retries=sum(max(0, count - 1) for count in self._attempts),
            timeouts=events["timeouts"],
            transient_errors=events["transient_errors"],
            salvaged=events["salvaged"],
            escalated=events["escalated"],
            pool_restarts=events["pool_restarts"],
            injected=len(self._injected),
            worker_cache=dict(self._worker_cache) or None,
        )

    # -- public API ---------------------------------------------------------------

    def imap(self, fn: Callable, args_list: Sequence[Tuple]) -> Iterator[Any]:
        """Yield ``fn(*args)`` for every ``args``, in submission order.

        Each result is yielded as soon as it and every earlier result are
        final.  Jobs run in-process when ``jobs <= 1`` (or there is only
        one), otherwise on the pool.  Closing the generator before it is
        exhausted starts no further job.
        """
        args_list = list(args_list)
        self._attempts = [0] * len(args_list)
        self._injected = set()
        self._events = Counter()
        self._worker_cache = Counter()
        if self.jobs <= 1 or len(args_list) <= 1:
            landed = (
                (index, self._run_serial(fn, args, index))
                for index, args in enumerate(args_list)
            )
        else:
            landed = self._run_pool(fn, args_list)
        finished: Dict[int, Any] = {}
        ready = 0
        with closing(landed):
            for index, result in landed:
                finished[index] = result
                while ready in finished:
                    if ready == len(args_list) - 1:
                        # Every job is done: let the pool shut down cleanly
                        # before the last result goes out, since a consumer
                        # that stops after it closes rather than exhausts us.
                        next(landed, None)
                    yield finished.pop(ready)
                    ready += 1

    def map(self, fn: Callable, args_list: Sequence[Tuple]) -> List[Any]:
        """Every result of :meth:`imap`, in submission order."""
        return list(self.imap(fn, args_list))

    def map_with_report(
        self, fn: Callable, args_list: Sequence[Tuple]
    ) -> Tuple[List[Any], JobReport]:
        """Like :meth:`map`, returning the failure accounting alongside."""
        results = self.map(fn, args_list)
        return results, self.last_report

    # -- serial path --------------------------------------------------------------

    def _run_serial(self, fn: Callable, args: Tuple, index: int) -> Any:
        """In-process execution with bounded retry on transient errors."""
        for attempt in range(self.retries + 1):
            self._attempts[index] += 1
            try:
                return fn(*args)
            except RETRYABLE:
                self._events["transient_errors"] += 1
                if attempt == self.retries:
                    raise
                self._sleep_backoff(attempt + 1, index)

    def _sleep_backoff(self, round_index: int, salt: int = 0) -> None:
        """Deterministic jittered exponential backoff before a retry round."""
        spec = faults.active_spec()
        seed = spec.seed if spec is not None else 0
        jitter = random.Random(f"{seed}:{round_index}:{salt}").random()
        delay = BACKOFF_BASE * (2 ** (round_index - 1)) * (0.5 + jitter)
        time.sleep(min(delay, _BACKOFF_CAP))

    # -- parallel path ------------------------------------------------------------

    def _run_pool(self, fn: Callable, args_list: List[Tuple]) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, result)`` as pool rounds finish jobs.

        Each round submits one attempt of every pending job.  On the way
        out — exhausted, closed early or failed — the pool is shut down, and
        killed unless every job finished.
        """
        spec = faults.active_spec()
        pending = list(range(len(args_list)))
        pool: Optional[ProcessPoolExecutor] = None
        round_index = 0
        try:
            while pending:
                # Jobs that exhausted their pool attempts run one final time
                # in this process — the path that cannot be OOM-killed —
                # serially inside, as a pool worker runs them: a nested pool
                # here would have none of this one's timeout.
                for index in [i for i in pending if self._attempts[i] > self.retries]:
                    self._events["escalated"] += 1
                    self._attempts[index] += 1
                    pending.remove(index)
                    with jobs_budget(1):
                        result = fn(*args_list[index])
                    yield index, result
                if not pending:
                    break
                if round_index:
                    self._sleep_backoff(round_index)
                round_index += 1
                try:
                    if pool is None:
                        pool = ProcessPoolExecutor(
                            max_workers=min(self.jobs, len(pending)),
                            initializer=_worker_init,
                        )
                    futures = [
                        self._submit(pool, fn, args_list, index, spec) for index in pending
                    ]
                except (OSError, ValueError):
                    # The environment cannot start worker processes (a
                    # sandbox without semaphores, a failed fork: workers are
                    # spawned on submission) — finish on the serial path.
                    if pool is not None:
                        self._teardown(pool)
                        pool = None
                    for index in pending:
                        yield index, self._run_serial(fn, args_list[index], index)
                    return
                pending, abandoned = yield from self._run_round(pool, pending, futures)
                if abandoned:
                    pool = None
                    self._events["pool_restarts"] += 1
        except BaseException:
            if pool is not None:
                self._teardown(pool)
            raise
        if pool is not None:
            pool.shutdown(wait=True)

    def _run_round(
        self, pool: ProcessPoolExecutor, pending: List[int], futures: List[Future]
    ):
        """Wait on each submitted attempt of the pending jobs in turn.

        Yields ``(index, result)`` as results land and returns the jobs to
        retry plus whether the pool was abandoned.  A stall or a broken pool
        abandons it: the parent stops waiting, salvages every result that
        already exists (those jobs are done, not recomputed) and kills the
        pool.  An exception from ``fn`` is raised after the same salvage, so
        the attempts of the jobs that completed are still counted.
        """
        retry: List[int] = []
        salvaged: List[Tuple[int, Any]] = []
        abandon = False
        fatal: Optional[BaseException] = None
        for index, future in zip(pending, futures):
            salvaging = abandon or fatal is not None
            if salvaging and (not future.done() or future.cancelled()):
                future.cancel()
                retry.append(index)  # never ran: no attempt consumed
                continue
            self._attempts[index] += 1
            try:
                result = self._absorb(
                    future.result(timeout=None if salvaging else self.timeout)
                )
            except FutureTimeoutError:
                self._events["timeouts"] += 1
                retry.append(index)
                future.cancel()
                # A stalled worker still occupies its slot; the only way to
                # reclaim it is to abandon this pool and start fresh.
                abandon = True
            except BrokenProcessPool:
                retry.append(index)
                abandon = True
            except RETRYABLE:
                self._events["transient_errors"] += 1
                retry.append(index)
            except BaseException as error:
                # fn's own failure: propagates unchanged once the jobs that
                # already completed are salvaged.
                if fatal is None:
                    fatal = error
            else:
                if salvaging:
                    self._events["salvaged"] += 1
                    salvaged.append((index, result))
                else:
                    yield index, result
        if fatal is not None:
            raise fatal
        if abandon:
            self._teardown(pool)
        yield from salvaged
        return retry, abandon

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        fn: Callable,
        args_list: List[Tuple],
        index: int,
        spec: Optional[faults.FaultSpec],
    ) -> Future:
        """Submit one attempt of job ``index``, with its injected fault if any."""
        action = None
        if spec is not None:
            action = spec.executor_action(index, self._attempts[index], len(args_list))
        if action is None:
            return pool.submit(_job_with_cache_delta, fn, *args_list[index])
        future = pool.submit(
            faults.invoke_with_fault,
            action,
            spec.stall_seconds,
            spec.crash_delay_seconds,
            _job_with_cache_delta,
            fn,
            *args_list[index],
        )
        self._injected.add(index)
        return future

    def _absorb(self, shipped: Tuple[Any, Dict[str, int]]) -> Any:
        """Unpack a pool job's ``(result, cache delta)``, folding the delta home."""
        result, cache = shipped
        self._worker_cache.update({key: count for key, count in cache.items() if count})
        return result

    @staticmethod
    def _teardown(pool: ProcessPoolExecutor) -> None:
        """Abandon a pool without waiting on its jobs.

        Queued jobs are cancelled.  ``shutdown(wait=False)`` alone would
        leave a stalled worker running (and the interpreter joining it at
        exit), so the workers are killed outright — exactly what the fault
        model assumes an operator or the kernel OOM-killer does to a wedged
        job — and reaped, so none outlives the pool.
        """
        # Snapshot the workers first: shutdown(wait=False) drops the pool's
        # ``_processes`` reference.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.kill()
                process.join()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
