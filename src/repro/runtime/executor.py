"""Fault-tolerant process-pool fan-out for embarrassingly parallel sweeps.

Every figure of the paper is a sweep: the profiler runs one full cycle-level
simulation per point of the ``(N, p)`` warp-tuple grid, and the evaluation
runs one per (scheme, kernel) pair.  The points are independent, so the
:class:`SweepExecutor` fans them out over a ``ProcessPoolExecutor`` and
returns results in submission order — aggregation stays deterministic and
the counters are bit-identical to a serial run.

On top of the fan-out sits the fault-tolerance layer:

* **per-job wall-clock timeouts** (``timeout=``/``REPRO_TIMEOUT``) — a hung
  or stalled worker is abandoned, the pool restarted, and the job retried;
* **bounded retry with deterministic jittered backoff**
  (``retries=``/``REPRO_RETRIES``; the backoff base is the fixed
  :data:`BACKOFF_BASE`) — transient failures (``OSError``, timeouts,
  worker death) are retried; exceptions raised by the job function itself
  (anything else) propagate unchanged;
* **partial-result salvage** — when the pool breaks (OOM-killed worker,
  sandbox reaping) every future that already completed keeps its result and
  only the missing jobs are recomputed;
* **serial escalation** — a job that exhausts its pool attempts runs one
  final time in the parent process, which always works;
* a structured :class:`JobReport` (attempts, retries, timeouts, salvaged,
  escalated, pool restarts) surfaced to callers via
  :meth:`SweepExecutor.map_with_report` / ``last_report``.

The worker count comes from the ``REPRO_JOBS`` environment variable:

* unset or ``1`` — serial execution in-process (the default; this is also
  what tests use for determinism-by-construction),
* ``0`` or ``auto`` — one worker per CPU core,
* any other integer — that many workers,
* anything else — a one-time warning naming the bad value, then serial.

Worker processes force ``REPRO_JOBS=1`` for themselves so nested sweeps
(e.g. a profile sweep inside a parallel training run) never spawn pools of
pools.  Timeouts cannot preempt the serial path (there is no worker to
abandon); serial execution still retries transient ``OSError``s.
"""

from __future__ import annotations

import os
import random
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

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

_warned_env: Set[Tuple[str, str]] = set()


def _warn_once(env_var: str, raw: str, fallback: str) -> None:
    """One warning per (variable, bad value) per process — loud, not fatal."""
    key = (env_var, raw)
    if key in _warned_env:
        return
    _warned_env.add(key)
    warnings.warn(
        f"{env_var}={raw!r} is not a valid value — falling back to {fallback}",
        RuntimeWarning,
        stacklevel=3,
    )


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
        _warn_once(env_var, raw, fallback_desc)
        return fallback


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve an explicit or environment-provided worker count to an int."""
    if jobs is not None:
        return max(1, int(jobs))

    def cast(raw: str) -> int:
        raw = raw.lower()
        if raw in ("0", "auto"):
            return os.cpu_count() or 1
        return max(1, int(raw))

    return env_number(JOBS_ENV, cast, 1, "serial execution (1 job)")


def resolve_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-job wall-clock timeout in seconds; ``None``/``0`` disables."""
    if timeout is not None:
        timeout = float(timeout)
        return timeout if timeout > 0 else None

    def cast(raw: str) -> Optional[float]:
        value = float(raw)
        return value if value > 0 else None

    return env_number(TIMEOUT_ENV, cast, None, "no per-job timeout")


def resolve_retries(retries: Optional[int] = None) -> int:
    """Retry budget per job (on top of the first attempt)."""
    if retries is not None:
        return max(0, int(retries))
    return env_number(
        RETRIES_ENV,
        lambda raw: max(0, int(raw)),
        DEFAULT_RETRIES,
        f"{DEFAULT_RETRIES} retries",
    )


def _worker_init() -> None:
    """Run in every pool worker: force serial execution for nested sweeps."""
    os.environ[JOBS_ENV] = "1"


@dataclass
class _WorkerEnvelope:
    """A pool-worker result plus the cache counters it accumulated.

    ``CacheStats`` counters are per process, so a parallel sweep's worker-side
    hits and misses would otherwise never reach the parent (the documented
    blind spot of the telemetry layer).  Every pool job is wrapped in
    :func:`_job_with_cache_delta`, which brackets the job with a counter
    snapshot and ships the delta home inside this envelope; the parent
    unwraps it and folds the deltas into :attr:`JobReport.worker_cache`.
    """

    result: Any
    cache: Dict[str, int]


def _job_with_cache_delta(fn: Callable, *args) -> "_WorkerEnvelope":
    """Module-level (picklable) pool-job wrapper measuring cache counters."""
    from repro.runtime.cache import cache_stats

    before = cache_stats().snapshot()
    result = fn(*args)
    return _WorkerEnvelope(result, cache_stats().delta(before).to_dict())


@dataclass
class JobRecord:
    """Per-job bookkeeping accumulated while a map call executes."""

    index: int
    attempts: int = 0
    timeouts: int = 0
    transient_errors: int = 0
    salvaged: bool = False
    escalated: bool = False
    injected: Optional[str] = None  # first injected fault action, if any


@dataclass(frozen=True)
class JobReport:
    """Structured failure accounting of one :meth:`SweepExecutor.map` call."""

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

    @classmethod
    def from_records(
        cls,
        records: Sequence[JobRecord],
        pool_restarts: int = 0,
        worker_cache: Optional[Dict[str, int]] = None,
    ) -> "JobReport":
        return cls(
            jobs=len(records),
            attempts=sum(record.attempts for record in records),
            retries=sum(max(0, record.attempts - 1) for record in records),
            timeouts=sum(record.timeouts for record in records),
            transient_errors=sum(record.transient_errors for record in records),
            salvaged=sum(record.salvaged for record in records),
            escalated=sum(record.escalated for record in records),
            pool_restarts=pool_restarts,
            injected=sum(record.injected is not None for record in records),
            worker_cache=dict(worker_cache) if worker_cache else None,
        )

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
    """Order-preserving, fault-tolerant map over independent simulation jobs.

    ``map(fn, args_list)`` behaves like ``[fn(*args) for args in args_list]``
    but fans the calls out over ``jobs`` worker processes when ``jobs > 1``.
    ``fn`` must be a module-level function and every argument picklable
    (an unpicklable argument raises, loudly — it is a programming error,
    not an environment problem).  Pool-*infrastructure* failures — a
    sandbox that forbids subprocesses, a fork failure, workers dying,
    stalls past the per-job timeout — are retried, salvaged around and
    ultimately escalated to the serial path, which always works;
    exceptions raised by ``fn`` itself propagate unchanged.
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
        #: The :class:`JobReport` of the most recent map call (or ``run_one``
        #: sequence); ``None`` until something has executed.
        self.last_report: Optional[JobReport] = None
        self._records: List[JobRecord] = []
        self._pool_restarts = 0
        self._worker_cache: Dict[str, int] = {}

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    # -- public API ---------------------------------------------------------------

    def map(self, fn: Callable, args_list: Sequence[Tuple]) -> List[Any]:
        results, self.last_report = self.map_with_report(fn, args_list)
        return results

    def map_with_report(
        self, fn: Callable, args_list: Sequence[Tuple]
    ) -> Tuple[List[Any], JobReport]:
        """Like :meth:`map`, returning the failure accounting alongside."""
        args_list = list(args_list)
        self._records = [JobRecord(index) for index in range(len(args_list))]
        self._pool_restarts = 0
        self._worker_cache = {}
        if self.jobs <= 1 or len(args_list) <= 1:
            results = [
                self._run_serial(fn, args, record)
                for args, record in zip(args_list, self._records)
            ]
        else:
            results = self._map_parallel(fn, args_list)
        report = JobReport.from_records(
            self._records, self._pool_restarts, self._worker_cache
        )
        self.last_report = report
        return results, report

    def run_one(self, fn: Callable, args: Tuple) -> Any:
        """Execute a single job serially under the retry policy.

        Used by callers that stream results one at a time (so artifacts can
        checkpoint as they land) while still accumulating a report: each
        call appends to the running accounting in ``last_report``.
        """
        if self.last_report is None:
            self._records = []
            self._pool_restarts = 0
            self._worker_cache = {}
        record = JobRecord(len(self._records))
        self._records.append(record)
        try:
            return self._run_serial(fn, args, record)
        finally:
            self.last_report = JobReport.from_records(
                self._records, self._pool_restarts, self._worker_cache
            )

    # -- serial path --------------------------------------------------------------

    def _run_serial(self, fn: Callable, args: Tuple, record: JobRecord) -> Any:
        """In-process execution with bounded retry on transient errors."""
        attempt = 0
        while True:
            record.attempts += 1
            try:
                return fn(*args)
            except RETRYABLE:
                record.transient_errors += 1
                if attempt >= self.retries:
                    raise
                self._sleep_backoff(attempt + 1, record.index)
                attempt += 1

    def _sleep_backoff(self, round_index: int, salt: int = 0) -> None:
        """Deterministic jittered exponential backoff before a retry round."""
        spec = faults.active_spec()
        seed = spec.seed if spec is not None else 0
        jitter = random.Random(f"{seed}:{round_index}:{salt}").random()
        delay = BACKOFF_BASE * (2 ** (round_index - 1)) * (0.5 + jitter)
        time.sleep(min(delay, _BACKOFF_CAP))

    # -- parallel path ------------------------------------------------------------

    def _map_parallel(self, fn: Callable, args_list: List[Tuple]) -> List[Any]:
        population = len(args_list)
        spec = faults.active_spec()
        records = self._records
        results: Dict[int, Any] = {}
        pending = list(range(population))
        pool: Optional[ProcessPoolExecutor] = None
        max_attempts = self.retries + 1
        round_index = 0
        try:
            while pending:
                # Jobs that exhausted their pool attempts run one final time
                # in this process — the path that cannot be OOM-killed.
                exhausted = [
                    index for index in pending if records[index].attempts >= max_attempts
                ]
                for index in exhausted:
                    records[index].escalated = True
                    records[index].attempts += 1
                    results[index] = fn(*args_list[index])
                if exhausted:
                    pending = [index for index in pending if index not in set(exhausted)]
                    if not pending:
                        break
                if round_index:
                    self._sleep_backoff(round_index)
                if pool is None:
                    try:
                        pool = ProcessPoolExecutor(
                            max_workers=min(self.jobs, len(pending)),
                            initializer=_worker_init,
                        )
                    except (OSError, PermissionError, ValueError):
                        # The environment cannot spawn worker processes at
                        # all — finish everything on the serial path.
                        for index in pending:
                            results[index] = self._run_serial(
                                fn, args_list[index], records[index]
                            )
                        pending = []
                        break
                pending = self._run_round(
                    pool, fn, args_list, pending, records, results, spec
                )
                if self._pool_abandoned:
                    pool = None
                round_index += 1
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        return [results[index] for index in range(population)]

    _pool_abandoned = False

    def _run_round(
        self,
        pool: ProcessPoolExecutor,
        fn: Callable,
        args_list: List[Tuple],
        pending: List[int],
        records: List[JobRecord],
        results: Dict[int, Any],
        spec: Optional[faults.FaultSpec],
    ) -> List[int]:
        """Submit one attempt for every pending job; return the jobs to retry."""
        self._pool_abandoned = False
        population = len(args_list)
        futures = []
        for index in pending:
            action = None
            if spec is not None:
                action = spec.executor_action(index, records[index].attempts, population)
                if action is not None and records[index].injected is None:
                    records[index].injected = action
            if action is None:
                futures.append(
                    pool.submit(_job_with_cache_delta, fn, *args_list[index])
                )
            else:
                futures.append(
                    pool.submit(
                        faults.invoke_with_fault,
                        action,
                        spec.stall_seconds,
                        spec.crash_delay_seconds,
                        _job_with_cache_delta,
                        fn,
                        *args_list[index],
                    )
                )
        submitted = time.monotonic()
        abandon = False
        fatal: Optional[BaseException] = None
        retry: List[int] = []
        for index, future in zip(pending, futures):
            record = records[index]
            if abandon or fatal is not None:
                # The pool is compromised (stall or break) or a job failed
                # fatally: stop waiting, but salvage every result that
                # already exists — those jobs are done, not recomputed.
                if future.done() and not future.cancelled():
                    error = future.exception()
                    if error is None:
                        record.attempts += 1
                        record.salvaged = True
                        results[index] = self._absorb(future.result())
                    elif isinstance(error, BrokenProcessPool):
                        record.attempts += 1
                        retry.append(index)
                    elif isinstance(error, RETRYABLE):
                        record.attempts += 1
                        record.transient_errors += 1
                        retry.append(index)
                    elif fatal is None:
                        record.attempts += 1
                        fatal = error
                else:
                    future.cancel()
                    retry.append(index)  # never ran: no attempt consumed
                continue
            try:
                if self.timeout is not None:
                    remaining = max(0.0, submitted + self.timeout - time.monotonic())
                    results[index] = self._absorb(future.result(timeout=remaining))
                else:
                    results[index] = self._absorb(future.result())
                record.attempts += 1
            except FutureTimeoutError:
                record.attempts += 1
                record.timeouts += 1
                retry.append(index)
                future.cancel()
                # A stalled worker still occupies its slot; the only way to
                # reclaim it is to abandon this pool and start fresh.
                abandon = True
            except BrokenProcessPool:
                record.attempts += 1
                retry.append(index)
                abandon = True
            except RETRYABLE:
                record.attempts += 1
                record.transient_errors += 1
                retry.append(index)
            except BaseException as error:
                # fn's own failure: propagate unchanged (after salvaging the
                # jobs that already completed, so their attempts are logged).
                record.attempts += 1
                fatal = error
        if abandon or fatal is not None:
            self._teardown(pool)
            self._pool_abandoned = True
            if abandon:
                self._pool_restarts += 1
        if fatal is not None:
            raise fatal
        return retry

    def _absorb(self, value: Any) -> Any:
        """Unwrap a pool-worker envelope, folding its cache delta home."""
        if isinstance(value, _WorkerEnvelope):
            for key, count in value.cache.items():
                if count:
                    self._worker_cache[key] = self._worker_cache.get(key, 0) + count
            return value.result
        return value

    @staticmethod
    def _teardown(pool: ProcessPoolExecutor) -> None:
        """Abandon a pool without waiting on hung workers.

        ``shutdown(wait=False)`` alone would leave a stalled worker running
        (and the interpreter joining it at exit), so any processes still
        alive are killed outright — exactly what the fault model assumes an
        operator or the kernel OOM-killer does to a wedged job.
        """
        # Snapshot the workers first: shutdown(wait=False) drops the pool's
        # ``_processes`` reference, and a stalled worker that outlives it
        # would be joined at interpreter exit — hanging the whole run.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.kill()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
