"""Deterministic fault injection for the fault-tolerant runtime.

The recovery machinery — per-job timeouts, retries, partial-result salvage,
corrupt-artifact quarantine — is proven the same way the fast engine was:
differentially.  A sweep executed under injected faults must produce
artifacts byte-identical to a fault-free run.  This module supplies the
faults: seeded worker crashes, stalls past the per-job timeout, torn
artifact writes and transient ``OSError``s, injected at named sites in the
executor, the disk cache and the sweep runner.

Injection is driven entirely by the ``REPRO_FAULTS`` environment variable
and is **fully disabled when it is unset** — every hook first performs a
cheap ``FAULTS_ENV in os.environ`` check, so production runs pay nothing.

Spec grammar (comma-separated tokens)::

    REPRO_FAULTS="seed=7,executor:crash:1,executor:stall:1,runner.write:truncate:1,cache.store:oserror:2"

* ``seed=N`` — seeds target selection (default 0).  Same seed, same spec and
  same population ⇒ the same jobs/points are faulted.
* ``stall=SECONDS`` — how long an injected stall sleeps (default 30).
* ``crash_delay=SECONDS`` — how long an injected crash idles before killing
  its worker (default 0.75), so sibling jobs get a chance to complete and
  exercise the salvage path.
* ``SITE:MODE[:COUNT][:all]`` — inject ``COUNT`` faults (default 1) of
  ``MODE`` at ``SITE``.  The trailing ``:all`` makes the fault fire on
  *every* pool attempt of its target jobs (forcing serial escalation)
  instead of only the first.

Sites and modes:

``executor``
    ``crash`` (the worker process dies mid-job), ``stall`` (the worker
    sleeps ``stall`` seconds before running the job) and ``oserror`` (the
    job raises a transient :class:`FaultInjectedError`).  Targets are a
    seeded sample of the job indices of one ``map`` call; faults are
    injected only on the parallel pool path — the serial path is the
    controlled last resort and stays pure.
``runner.write``
    ``truncate`` (the point artifact is torn mid-write) and ``corrupt``
    (it is replaced by well-formed JSON of the wrong format).  Targets are
    a seeded sample of the to-compute point indices of one sweep run.
``cache.store`` / ``cache.load``
    ``oserror`` — the first ``COUNT`` cache operations *per process* raise
    a transient :class:`FaultInjectedError`.  The cache is best-effort by
    contract, so these prove that a flaky disk degrades to recomputation,
    never to a wrong or missing result.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Mapping, Optional, Tuple

#: Environment variable holding the fault spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Known sites and, per site, the injectable modes in priority order (when a
#: seeded sample assigns two modes to the same target, the first one wins).
SITES: Mapping[str, Tuple[str, ...]] = {
    "executor": ("crash", "stall", "oserror"),
    "runner.write": ("truncate", "corrupt"),
    "cache.store": ("oserror",),
    "cache.load": ("oserror",),
}

DEFAULT_STALL_SECONDS = 30.0
DEFAULT_CRASH_DELAY_SECONDS = 0.75

#: Exit status of a crash-injected worker (distinctive, for post-mortems).
CRASH_EXIT_STATUS = 86


class FaultSpecError(ValueError):
    """The ``REPRO_FAULTS`` spec is malformed."""


class FaultInjectedError(OSError):
    """A deliberately injected transient failure.

    Subclasses :class:`OSError` so every generic transient-error handler
    (cache best-effort wrappers, executor retry policy) treats it exactly
    like the real environment failure it simulates.
    """


@dataclass(frozen=True)
class FaultSpec:
    """A parsed, validated ``REPRO_FAULTS`` specification."""

    seed: int = 0
    stall_seconds: float = DEFAULT_STALL_SECONDS
    crash_delay_seconds: float = DEFAULT_CRASH_DELAY_SECONDS
    #: (site, mode) -> (count, fire on every pool attempt)
    counts: Mapping[Tuple[str, str], Tuple[int, bool]] = field(default_factory=dict)

    # -- parsing ----------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        seed = 0
        stall = DEFAULT_STALL_SECONDS
        crash_delay = DEFAULT_CRASH_DELAY_SECONDS
        counts: Dict[Tuple[str, str], Tuple[int, bool]] = {}
        for token in (piece.strip() for piece in text.split(",")):
            if not token:
                continue
            if "=" in token:
                key, _, raw = token.partition("=")
                key = key.strip().lower()
                try:
                    if key == "seed":
                        seed = int(raw)
                    elif key == "stall":
                        stall = float(raw)
                    elif key == "crash_delay":
                        crash_delay = float(raw)
                    else:
                        raise FaultSpecError(
                            f"unknown {FAULTS_ENV} parameter {key!r} "
                            f"(known: seed, stall, crash_delay)"
                        )
                except ValueError as error:
                    if isinstance(error, FaultSpecError):
                        raise
                    raise FaultSpecError(
                        f"{FAULTS_ENV} parameter {token!r} is not numeric"
                    ) from None
                continue
            parts = token.split(":")
            if len(parts) < 2:
                raise FaultSpecError(
                    f"malformed {FAULTS_ENV} token {token!r} — expected "
                    f"SITE:MODE[:COUNT][:all]"
                )
            site, mode = parts[0].strip(), parts[1].strip()
            if site not in SITES:
                raise FaultSpecError(
                    f"unknown fault site {site!r} (known sites: {', '.join(SITES)})"
                )
            if mode not in SITES[site]:
                raise FaultSpecError(
                    f"site {site!r} has no mode {mode!r} "
                    f"(known modes: {', '.join(SITES[site])})"
                )
            count, every_attempt = 1, False
            for extra in parts[2:]:
                extra = extra.strip().lower()
                if extra == "all":
                    every_attempt = True
                    continue
                try:
                    count = int(extra)
                except ValueError:
                    raise FaultSpecError(
                        f"malformed {FAULTS_ENV} token {token!r} — "
                        f"{extra!r} is neither a count nor 'all'"
                    ) from None
                if count < 1:
                    raise FaultSpecError(
                        f"malformed {FAULTS_ENV} token {token!r} — count must be >= 1"
                    )
            previous = counts.get((site, mode), (0, False))
            counts[(site, mode)] = (previous[0] + count, previous[1] or every_attempt)
        if not counts:
            raise FaultSpecError(
                f"{FAULTS_ENV} names no faults — expected at least one "
                f"SITE:MODE[:COUNT] token"
            )
        return cls(
            seed=seed,
            stall_seconds=stall,
            crash_delay_seconds=crash_delay,
            counts=counts,
        )

    # -- deterministic target selection ------------------------------------------

    def count(self, site: str, mode: str) -> int:
        return self.counts.get((site, mode), (0, False))[0]

    def every_attempt(self, site: str, mode: str) -> bool:
        return self.counts.get((site, mode), (0, False))[1]

    def targets(self, site: str, mode: str, population: int) -> FrozenSet[int]:
        """The seeded sample of indices faulted at ``(site, mode)``.

        A pure function of ``(seed, site, mode, population)``: the same spec
        over the same population always faults the same indices, in every
        process — that is what makes chaos runs reproducible.
        """
        count = self.count(site, mode)
        if count <= 0 or population <= 0:
            return frozenset()
        rng = random.Random(f"{self.seed}:{site}:{mode}")
        return frozenset(rng.sample(range(population), min(count, population)))

    def site_plan(self, site: str, population: int) -> Dict[int, str]:
        """``{index: mode}`` over a population, modes resolved by priority."""
        plan: Dict[int, str] = {}
        for mode in SITES[site]:
            for index in sorted(self.targets(site, mode, population)):
                plan.setdefault(index, mode)
        return plan

    def executor_action(
        self, index: int, attempt: int, population: int
    ) -> Optional[str]:
        """The fault action for job ``index`` on ``attempt`` (0-based), if any."""
        for mode in SITES["executor"]:
            if index not in self.targets("executor", mode, population):
                continue
            if attempt == 0 or self.every_attempt("executor", mode):
                return mode
        return None

    def describe(self) -> str:
        """Compact one-line rendering for failure-accounting summaries."""
        parts = [f"seed={self.seed}"]
        for (site, mode), (count, every_attempt) in sorted(self.counts.items()):
            suffix = ":all" if every_attempt else ""
            parts.append(f"{site}:{mode}×{count}{suffix}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# process-global activation
# ---------------------------------------------------------------------------

#: (raw env text, parsed spec) — re-parsed only when the env text changes.
_parsed: Tuple[Optional[str], Optional[FaultSpec]] = (None, None)

#: Fired-fault budgets for counter-based sites: (raw, site, mode) -> fired.
_fired: Dict[Tuple[str, str, str], int] = {}


def active_spec() -> Optional[FaultSpec]:
    """The spec parsed from ``REPRO_FAULTS``, or ``None`` when unset/blank.

    A malformed spec raises :class:`FaultSpecError` — fault injection is an
    operator-driven chaos tool, and silently ignoring a typo'd spec would
    report a clean run that never was chaotic.
    """
    global _parsed
    raw = os.environ.get(FAULTS_ENV)
    if raw is None or not raw.strip():
        return None
    if raw != _parsed[0]:
        _parsed = (raw, FaultSpec.parse(raw))
    return _parsed[1]


def reset_fault_state() -> None:
    """Forget fired-fault budgets and the parse cache (test isolation)."""
    global _parsed
    _parsed = (None, None)
    _fired.clear()


def maybe_raise(site: str) -> None:
    """Counter-based injection hook for the cache sites.

    The first ``COUNT`` invocations at ``site`` in this process raise a
    :class:`FaultInjectedError`; later ones pass.  No-op (one dict lookup)
    when ``REPRO_FAULTS`` is unset.
    """
    if FAULTS_ENV not in os.environ:
        return
    spec = active_spec()
    if spec is None:
        return
    raw = os.environ[FAULTS_ENV]
    for mode in SITES.get(site, ()):
        budget = spec.count(site, mode)
        if budget <= 0:
            continue
        key = (raw, site, mode)
        fired = _fired.get(key, 0)
        if fired < budget:
            _fired[key] = fired + 1
            raise FaultInjectedError(
                f"injected {mode} at {site} ({fired + 1}/{budget})"
            )


def corrupt_artifact(path, mode: str) -> None:
    """Apply a ``runner.write`` fault to an already-written artifact file.

    ``truncate`` simulates a torn write that bypassed rename atomicity (half
    the bytes survive); ``corrupt`` simulates a stale writer clobbering the
    file with well-formed JSON of the wrong format.
    """
    if mode == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
    elif mode == "corrupt":
        path.write_text('{"format_version": -1, "kind": "injected-corruption"}')
    else:  # pragma: no cover - guarded by spec validation
        raise FaultSpecError(f"unknown runner.write mode {mode!r}")


def invoke_with_fault(
    action: Optional[str],
    stall_seconds: float,
    crash_delay_seconds: float,
    fn: Callable,
    *args,
):
    """Pool-worker entry point that applies one injected fault, then runs.

    Module-level (picklable) so the executor can submit it in place of the
    real job.  ``crash`` idles briefly, then kills the worker process the
    way an OOM-killer would; ``stall`` simulates a hung worker that
    eventually recovers (the parent's per-job timeout fires first when one
    is configured); ``oserror`` raises a transient error before the job
    starts.
    """
    if action == "crash":
        time.sleep(crash_delay_seconds)
        os._exit(CRASH_EXIT_STATUS)
    if action == "stall":
        time.sleep(stall_seconds)
    elif action == "oserror":
        raise FaultInjectedError("injected transient oserror at executor")
    return fn(*args)
