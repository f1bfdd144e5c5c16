"""Deterministic fault injection for the campaign execution layer.

Fault testing is only useful when the faults are *reproducible*: a test
that fails "some job at some point" proves nothing when it goes green.
This module injects faults from a declarative schedule keyed by
**(app, mode, job index, attempt number)** — quantities that are
identical across re-runs and across processes — so a directive like
"fail job 2 on its first attempt" fires exactly once, every time, and
the retry (attempt 1 no longer matches) deterministically succeeds.

The schedule is read from the ``REPRO_FAULT_INJECT`` environment
variable: either inline JSON or a path to a JSON file (child processes
inherit the environment, so one setting drives a whole CLI run or
serving worker pool).  It is a list of directives::

    [{"action": "raise", "app": "EP", "index": 2, "attempts": [0]},
     {"action": "raise", "error": "transient", "attempts": "all"},
     {"action": "delay", "delay_s": 0.2}]

Directives fire just before a shard of jobs is priced.
Directive fields (all matchers optional; an omitted matcher matches
everything):

``action``
    ``raise``  — raise :class:`InjectedFault` (``error="deterministic"``,
    the default) or :class:`InjectedTransientFault`
    (``error="transient"``).
    ``delay``  — sleep ``delay_s`` then continue normally (slows jobs
    down so drain/interrupt tests can reliably catch a campaign
    mid-flight; not a failure).
``app`` / ``mode`` / ``index``
    Match the job's application name, campaign mode (``counters``,
    ``savings`` or ``grid``), and position in the engine's pending
    list — whatever shard the job runs in.  A shard of two or more
    jobs also answers to ``mode="fleet"``, under its first job's app,
    with its position among such shards as the index; a one-job shard
    answers only as its job.
``error``
    ``deterministic`` or ``transient``.  An unknown ``mode`` or
    ``error`` is refused with a :class:`~repro.errors.CampaignError`,
    so a directive that could never fire does not pass silently.
``attempts``
    List of attempt numbers (0-based) the directive fires on, or
    ``"all"``.  Default ``[0]`` — fault the first attempt only, so the
    retry path is exercised end to end.

Production overhead is one environment lookup per job when the variable
is unset.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass
from typing import Any

from repro.campaign.plan import MODES
from repro.errors import CampaignError

#: Environment variable holding the fault schedule (inline JSON or a
#: path to a JSON file).
FAULT_ENV = "REPRO_FAULT_INJECT"

#: Recognised directive actions.
ACTIONS: tuple[str, ...] = ("raise", "delay")

#: Modes a directive can match: the campaign modes, plus ``fleet`` for a
#: shard of two or more jobs.
FAULT_MODES: tuple[str, ...] = MODES + ("fleet",)

#: Error classes a ``raise`` directive can inject.
ERRORS: tuple[str, ...] = ("deterministic", "transient")


class InjectedFault(CampaignError):
    """A deterministic injected failure (classified as such: retrying
    cannot help, the job is quarantined/raised per policy)."""


class InjectedTransientFault(InjectedFault):
    """An injected failure classified as transient (the retry path)."""

    repro_transient = True


@dataclass(frozen=True)
class FaultDirective:
    """One parsed entry of the fault schedule."""

    action: str
    app: str | None = None
    mode: str | None = None
    index: int | None = None
    #: ``None`` means "all attempts".
    attempts: tuple[int, ...] | None = (0,)
    error: str = "deterministic"
    delay_s: float = 0.0

    def matches(
        self, app: str | None, mode: str | None, index: int | None, attempt: int
    ) -> bool:
        if self.app is not None and self.app != app:
            return False
        if self.mode is not None and self.mode != mode:
            return False
        if self.index is not None and self.index != index:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return True


def _parse_directive(raw: dict[str, Any]) -> FaultDirective:
    action = raw.get("action")
    if action not in ACTIONS:
        raise CampaignError(
            f"{FAULT_ENV}: unknown fault action {action!r}; known: {ACTIONS}"
        )
    mode = raw.get("mode")
    if mode is not None and mode not in FAULT_MODES:
        raise CampaignError(
            f"{FAULT_ENV}: unknown fault mode {mode!r}; known: {FAULT_MODES}"
        )
    error = raw.get("error", "deterministic")
    if error not in ERRORS:
        raise CampaignError(
            f"{FAULT_ENV}: unknown fault error {error!r}; known: {ERRORS}"
        )
    attempts_raw = raw.get("attempts", [0])
    attempts = None if attempts_raw == "all" else tuple(int(a) for a in attempts_raw)
    return FaultDirective(
        action=action,
        app=raw.get("app"),
        mode=mode,
        index=raw.get("index"),
        attempts=attempts,
        error=error,
        delay_s=float(raw.get("delay_s", 0.0)),
    )


@functools.lru_cache(maxsize=8)
def _parse_schedule(spec: str) -> tuple[FaultDirective, ...]:
    """Parse (and cache per process) the schedule behind one env value."""
    text = spec
    if not spec.lstrip().startswith(("[", "{")):
        try:
            with open(spec, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise CampaignError(
                f"{FAULT_ENV} names an unreadable schedule file: {exc}"
            ) from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CampaignError(f"{FAULT_ENV} is not valid JSON: {exc}") from None
    if isinstance(raw, dict):
        raw = [raw]
    return tuple(_parse_directive(entry) for entry in raw)


def active_schedule() -> tuple[FaultDirective, ...]:
    """The directives currently in force (empty when the env is unset)."""
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return ()
    return _parse_schedule(spec)


def maybe_fault(
    *,
    app: str | None = None,
    mode: str | None = None,
    index: int | None = None,
    attempt: int = 0,
) -> None:
    """Fire the first matching directive of the active schedule, if any.

    Called from the campaign engine's execution hot points; a no-op
    (one env lookup) when ``REPRO_FAULT_INJECT`` is unset.
    """
    for directive in active_schedule():
        if directive.matches(app, mode, index, attempt):
            _apply(directive, app=app, index=index, attempt=attempt)
            return


def _apply(
    directive: FaultDirective, *, app: str | None, index: int | None, attempt: int
) -> None:
    where = f"{app or '*'}:job{index if index is not None else '*'}"
    if directive.action == "delay":
        time.sleep(directive.delay_s)
        return
    message = (
        f"injected {directive.error} fault at {where} (attempt {attempt})"
    )
    if directive.error == "transient":
        raise InjectedTransientFault(message)
    raise InjectedFault(message)
