"""Runtime alias sanitizer for the zero-copy wire path.

Static escape analysis (:mod:`.viewescape`) sees assignments; it cannot
see a second task mutating a buffer *while* the transport is draining a
view of it.  This module is the dynamic half of the bargain, switched
on by ``REPRO_ALIAS_SANITIZER=1`` (or :func:`enable` in tests):

* :func:`guard` fingerprints a payload view (CRC-32 over the flat
  bytes) at the moment it is handed to the transport -- each writable
  buffer of a payload given as a list or tuple of them (a batch's
  strips) on its own;
* :func:`check` re-fingerprints after ``drain()`` returns -- a mismatch
  means some writer raced the wire and is recorded as an
  :class:`AliasEvent`, one per buffer that changed;
* :func:`readonly_words` hardens ``words_view``'s loans: under the
  sanitizer, borrowed word views come back non-writable, so a miswired
  schedule that tries to XOR *into* a borrowed wire buffer raises
  immediately instead of corrupting a peer's strip.

Events accumulate in a process-global list; the differential and chaos
fuzzers call :func:`assert_clean` after every case, turning a single
write-after-handoff anywhere in a fuzz run into a hard failure.  The
contract with the static passes is deliberately one-sided: anything the
sanitizer catches at runtime is by definition a finding the dataflow
missed, so CI treats a non-empty event list as a build failure, keeping
the analyzer honest.

Disabled (the default), every entry point is a constant-time no-op --
``guard`` returns ``None`` before touching the payload -- so the hot
path pays one branch, mirroring the tracer's disabled-path discipline.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ENV_FLAG",
    "AliasEvent",
    "AliasViolationError",
    "enabled",
    "enable",
    "guard",
    "check",
    "events",
    "clear_events",
    "assert_clean",
    "readonly_words",
]

ENV_FLAG = "REPRO_ALIAS_SANITIZER"

#: test override: None = follow the environment, bool = forced
_forced: bool | None = None

_events: list["AliasEvent"] = []


@dataclass(frozen=True)
class AliasEvent:
    """One observed write-after-handoff."""

    site: str          # where the view was handed off, e.g. "protocol.write_frame"
    nbytes: int
    crc_before: int
    crc_after: int

    def __str__(self) -> str:
        return (
            f"write-after-handoff at {self.site}: {self.nbytes} B view "
            f"changed under the transport "
            f"(crc {self.crc_before:#010x} -> {self.crc_after:#010x})"
        )


class AliasViolationError(RuntimeError):
    """Raised by :func:`assert_clean` when events were recorded."""


class _Token:
    """The guarded views plus their handoff-time fingerprints."""

    __slots__ = ("site", "views")

    def __init__(self, site: str, views: list[tuple[memoryview, int]]) -> None:
        self.site = site
        self.views = views


def enabled() -> bool:
    """Is the sanitizer active (env flag or test override)?"""
    if _forced is not None:
        return _forced
    return os.environ.get(ENV_FLAG, "").strip().lower() not in (
        "", "0", "false", "no",
    )


def enable(on: bool | None = True) -> None:
    """Force the sanitizer on/off for tests; ``None`` re-follows the env."""
    global _forced
    _forced = on


def guard(payload, site: str) -> _Token | None:
    """Fingerprint ``payload`` at handoff; returns a token for :func:`check`.

    ``payload`` is one buffer or a list or tuple of them, each
    fingerprinted on its own.  ``bytes`` and read-only views are
    immutable here and skipped outright -- only buffers someone *could*
    write (memoryviews, bytearrays, numpy arrays and their ``.data``)
    are worth the CRC.
    """
    if payload is None or isinstance(payload, bytes) or not enabled():
        return None
    views = []
    for buf in payload if isinstance(payload, (list, tuple)) else (payload,):
        if isinstance(buf, bytes):
            continue
        try:
            view = memoryview(buf)
        except TypeError:
            continue
        if view.readonly:
            continue
        flat = view.cast("B") if view.ndim != 1 or view.format != "B" else view
        views.append((flat, zlib.crc32(flat)))
    return _Token(site, views) if views else None


def check(token: _Token | None) -> AliasEvent | None:
    """Re-fingerprint the guarded views; record an event for each that
    changed and return the first."""
    if token is None:
        return None
    first = None
    for view, crc in token.views:
        crc_after = zlib.crc32(view)
        if crc_after != crc:
            event = AliasEvent(token.site, len(view), crc, crc_after)
            _events.append(event)
            first = first or event
    return first


def events() -> tuple[AliasEvent, ...]:
    """Every event recorded since the last :func:`clear_events`."""
    return tuple(_events)


def clear_events() -> None:
    _events.clear()


def assert_clean(context: str = "") -> None:
    """Raise :class:`AliasViolationError` if any event was recorded.

    The fuzzers call this after every case; the raised message carries
    each event so a failing nightly run is diagnosable from the log
    alone.  Events are consumed (cleared) on raise so shrinking reruns
    start from a clean slate.
    """
    if not _events:
        return
    count = len(_events)
    lines = "\n  ".join(str(e) for e in _events)
    clear_events()
    where = f" during {context}" if context else ""
    raise AliasViolationError(
        f"alias sanitizer recorded {count} "
        f"write-after-handoff event(s){where}:\n  {lines}"
    )


def readonly_words(arr: np.ndarray) -> np.ndarray:
    """Under the sanitizer, loaned word views come back non-writable.

    A borrowed wire buffer is an XOR *source*; a schedule that writes
    into one is miswired and should fail at the write, not when a peer
    decodes garbage.  No-op (returns ``arr`` unchanged) when disabled.
    """
    if not enabled() or not arr.flags.writeable:
        return arr
    view = arr.view()
    view.flags.writeable = False
    return view
