"""The exception every schedule check raises.

The structural read/write-discipline checker lives in
:mod:`repro.analysis.static.structural` and the symbolic proofs in
:mod:`repro.analysis.static.prover`; the kernel lowering
(:mod:`repro.engine.kernels`) raises the same exception when its
compile-time proofs fail.
"""

from __future__ import annotations

__all__ = ["ScheduleViolation"]


class ScheduleViolation(AssertionError):
    """A structural defect in a schedule (with the offending op index)."""
