"""repro.sim -- deterministic simulation and differential fuzzing.

The correctness backstop of the whole stack.  Three layers:

* **Virtual time + in-memory transport**
  (:mod:`repro.sim.clock`, :mod:`repro.sim.transport`): the cluster's
  injectable seams.  A :class:`VirtualClock` advances discrete-event
  style only when nothing else in the loop can run (a loop that never
  goes idle raises :class:`LivelockError`); a :class:`MemoryTransport`
  replaces TCP with cross-wired stream buffers.  Cluster scenarios --
  node kills, timeouts, mid-frame drops, corrupt frames,
  rebuild-under-loss -- run with zero real sockets or sleeps and
  replay bit-identically from a single integer seed.

* **Seeded scenarios** (:mod:`repro.sim.scenario`): a generator that
  derives a whole fault campaign from one seed, runs it against a
  simulated :class:`~repro.cluster.local.LocalCluster`, mirrors every
  operation into shadow models, and digests the trace so two runs of
  the same seed are comparable byte-for-byte.

* **Differential fuzzing + shrinking** (:mod:`repro.sim.differential`,
  :mod:`repro.sim.shrink`): random stripes and erasure patterns pushed
  through multiple oracles -- optimal Liberation vs. the bit-matrix
  baseline, bit executor vs. word executors vs. compiled schedules,
  ClusterArray vs. a single-process model -- failing on the first
  divergent byte, then greedily minimised to a replayable repro file
  (see the ``repro sim`` CLI verbs).

Only the clock and transport are imported eagerly -- they are
dependency-free and the cluster package itself imports them.  The
scenario/fuzzing layers import :mod:`repro.cluster` back, so they load
lazily via module ``__getattr__`` to keep the import graph acyclic.
"""

from repro.sim.clock import Clock, LivelockError, RealClock, VirtualClock
from repro.sim.transport import AsyncioTransport, MemoryTransport, Transport

__all__ = [
    "Clock",
    "LivelockError",
    "RealClock",
    "VirtualClock",
    "Transport",
    "AsyncioTransport",
    "MemoryTransport",
    # lazily resolved:
    "DivergenceError",
    "FuzzFailure",
    "SimScenario",
    "ScenarioResult",
    "StripeCase",
    "generate_scenario",
    "run_scenario",
    "fuzz",
    "replay_file",
    "shrink_case",
]

_LAZY = {
    "SimScenario": "repro.sim.scenario",
    "ScenarioResult": "repro.sim.scenario",
    "generate_scenario": "repro.sim.scenario",
    "run_scenario": "repro.sim.scenario",
    "DivergenceError": "repro.sim.differential",
    "FuzzFailure": "repro.sim.differential",
    "StripeCase": "repro.sim.differential",
    "fuzz": "repro.sim.differential",
    "replay_file": "repro.sim.differential",
    "shrink_case": "repro.sim.shrink",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
