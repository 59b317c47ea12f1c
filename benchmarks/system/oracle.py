"""Correctness oracle for the system benchmark.

* Every get must return a version that was written to that key: the
  oracle keeps the CRC-32 of every version ever offered per key (a put
  counts from the moment it is issued, because a concurrent get may
  legitimately see it before the ack).
* After the run drains, every object read back must equal its last
  acknowledged version.  The gateway's per-name lock serialises ops on
  one key and an op's ack is processed in the same event-loop step that
  releases the lock, so ack order is apply order and "last acknowledged"
  is well defined even with concurrent clients.
* On the degraded workload each rebuilt replacement's disk must be
  byte-identical to the stopped node's disk; on the healthy ones the
  array must count zero decodes.

Every mismatch is kept (up to a few examples) and counted as a failed
op; any mismatch makes the run incorrect.
"""

from __future__ import annotations

import zlib

import numpy as np

#: examples kept per run; the count is unbounded
MAX_EXAMPLES = 8


def crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


class Oracle:
    def __init__(self) -> None:
        self.last: dict[str, bytes] = {}
        self.versions: dict[str, set[int]] = {}
        self.mismatches = 0
        self.examples: list[str] = []

    def _mismatch(self, what: str) -> None:
        self.mismatches += 1
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append(what)

    # -- the op stream -----------------------------------------------------

    def issue_put(self, key: str, data: bytes) -> None:
        self.versions.setdefault(key, set()).add(crc(data))

    def ack_put(self, key: str, data: bytes) -> None:
        self.last[key] = data

    def ack_update(self, key: str, offset: int, data: bytes) -> None:
        blob = bytearray(self.last[key])
        blob[offset : offset + len(data)] = data
        self.last[key] = bytes(blob)
        self.versions[key].add(crc(self.last[key]))

    def check_get(self, key: str, data: bytes) -> bool:
        if crc(data) in self.versions.get(key, ()):
            return True
        self._mismatch(f"get {key}: crc {crc(data):#010x} was never written to it")
        return False

    # -- after the run -----------------------------------------------------

    async def check_readback(self, gateway) -> None:
        """Read every object through the gateway, cache emptied first."""
        gateway.cache.clear()
        for key in sorted(self.last):
            data = await gateway.get(key)
            if data != self.last[key]:
                self._mismatch(f"readback {key}: differs from its last acked version")

    def check_decodes(self, array, *, expected: bool) -> None:
        decodes = array.metrics.get("decodes")
        if expected and decodes == 0:
            self._mismatch("degraded workload decoded nothing")
        if not expected and decodes != 0:
            self._mismatch(f"healthy workload counted {decodes} decodes")

    def check_rebuilt(self, lost_disk, rebuilt_disk, label: str) -> None:
        """A rebuilt replacement must hold exactly the lost node's strips."""
        for strip in range(lost_disk.n_strips):
            if not np.array_equal(
                lost_disk.read_strip(strip), rebuilt_disk.read_strip(strip)
            ):
                self._mismatch(f"{label}: strip {strip} differs from the lost disk")
                return
