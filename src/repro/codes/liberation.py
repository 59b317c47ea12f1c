"""Liberation code implementations: the paper's optimal algorithms and
the original Jerasure-style bit-matrix baseline.

Both classes realise the *same* code (identical codewords -- tests
assert this), differing only in how encode/decode programs are derived:

* :class:`LiberationOptimal` -- Algorithms 1-4 of the paper.  Encoding
  costs exactly ``2p(k-1)`` XORs; two-column decoding is within a few
  percent of the ``k-1``-per-bit bound; decode plans are cheap index
  walks and are memoised per erasure pattern.

* :class:`LiberationOriginal` -- the bit-matrix path: dumb-scheduled
  encoding (``(k-1)(2p+1)`` XORs) and smart-scheduled decoding derived
  from a per-call GF(2) matrix inversion, mirroring Jerasure's
  ``jerasure_schedule_decode_lazy`` (no plan cache -- the inversion and
  scheduling cost on every decode call is part of what the paper
  measures).
"""

from __future__ import annotations

import numpy as np

from repro.bitmatrix import (
    liberation_bitmatrix,
    dumb_schedule,
    bitmatrix_decode_schedule,
)
from repro.codes.base import XorScheduleCode
from repro.core.decoder import decode_schedule as optimal_decode_schedule
from repro.core.encoder import encode_schedule as optimal_encode_schedule
from repro.core.geometry import LiberationGeometry
from repro.utils.primes import prime_for_k
from repro.utils.validation import check_prime_p, check_k

__all__ = ["LiberationCode", "LiberationOptimal", "LiberationOriginal"]


class LiberationCode(XorScheduleCode):
    """Shared parameterisation for both Liberation variants."""

    p_is_row_parity = True

    def __init__(
        self, k: int, *, p: int | None = None, element_size: int = 8, execution: str = "kernel"
    ) -> None:
        self.p = check_prime_p(p if p is not None else prime_for_k(k))
        check_k(k, self.p, code="liberation")
        super().__init__(k, element_size=element_size, execution=execution)
        self.geometry = LiberationGeometry(self.p, self.k)

    @property
    def rows(self) -> int:
        return self.p

    def with_k(self, new_k: int):
        """Same ``p`` (so strips keep their height), different ``k``.

        Liberation's scalability property: for fixed ``p`` any
        ``2 <= k <= p`` works on the same ``p``-row strips, and adding
        an (all-zero) data column leaves both parity columns unchanged.
        """
        return type(self)(
            new_k, p=self.p, element_size=self.element_size, execution=self.execution
        )

    def update(self, buf: np.ndarray, col: int, row: int, new_element: np.ndarray) -> int:
        """Delta small-write: Liberation's optimal-update property.

        A data element change touches its row-parity element, its native
        anti-diagonal parity element and -- only if the element serves
        as an extra bit -- one more Q element, i.e. 2 parity writes for
        all but one element per column (``~2`` average, the Table I
        lower bound).
        """
        self.check_stripe(buf)
        if not 0 <= col < self.k:
            raise IndexError(f"update targets data columns only, got {col}")
        geo = self.geometry
        delta = np.bitwise_xor(buf[col, row], new_element)
        buf[col, row] = new_element
        touched = [(self.p_col, row), (self.q_col, geo.anti_diag_of(row, col))]
        if geo.extra_bit_of_column(col) == (row, col):
            touched.append((self.q_col, geo.extra_diag_of_column(col)))
        for c, r in touched:
            np.bitwise_xor(buf[c, r], delta, out=buf[c, r])
        return len(touched)


class LiberationOptimal(LiberationCode):
    """Liberation code with the paper's optimal Algorithms 1-4."""

    name = "liberation-optimal"
    cache_decode_plans = True

    def build_encode_schedule(self):
        return optimal_encode_schedule(self.p, self.k)

    def build_decode_schedule(self, erasures):
        return optimal_decode_schedule(self.p, self.k, erasures)


class LiberationOriginal(LiberationCode):
    """Liberation code via the original bit-matrix machinery.

    ``smart`` selects Plank's bit-matrix scheduling for decode (the
    Jerasure default and the paper's baseline); encoding always uses the
    dumb lowering, which is what the original implementation does (bit
    rows are near-disjoint, so scheduling cannot improve them).
    """

    name = "liberation-original"
    cache_decode_plans = False

    def __init__(
        self,
        k: int,
        *,
        p: int | None = None,
        element_size: int = 8,
        smart: bool = True,
        execution: str = "kernel",
    ) -> None:
        super().__init__(k, p=p, element_size=element_size, execution=execution)
        self.smart = bool(smart)
        self._generator: np.ndarray | None = None

    @property
    def generator(self) -> np.ndarray:
        """The ``2p x kp`` generator bit-matrix (built once)."""
        if self._generator is None:
            self._generator = liberation_bitmatrix(self.p, self.k)
        return self._generator

    def build_encode_schedule(self):
        # Smart scheduling degenerates to dumb for Liberation encoding;
        # use the dumb lowering explicitly, as Jerasure's encoder does.
        return dumb_schedule(self.generator, self.p, self.k, total_cols=self.total_cols)

    def build_decode_schedule(self, erasures):
        return bitmatrix_decode_schedule(
            self.generator,
            self.p,
            self.k,
            erasures,
            smart=self.smart,
            total_cols=self.total_cols,
        )
