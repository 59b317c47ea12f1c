"""Tests for Algorithm 2 (starting-point search)."""

import itertools

import pytest

from repro.core.encoder import encode_schedule
from repro.core.geometry import LiberationGeometry
from repro.core.starting_point import (
    StartingPoint,
    choose_starting_point,
    find_starting_point,
)
from repro.engine.executor import execute_bits
from repro.utils.primes import primes_up_to


class TestPaperExample:
    """§III-C, p=5, columns 1 and 3 erased."""

    def test_first_orientation_fails(self):
        """Algorithm 2 on (l=1, r=3) returns x = -1; the paper then
        exchanges l and r (Algorithm 4 lines 2-5)."""
        assert find_starting_point(5, 1, 3) is None
        sp = choose_starting_point(5, 1, 3)
        assert (sp.l, sp.r) == (3, 1)

    def test_exchanged_orientation_matches_paper(self):
        sp = find_starting_point(5, 3, 1)
        assert sp is not None
        assert sp.x == 3  # starting point b[3, 1]
        assert set(sp.s_p) == {0, 2}  # S0P ^ S2P
        assert set(sp.s_q) == {2, 4}  # S2Q ^ S4Q
        assert sp.n_xors == 3


class TestOrientationRules:
    def test_r_zero_invalid(self):
        """Column 0 has no extra bit: it cannot be the chain's r side."""
        for p in [5, 7, 11]:
            for l in range(1, p):
                assert find_starting_point(p, l, 0) is None

    def test_l_zero_always_succeeds(self):
        for p in [5, 7, 11, 13]:
            for r in range(1, p):
                assert find_starting_point(p, 0, r) is not None

    def test_same_column_rejected(self):
        with pytest.raises(ValueError):
            find_starting_point(7, 3, 3)

    def test_choose_picks_cheaper(self):
        for p in [7, 11, 13]:
            for l, r in itertools.combinations(range(1, p), 2):
                a = find_starting_point(p, l, r)
                b = find_starting_point(p, r, l)
                best = choose_starting_point(p, l, r)
                costs = [sp.n_xors for sp in (a, b) if sp is not None]
                assert best.n_xors == min(costs)


class TestAlgebraicValidity:
    """The defining property: XORing the selected parity constraints
    over a valid codeword isolates exactly the bit b[x, r]."""

    @pytest.mark.parametrize("p", [p for p in primes_up_to(13) if p != 2])
    def test_constraint_subset_isolates_single_bit(self, p, random_bits):
        k = p
        geo = LiberationGeometry(p, k)
        bits = random_bits(k + 2, p)
        execute_bits(encode_schedule(p, k), bits)
        for l, r in itertools.combinations(range(k), 2):
            sp = choose_starting_point(p, l, r)
            acc = 0
            for i in sp.s_p:
                acc ^= int(bits[k, i])
                for (row, col) in geo.row_cells(i):
                    if col not in (sp.l, sp.r):
                        acc ^= int(bits[col, row])
            for i in sp.s_q:
                acc ^= int(bits[k + 1, i])
                for (row, col) in geo.q_constraint_cells(i):
                    if col not in (sp.l, sp.r):
                        acc ^= int(bits[col, row])
            assert acc == int(bits[sp.r, sp.x]), (p, l, r, sp)

    def test_own_syndrome_membership(self):
        """Algorithm 4 accumulates in place: the starting cell's own
        anti-diagonal syndrome must belong to S_Q."""
        for p in [5, 7, 11, 13]:
            for l, r in itertools.combinations(range(p), 2):
                sp = choose_starting_point(p, l, r)
                assert (sp.x - sp.r) % p in sp.s_q


class TestStartingPointDataclass:
    def test_cost_formula(self):
        sp = StartingPoint(l=3, r=1, x=3, s_p=(0, 2), s_q=(2, 4))
        assert sp.n_xors == 3

    def test_sets_always_nonempty(self):
        for p in [5, 7, 11]:
            for l, r in itertools.combinations(range(p), 2):
                sp = choose_starting_point(p, l, r)
                assert sp.s_p and sp.s_q
