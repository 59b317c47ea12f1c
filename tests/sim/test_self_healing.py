"""Chaos scenarios: the self-healing stack must converge, deterministically.

The acceptance drill of the self-healing work: a campaign that corrupts
a strip, hangs a node and writes a stripe past the hung node must end
with every stripe clean and the hung column rebuilt -- and two runs of
the same seed must produce byte-identical trace digests.  The
``check_quiescent`` op *is* the oracle: it raises
:class:`DivergenceError` unless a deep scrub is spotless and the
dirty-stripe list is empty.
"""

import random

import pytest

from repro.array.faults import ALWAYS, NetworkFaultPlan
from repro.cluster.node import StripNode
from repro.sim import SimScenario, generate_scenario, run_scenario
from repro.sim.scenario import CHAOS_OPS, SETTLE_S, SIM_POLICY, DivergenceError

CHAOS_SEEDS = list(range(8))


def acceptance_scenario(seed=424242):
    """Corrupt a strip + hang a node + write a stripe past it."""
    hang = NetworkFaultPlan(latency=10.5)  # far beyond every sim timeout
    return SimScenario(
        seed=seed, k=3, p=5, element_size=8, n_stripes=2,
        ops=[
            {"op": "write", "offset": 0, "length": 240, "seed": 7},
            {"op": "corrupt", "column": 1, "stripe": 0, "seed": 99},
            {"op": "scrub"},
            {"op": "fault", "column": 3, "plan": hang.to_header()},
            {"op": "write", "offset": 120, "length": 120, "seed": 8},
            {"op": "heal"},
            {"op": "scrub", "deep": True},
            {"op": "check_quiescent"},
            {"op": "read_all"},
        ],
    )


class TestAcceptanceScenario:
    def test_converges_and_replays_bit_identically(self):
        sc = acceptance_scenario()
        first = run_scenario(sc)  # raises DivergenceError if not convergent
        second = run_scenario(sc)
        assert first.digest == second.digest
        assert first.trace == second.trace

        by_op = {}
        for rec in first.trace:
            by_op.setdefault(rec.get("op"), []).append(rec)
        # The corruption was located and repaired by the paper's locator.
        assert by_op["scrub"][0]["corrected"] == [[0, 1]] or (
            by_op["scrub"][0]["corrected"] == [(0, 1)]
        )
        # The hung column was failed by heartbeats and rebuilt on a spare.
        assert by_op["heal"][0]["healed"] == [3]
        # The write of stripe 1 skipped the hung column.
        assert first.counters["degraded_writes"] == 1
        assert by_op["check_quiescent"][0]["quiescent"] is True


class TestChaosGenerator:
    def test_plain_vocabulary_is_untouched(self):
        """Default generation must stay byte-identical to the pre-chaos
        generator: no chaos op ever appears, and ``chaos=False`` is the
        same draw sequence as no flag at all."""
        for seed in range(12):
            plain = generate_scenario(seed)
            assert plain.to_dict() == generate_scenario(seed, chaos=False).to_dict()
            assert not any(op["op"] in CHAOS_OPS for op in plain.ops)

    def test_chaos_generation_is_pure(self):
        for seed in CHAOS_SEEDS:
            a = generate_scenario(seed, chaos=True)
            b = generate_scenario(seed, chaos=True)
            assert a.to_dict() == b.to_dict()

    def test_chaos_campaigns_end_with_the_convergence_epilogue(self):
        for seed in CHAOS_SEEDS:
            ops = [op["op"] for op in generate_scenario(seed, chaos=True).ops]
            assert ops[-1] == "read_all"
            assert ops[-2] == "check_quiescent"
            assert "heal" in ops
            # A deep scrub runs right before the final check.
            assert ops[-3] == "scrub"

    def test_rot_stays_at_rest_within_the_two_column_budget(self):
        """Rot is left for reads, writes and rebuilds to meet as an
        erasure.  Its column counts as lost until a scrub, so no stripe
        is ever short of more than two columns."""
        at_rest = 0
        for seed in range(60):
            ops = generate_scenario(seed, chaos=True).ops
            lost: dict[int, str] = {}
            for i, op in enumerate(ops):
                kind = op["op"]
                if kind == "heal":  # the convergence epilogue
                    break
                persistent = kind == "fault" and (
                    op["plan"]["latency"] >= 10.0 or ALWAYS in op["plan"].values()
                )
                if kind in ("stop_node", "disk_fail", "latent", "corrupt") or persistent:
                    assert op["column"] not in lost
                    lost[op["column"]] = kind
                elif kind == "rebuild":
                    del lost[op["column"]]
                elif kind == "scrub":
                    lost = {col: why for col, why in lost.items() if why != "corrupt"}
                assert len(lost) <= 2
                if kind == "corrupt" and ops[i + 1]["op"] != "scrub":
                    at_rest += 1
        assert at_rest > 0

    def test_chaos_vocabulary_is_reachable(self):
        kinds = set()
        for seed in range(30):
            kinds |= {op["op"] for op in generate_scenario(seed, chaos=True).ops}
        assert {"scrub", "corrupt", "heal", "check_parity",
                "check_quiescent"} <= kinds


class TestLateDuplicates:
    """Every chaos campaign opens with slow spells on a parity node, so
    a put and an xor wake after their retries landed."""

    def test_slow_spells_precede_a_whole_stripe_write_and_a_delta_write(self):
        for seed in CHAOS_SEEDS:
            sc = generate_scenario(seed, chaos=True)
            spells = [
                i for i, op in enumerate(sc.ops)
                if op["op"] == "fault" and op["plan"]["slow_requests"] == 1
            ]
            assert len(spells) >= 2
            first, second = (sc.ops[i + 1] for i in spells[:2])
            capacity = sc.k * sc.p * sc.element_size * sc.n_stripes
            assert (first["offset"], first["length"]) == (0, capacity)
            assert second["op"] == "write" and second["length"] <= 64
            assert sc.ops[spells[0]]["column"] in (sc.k, sc.k + 1)
            assert "check_parity" in [op["op"] for op in sc.ops]

    def test_a_slow_spell_outlives_one_attempt_and_not_the_retries(self):
        rng = random.Random(0)
        for _ in range(50):
            plan = NetworkFaultPlan.slow_spell(rng, SIM_POLICY.timeout)
            assert SIM_POLICY.timeout < plan.latency < SETTLE_S
            assert plan.slow_requests == 1 < SIM_POLICY.attempts

    def test_the_parity_check_catches_a_late_put_that_lands(self, monkeypatch):
        """Served after its client gave up, the first write's late put
        lands over the second write's parity."""
        sc = generate_scenario(3, chaos=True)
        run_scenario(sc)
        monkeypatch.setattr(StripNode, "_hung_up", lambda self, writer: False)
        with pytest.raises(DivergenceError, match="check_parity"):
            run_scenario(sc)


class TestChaosConvergence:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_every_chaos_seed_converges_deterministically(self, seed):
        sc = generate_scenario(seed, chaos=True)
        first = run_scenario(sc)  # check_quiescent raises if not convergent
        second = run_scenario(sc)
        assert first.digest == second.digest

    def test_fuzz_chaos_mode_stays_clean(self):
        from repro.sim.differential import fuzz

        assert fuzz(seed=0, max_cases=4, chaos=True) is None
