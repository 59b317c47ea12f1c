"""Object-traffic scenarios: the gateway vocabulary is opt-in, pure to
generate, and every seed converges deterministically with all three
oracles (gateway directory, raw shadow, object CRC) agreeing."""

import pytest

from repro.sim import generate_scenario, run_scenario
from repro.sim.scenario import GATEWAY_OPS

#: Seeds exercised end-to-end; chosen to cover put/get/update/delete
#: plus fault interleavings (verified reachable below).
OBJECT_SEEDS = [0, 2, 5, 9]


class TestObjectGenerator:
    def test_existing_vocabularies_are_untouched(self):
        """Opting out must be byte-identical to the pre-gateway
        generator, in both plain and chaos modes: no gateway op ever
        appears, and ``objects=False`` matches no flag at all."""
        for seed in range(12):
            plain = generate_scenario(seed)
            assert plain.to_dict() == generate_scenario(
                seed, objects=False
            ).to_dict()
            chaos = generate_scenario(seed, chaos=True)
            for sc in (plain, chaos):
                assert not any(op["op"] in GATEWAY_OPS for op in sc.ops)

    def test_object_generation_is_pure(self):
        for seed in OBJECT_SEEDS:
            a = generate_scenario(seed, objects=True)
            b = generate_scenario(seed, objects=True)
            assert a.to_dict() == b.to_dict()

    def test_object_vocabulary_is_reachable(self):
        kinds = set()
        for seed in range(30):
            kinds |= {op["op"]
                      for op in generate_scenario(seed, objects=True).ops}
        assert {"gateway_put", "gateway_get", "gateway_update",
                "gateway_delete", "check_objects"} <= kinds

    def test_campaigns_end_with_the_object_check(self):
        for seed in OBJECT_SEEDS:
            ops = [op["op"]
                   for op in generate_scenario(seed, objects=True).ops]
            assert ops[-1] == "read_all"
            assert ops[-2] == "check_objects"

    def test_objects_mode_never_issues_raw_stripe_writes_after_priming(self):
        """A raw ``write`` would clobber extents beneath the gateway;
        after the sidecar-freshening prefill, the data plane must be
        object traffic only."""
        for seed in range(20):
            sc = generate_scenario(seed, objects=True, chaos=True)
            assert sc.ops[0]["op"] == "write"  # the freshening prefill
            assert not any(op["op"] == "write" for op in sc.ops[1:])

    def test_delete_then_get_is_generated(self):
        """The dead-name probe: some gets must target deleted objects so
        the runner proves the directory forgets them."""
        for seed in range(40):
            sc = generate_scenario(seed, objects=True)
            deleted, probed = set(), False
            for op in sc.ops:
                if op["op"] == "gateway_delete":
                    deleted.add(op["name"])
                elif op["op"] == "gateway_get" and op["name"] in deleted:
                    probed = True
            if probed:
                return
        pytest.fail("no seed in range(40) probed a deleted object")


class TestObjectConvergence:
    @pytest.mark.parametrize("seed", OBJECT_SEEDS)
    def test_every_object_seed_replays_bit_identically(self, seed):
        sc = generate_scenario(seed, objects=True)
        first = run_scenario(sc)  # check_objects raises on divergence
        second = run_scenario(sc)
        assert first.digest == second.digest

    @pytest.mark.parametrize("seed", OBJECT_SEEDS)
    def test_objects_survive_chaos_quiescence(self, seed):
        """The ISSUE's acceptance criterion: after faults, corruption
        and repair, no object is readable-but-corrupt -- quiescence
        re-reads every live object through the gateway's CRC path."""
        sc = generate_scenario(seed, objects=True, chaos=True)
        result = run_scenario(sc)
        by_op = {}
        for rec in result.trace:
            by_op.setdefault(rec.get("op"), []).append(rec)
        assert by_op["check_quiescent"][0]["quiescent"] is True
        assert by_op["check_quiescent"][0]["objects"] >= 0
        assert run_scenario(sc).digest == result.digest

    def test_fuzz_objects_mode_stays_clean(self):
        from repro.sim.differential import fuzz

        assert fuzz(seed=0, max_cases=4, objects=True) is None

    def test_fuzz_objects_chaos_mode_stays_clean(self):
        from repro.sim.differential import fuzz

        assert fuzz(seed=1, max_cases=3, chaos=True, objects=True) is None
