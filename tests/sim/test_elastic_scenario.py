"""Seeded membership-churn campaigns: joins, heartbeat-detected
leaves, drains and spurious epoch bumps, every one of which must
converge -- the closing ``check_placement`` proves zero misplaced
stripes, every holder inside the LIVE pool and every held strip
scrub-clean -- and replay bit-identically from its seed."""

import pytest

from repro.sim import SimScenario, generate_scenario, run_scenario
from repro.sim.scenario import ELASTIC_OPS

#: Seeds chosen to cover join / leave / drain / epoch_bump branches.
SEEDS = [0, 2, 3, 5]

ALLOWED = ELASTIC_OPS | {"write", "read", "read_all"}


def test_generation_is_pure_and_elastic():
    for seed in SEEDS:
        a = generate_scenario(seed, elastic=True)
        b = generate_scenario(seed, elastic=True)
        assert a.to_dict() == b.to_dict()
        assert a.n_nodes >= a.k + 2
        assert {op["op"] for op in a.ops} <= ALLOWED
        assert any(op["op"] in ELASTIC_OPS for op in a.ops)


def test_campaign_shape_ends_in_convergence_proof():
    sc = generate_scenario(1, elastic=True)
    assert sc.ops[0]["op"] == "write"  # full prefill
    # The epilogue: converge, prove placement, read everything back.
    assert [op["op"] for op in sc.ops[-3:]] == [
        "rebalance",
        "check_placement",
        "read_all",
    ]


def test_churn_across_seeds_hits_every_verb():
    seen = set()
    for seed in range(12):
        seen |= {op["op"] for op in generate_scenario(seed, elastic=True).ops}
    assert {"join", "leave", "drain", "epoch_bump", "rebalance"} <= seen


def test_rebalances_crash_their_coordinator_unless_restoring_redundancy():
    # The rebalance paired with a leave and the epilogue's never crash.
    for seed in range(12):
        ops = generate_scenario(seed, elastic=True).ops
        for i, op in enumerate(ops):
            if op["op"] == "rebalance":
                restores = ops[i - 1]["op"] == "leave" or i == len(ops) - 3
                assert ("crash_after" in op) != restores
                assert restores or 0 <= op["crash_after"] <= 12


def test_a_coordinator_crash_mid_migration_reads_back_and_replays():
    sc = generate_scenario(10, elastic=True)  # three crashes fire
    first = run_scenario(sc)
    assert run_scenario(sc).digest == first.digest
    crashed = [r for r in first.trace if r.get("crashed")]
    assert len(crashed) == 3 and all("sha" in r for r in crashed)


@pytest.mark.parametrize("seed", SEEDS)
def test_churn_converges_and_replays_bit_identically(seed):
    sc = generate_scenario(seed, elastic=True)
    first = run_scenario(sc)  # raises DivergenceError on any failure
    second = run_scenario(sc)
    assert first.digest == second.digest
    assert first.counters == second.counters
    # The quiescence proof ran and passed.
    checks = [r for r in first.trace if r.get("op") == "check_placement"]
    assert checks and all(r.get("quiescent") for r in checks)


def test_elastic_scenario_json_round_trip(tmp_path):
    sc = generate_scenario(4, elastic=True)
    path = tmp_path / "scenario.json"
    sc.save(path)
    loaded = SimScenario.load(path)
    assert loaded.to_dict() == sc.to_dict()
    assert loaded.n_nodes == sc.n_nodes
    assert run_scenario(loaded) == run_scenario(sc)


def test_leave_is_observed_through_the_heartbeat():
    # Find a seed whose campaign kills a node; the runner must route
    # around it via the monitor's DEAD verdict, never an operator call.
    for seed in range(16):
        sc = generate_scenario(seed, elastic=True)
        if any(op["op"] == "leave" for op in sc.ops):
            result = run_scenario(sc)
            leaves = [r for r in result.trace if r.get("op") == "leave"]
            assert leaves and all(r.get("state") == "dead" for r in leaves)
            return
    pytest.fail("no seed in range produced a leave op")
