"""Shipping-channel fault injector: determinism, caps, plan round-trip."""

from __future__ import annotations

import json

from repro.faults import FaultPlan, ShipFaultInjector, ShipFaultSpec, inject


def spec(**kw) -> ShipFaultSpec:
    base = dict(
        drop_rate=0.2, duplicate_rate=0.2, reorder_rate=0.2, corrupt_rate=0.2
    )
    base.update(kw)
    return ShipFaultSpec(**base)


class TestPlanRoundTrip:
    def test_ship_spec_json_round_trips(self):
        plan = FaultPlan(seed=7, ship=spec(drop_rate=0.5))
        data = json.loads(json.dumps(plan.to_json()))
        assert FaultPlan.from_json(data) == plan

    def test_spec_keys_of_older_traces_are_ignored(self):
        """Traces from before the drop cap and the channel delays became
        constants still carry them."""
        data = FaultPlan(seed=7, ship=spec()).to_json()
        data["ship"].update(
            max_consecutive=5, duplicate_delay_ns=1, reorder_delay_ns=2
        )
        assert FaultPlan.from_json(data) == FaultPlan(seed=7, ship=spec())

    def test_plan_without_ship_spec(self):
        plan = FaultPlan(seed=7)
        assert FaultPlan.from_json(plan.to_json()).ship is None


class TestDeterminism:
    def test_same_seed_same_fates(self):
        payloads = [bytes([i]) * 50 for i in range(40)]
        a = ShipFaultInjector(spec(), 42)
        b = ShipFaultInjector(spec(), 42)
        assert [a.deliveries(p) for p in payloads] == [
            b.deliveries(p) for p in payloads
        ]

    def test_different_seeds_diverge(self):
        payloads = [b"x" * 50] * 40
        a = ShipFaultInjector(spec(), 1)
        b = ShipFaultInjector(spec(), 2)
        assert [a.deliveries(p) for p in payloads] != [
            b.deliveries(p) for p in payloads
        ]


class TestFates:
    def test_clean_spec_is_identity(self):
        inj = ShipFaultInjector(
            spec(drop_rate=0, duplicate_rate=0, reorder_rate=0, corrupt_rate=0),
            3,
        )
        for i in range(20):
            payload = bytes([i]) * 30
            assert inj.deliveries(payload) == [(0, payload)]
        assert (
            inj.dropped == inj.duplicated == inj.reordered == inj.corrupted == 0
        )

    def test_consecutive_drop_cap(self):
        inj = ShipFaultInjector(spec(drop_rate=1.0), 5)
        fates = [inj.deliveries(b"p" * 10) for _ in range(8)]
        # With certain drops, exactly MAX_CONSECUTIVE_DROPS (3) batches
        # vanish and then one gets through, forever.
        assert [len(f) for f in fates] == [0, 0, 0, 1, 0, 0, 0, 1]

    def test_duplicate_delivers_twice_with_delay(self):
        inj = ShipFaultInjector(
            spec(drop_rate=0, reorder_rate=0, corrupt_rate=0,
                 duplicate_rate=1.0),
            9,
        )
        fates = inj.deliveries(b"q" * 16)
        assert len(fates) == 2
        assert fates[0][1] == fates[1][1] == b"q" * 16
        assert fates[1][0] - fates[0][0] == inject.DUPLICATE_DELAY_NS
        assert inj.duplicated == 1

    def test_corrupt_flips_exactly_one_bit(self):
        inj = ShipFaultInjector(
            spec(drop_rate=0, reorder_rate=0, duplicate_rate=0,
                 corrupt_rate=1.0),
            11,
        )
        payload = b"\x00" * 64
        [(delay, flipped)] = inj.deliveries(payload)
        assert delay == 0
        diff = [i for i in range(64) if flipped[i] != 0]
        assert len(diff) == 1
        assert bin(flipped[diff[0]]).count("1") == 1
        assert inj.corrupted == 1

    def test_reorder_adds_bounded_delay(self):
        inj = ShipFaultInjector(
            spec(drop_rate=0, duplicate_rate=0, corrupt_rate=0,
                 reorder_rate=1.0),
            13,
        )
        unit = inject.REORDER_DELAY_NS
        for _ in range(12):
            [(delay, _payload)] = inj.deliveries(b"r" * 8)
            assert delay % unit == 0
            assert unit <= delay <= 4 * unit
        assert inj.reordered == 12

    def test_fault_rates_roughly_honoured(self):
        inj = ShipFaultInjector(spec(), 17)
        n = 400
        for i in range(n):
            inj.deliveries(bytes([i % 251]) * 40)
        for count in (inj.dropped, inj.duplicated, inj.reordered, inj.corrupted):
            # 20% nominal; allow a wide deterministic band.
            assert 0.08 * n < count < 0.35 * n
