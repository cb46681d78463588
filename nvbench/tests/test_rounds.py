"""The rounds and their oracle: clean at smoke scale, deterministic per
seed, and able to see a planted fault."""

import pytest

from nvbench import inputs, rounds, spec

SMOKE = spec.SMOKE_SCALE
RECOVERY_OPS = int(spec.RECOVERY_OPS * SMOKE)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_smoke_round_is_clean_and_repeats_exactly(run, name):
    first = run.spawn_round(name, 2016, SMOKE, "plain")
    again = run.spawn_round(name, 2016, SMOKE, "plain")
    assert first["failed"] == 0, first["reasons"]
    assert first["attempted"] > spec.WORKLOADS[name].scaled(SMOKE).ops
    assert again["sim"] == first["sim"]
    assert again["counts"] == first["counts"]
    ops = first["counts"]["latency_samples"]
    assert len(first["host"]["op_ns"]) == ops
    assert len(first["host"]["ref_ns"]) == ops // rounds.REFERENCE_EVERY
    result = run.aggregate([first, again])
    assert result[spec.FAILED_OP_SHARE] == 0
    assert set(result["end_to_end"]) == {m.name for m in spec.END_TO_END}
    assert all(value > 0 for value in result["end_to_end"].values())


def test_rounds_that_disagree_are_counted_as_failures(run):
    first = run.spawn_round("mobi-lazy", 1, SMOKE, "plain")
    other = run.spawn_round("mobi-lazy", 2, SMOKE, "plain")
    result = run.aggregate([first, other])
    assert result["failed"] == 2  # sim and counts both differ
    assert result[spec.FAILED_OP_SHARE] > 0


def synthetic_round(op_ns, ref_ns, recovery_ms=(10.0,), setup_s=0.3) -> dict:
    return {"host": {"op_ns": list(op_ns), "ref_ns": list(ref_ns),
                     "host_recovery_ms": list(recovery_ms), "setup_s": setup_s,
                     "host_peak_rss_mb": 40.0}}


def test_bursts_and_slow_minutes_are_taken_out_of_the_host_figures(run):
    nominal = spec.REFERENCE_WORK_NS
    quiet = synthetic_round([1000] * 8, [nominal])
    clean = run.host_figures([quiet, quiet])
    assert clean["host_ops_per_s"] == pytest.approx(1e9 / 1000)
    # bursts that hit different ops (and a recovery, and a set-up) in each round
    a = synthetic_round([1000, 9000] + [1000] * 6, [nominal], [10.0], 0.9)
    b = synthetic_round([1000] * 6 + [7000, 1000], [nominal * 3], [30.0], 0.3)
    assert run.host_figures([a, b]) == clean
    # a slow minute: every op and every reference call takes twice as long
    slow = synthetic_round([2000] * 8, [nominal * 2])
    assert run.host_speed([slow, slow]) == pytest.approx(0.5)
    assert run.host_figures([slow, slow])["host_ops_per_s"] == pytest.approx(1e9 / 1000)
    # a slower program on a quiet host is not corrected away
    worse = synthetic_round([1500] * 8, [nominal])
    assert run.host_figures([worse, worse])["host_ops_per_s"] == pytest.approx(1e9 / 1500)


def test_another_seed_gives_other_inputs_and_the_same_seed_the_same():
    a = inputs.single_inputs(1, "mobi", 200, 0, 10)
    b = inputs.single_inputs(2, "mobi", 200, 0, 10)
    assert a.measured != b.measured
    assert a.measured == inputs.single_inputs(1, "mobi", 200, 0, 10).measured
    longer = inputs.single_inputs(1, "mobi", 400, 0, 10)
    assert longer.measured[:200] == a.measured  # mobi-eager runs a prefix
    s1, s2 = inputs.serve_inputs(1, 300, 40), inputs.serve_inputs(2, 300, 40)
    assert s1.writers != s2.writers and s1.reads != s2.reads
    owners = [{key for txn in txns for _k, key, _v in txn} for txns in s1.writers]
    assert not owners[0] & owners[1]  # writers own disjoint keys


def _round(name: str) -> dict:
    workload = spec.WORKLOADS[name].scaled(SMOKE)
    return rounds.run_round(workload, 7, RECOVERY_OPS, "plain", rounds.monotonic_ns())


def test_a_row_missing_after_recovery_is_counted(monkeypatch):
    calls = []
    real = rounds.fetch_rows

    def lossy(db):
        rows = real(db)
        calls.append(len(rows))
        # the view of the database reopened after the first power cut
        return rows[1:] if len(calls) == 2 else rows

    monkeypatch.setattr(rounds, "fetch_rows", lossy)
    out = _round("mobi-lazy")
    assert out["failed"] == 1
    assert "after recovery 0" in out["reasons"][0]


def test_a_corrupt_model_entry_is_counted(monkeypatch):
    real = inputs.single_inputs

    def corrupting(*args):
        data = real(*args)
        key = next(iter(data.after_measured))
        data.after_measured[key] = "not what was written"
        return data

    monkeypatch.setattr(inputs, "single_inputs", corrupting)
    out = _round("kv-read")
    assert out["failed"] == 1
    assert "after the measured phase" in out["reasons"][0]


def test_a_wrong_read_is_counted(monkeypatch):
    real = inputs.single_inputs

    def corrupting(*args):
        data = real(*args)
        at = next(i for i, op in enumerate(data.measured) if op[3] == 0)
        sql, params, _expect, payload = data.measured[at]
        data.measured[at] = (sql, params, [("wrong",)], payload)
        return data

    monkeypatch.setattr(inputs, "single_inputs", corrupting)
    out = _round("kv-read")
    assert out["failed"] == 1 and "model says" in out["reasons"][0]


def test_a_lost_acknowledged_transaction_is_counted_on_serve_repl(monkeypatch):
    real = rounds._Sessions.writer

    def forgetful(self, index, txns):
        # the model remembers one acknowledged insert the cluster never saw
        if index == 0 and not self.model:
            self.model[-1] = "acked but never written"
        return real(self, index, txns)

    monkeypatch.setattr(rounds._Sessions, "writer", forgetful)
    out = _round("serve-repl")
    assert out["failed"] == 1
    assert "promoted primary" in out["reasons"][0]
