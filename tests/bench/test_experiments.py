"""Smoke + shape tests for every experiment module (quick configurations).

These assert the *qualitative* paper results — who wins, in which
direction — on small runs; ``python -m repro.bench <name>`` regenerates
the full-size tables EXPERIMENTS.md discusses.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.experiments import fig8, table1, table2
from repro.bench.report import Report


def test_registry_covers_all_paper_artifacts():
    expected = {
        "table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9",
        "motivation",
        "ablation_blocksize", "ablation_persistency", "ablation_diff",
        "ablation_recovery", "ablation_checkpoint",
        "group_commit", "service_storm", "replication", "workloads",
    }
    assert set(EXPERIMENTS) == expected


@pytest.mark.parametrize("name", ["table1", "fig5", "fig6"])
def test_ordering_experiments_render(name):
    report = EXPERIMENTS[name](quick=True)
    assert isinstance(report, Report)
    text = report.render()
    assert name.replace("fig", "Figure ").replace("table", "Table ") in text
    assert report.tables


def test_table1_flushes_grow_with_inserts():
    report = table1.run(quick=True)
    row = report.tables[0].rows[0]
    flushes = row[1:]
    assert all(b > a for a, b in zip(flushes, flushes[1:]))


def test_table2_diff_writes_fewer_bytes_and_bytes_grow_with_ops():
    rows = {r[0]: r[1:-1] for r in table2.run(quick=True).tables[0].rows}
    for op in ("Insert", "Update", "Delete"):
        full, diff = rows[op], rows[f"{op} (Diff)"]
        assert all(d < f for d, f in zip(diff, full))
        for series in (full, diff):
            assert all(b > a for a, b in zip(series, series[1:]))


def test_fig6_overhead_percentage_decreases():
    report = EXPERIMENTS["fig6"](quick=True)
    lazy_rows = [r for r in report.tables[0].rows if r[1] == "L"]
    percentages = [r[4] for r in lazy_rows]
    assert percentages[0] > percentages[-1]
    assert 2.0 < percentages[0] < 9.0  # paper: 4.6%


def test_fig5_eager_slower_than_lazy_at_32():
    report = EXPERIMENTS["fig5"](quick=True)
    rows32 = {r[1]: r[5] for r in report.tables[0].rows if r[0] == 32}
    assert rows32["E"] > rows32["L"]


def test_fig8_optimized_reduces_journal_traffic():
    report = fig8.run(quick=True)
    traffic = {r[0]: r[1] for r in report.tables[0].rows}
    assert traffic["Optimized WAL"] < traffic["WAL"]
    batch = {r[0]: r[5] for r in report.tables[0].rows}
    assert batch["Optimized WAL"] < batch["WAL"]


def test_ablation_diff_multi_writes_least():
    report = EXPERIMENTS["ablation_diff"](quick=True)
    insert_rows = {r[0]: r[2] for r in report.tables[0].rows if r[1] == "insert"}
    assert insert_rows["multi"] < insert_rows["single"] <= insert_rows["full"]


def test_ablation_persistency_epoch_beats_strict():
    report = EXPERIMENTS["ablation_persistency"](quick=True)
    by_model = {r[0]: r[-1] for r in report.tables[0].rows}  # highest latency
    assert by_model["epoch"] > by_model["strict"]


def test_ablation_blocksize_fewer_kernel_calls_with_bigger_blocks():
    report = EXPERIMENTS["ablation_blocksize"](quick=True)
    rows = report.tables[0].rows
    pre_malloc = [r[3] for r in rows]
    assert pre_malloc[0] > pre_malloc[-1]


def test_motivation_ladder_ordering():
    """Rollback journal < stock WAL < optimized WAL < NVWAL."""
    report = EXPERIMENTS["motivation"](quick=True)
    tput = {r[0]: r[1] for r in report.tables[0].rows}
    assert (
        tput["Rollback journal on eMMC"]
        < tput["WAL on eMMC"]
        < tput["Optimized WAL on eMMC"]
        < tput["NVWAL UH+LS+Diff"]
    )
    fsyncs = {r[0]: r[2] for r in report.tables[0].rows}
    assert fsyncs["Rollback journal on eMMC"] > fsyncs["WAL on eMMC"]
    assert fsyncs["NVWAL UH+LS+Diff"] == 0


def test_ablation_recovery_grows_with_log():
    report = EXPERIMENTS["ablation_recovery"](quick=True)
    rows = report.tables[0].rows
    # NVWAL over an empty db, NVWAL over a preloaded db, the file WAL
    assert len(rows) == 3
    *nvwal, file_wal = rows
    for row in rows:
        assert row[1] < row[2]  # longer log -> longer recovery
    for row in nvwal:
        assert all(nv < f for nv, f in zip(row[1:], file_wal[1:]))
    # the preloaded row's recoveries read no database page as a base
    assert "read as a base, per size: 0, 0." in report.render()


def test_ablation_checkpoint_runs():
    report = EXPERIMENTS["ablation_checkpoint"](quick=True)
    assert len(report.tables[0].rows) == 4


class TestFig7Shape:
    @pytest.fixture(scope="class")
    def report(self):
        return EXPERIMENTS["fig7"](quick=True, ops=("insert",))

    def test_throughput_decreases_with_latency(self, report):
        for row in report.tables[0].rows:
            series = row[1:]
            assert series[0] >= series[-1], row

    def test_diff_beats_plain_ls(self, report):
        rows = {r[0]: r[1:] for r in report.tables[0].rows}
        assert all(
            d >= p for d, p in zip(rows["NVWAL LS+Diff"], rows["NVWAL LS"])
        )

    def test_uh_beats_non_uh(self, report):
        rows = {r[0]: r[1:] for r in report.tables[0].rows}
        assert rows["NVWAL UH+LS+Diff"][0] > rows["NVWAL LS+Diff"][0]

    def test_uh_ls_diff_comparable_to_uh_cs_diff(self, report):
        """The paper's headline: correctness costs almost nothing."""
        rows = {r[0]: r[1:] for r in report.tables[0].rows}
        ls = rows["NVWAL UH+LS+Diff"]
        cs = rows["NVWAL UH+CS+Diff"]
        for a, b in zip(ls, cs):
            assert abs(a - b) / b < 0.10


class TestFig9Shape:
    @pytest.fixture(scope="class")
    def report(self):
        return EXPERIMENTS["fig9"](quick=True)

    def test_nvwal_10x_over_flash_at_2us(self, report):
        rows = {str(r[0]): r[1:] for r in report.tables[0].rows}
        nvwal = rows["NVWAL UH+LS+Diff on NVRAM"][0]
        flash = rows["Optimized WAL on eMMC"][0]
        assert nvwal >= 8 * flash  # paper: >=10x

    def test_crossover_exists(self, report):
        rows = {str(r[0]): r[1:] for r in report.tables[0].rows}
        flash = rows["Optimized WAL on eMMC"][0]
        ls_series = rows["NVWAL LS on NVRAM"]
        assert ls_series[0] > flash
        assert ls_series[-1] < flash

    def test_optimized_flash_beats_stock(self, report):
        rows = {str(r[0]): r[1:] for r in report.tables[0].rows}
        assert rows["Optimized WAL on eMMC"][0] > rows["WAL on eMMC"][0]


class TestGroupCommitShape:
    @pytest.fixture(scope="class")
    def report(self):
        return EXPERIMENTS["group_commit"](quick=True)

    def sync_rows(self, report):
        # table (b): commit-sync time per txn
        return {r[0]: r[1:] for r in report.tables[1].rows}

    def test_grouping_amortizes_commit_sync(self, report):
        """Grouped commit-sync time sits below per-txn for every scheme
        at every latency — the whole point of epoch batching."""
        rows = self.sync_rows(report)
        for label in ("E", "LS", "CS"):
            per = rows[f"{label} per-txn"]
            grp = rows[f"{label} grouped x8"]
            assert all(g < p for g, p in zip(grp, per)), label

    def test_gap_widens_with_latency_for_eager(self, report):
        """The avoided barriers wait on the device, so eager's saving
        grows with NVRAM write latency."""
        rows = self.sync_rows(report)
        saved = [
            p - g
            for p, g in zip(rows["E per-txn"], rows["E grouped x8"])
        ]
        assert saved[-1] > saved[0]

    def test_cs_bounds_the_benefit(self, report):
        """Checksum mode has no commit-time flushes: its per-txn cost is
        already below every grouped E/LS cell."""
        rows = self.sync_rows(report)
        assert max(rows["CS per-txn"]) < min(rows["E grouped x8"])

    def test_grouped_barriers_below_per_txn(self, report):
        rows = {r[0]: r[1:] for r in report.tables[2].rows}
        for label in ("E", "LS", "CS"):
            assert all(
                g < p
                for g, p in zip(
                    rows[f"{label} grouped x8"], rows[f"{label} per-txn"]
                )
            )


def test_cli_runs_and_lists(capsys):
    from repro.bench.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out
    assert main(["not-an-experiment"]) == 2


def test_cli_runs_one_experiment(capsys):
    from repro.bench.__main__ import main

    assert main(["table1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
