"""Tests for platform profiles and the cost-model configuration."""

import dataclasses

import pytest

from repro.config import (
    ATOMIC_UNIT,
    PAGE_SIZE,
    PROFILES,
    CacheConfig,
    NvramConfig,
    nexus5,
    tuna,
)


def test_profiles_registry():
    assert set(PROFILES) == {"tuna", "nexus5"}
    assert PROFILES["tuna"]().name == "tuna"
    assert PROFILES["nexus5"]().name == "nexus5"


def test_tuna_matches_paper_platform():
    config = tuna()
    assert config.cache.line_size == 32  # Tuna's cache line (Section 5)
    assert config.nvram.write_latency_ns == 500  # Section 5.1 default
    assert config.cache.persist_barrier_ns == 1000  # 1 usec emulated barrier


def test_nexus5_matches_paper_platform():
    config = nexus5()
    assert config.cache.line_size == 64  # Snapdragon 800 (Section 5.4)
    assert config.nvram.write_latency_ns == 2000  # 2 usec starting point


def test_latency_knob():
    config = tuna(write_latency_ns=1900)
    assert config.nvram.write_latency_ns == 1900
    swept = config.with_nvram_write_latency(400)
    assert swept.nvram.write_latency_ns == 400
    assert config.nvram.write_latency_ns == 1900  # original untouched
    assert swept.cache == config.cache


def test_configs_are_frozen():
    config = tuna()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.page_size = 8192


def test_paper_constants():
    assert PAGE_SIZE == 4096  # SQLite default page
    assert ATOMIC_UNIT == 8  # Section 4.1's atomic write unit


def test_nexus_cpu_faster_than_tuna():
    assert nexus5().db_costs.statement_ns < tuna().db_costs.statement_ns
    assert nexus5().heapo.nvmalloc_ns < tuna().heapo.nvmalloc_ns


@pytest.mark.parametrize(
    "make,field",
    [(NvramConfig, name) for name in ("write_latency_ns", "read_latency_ns")]
    + [
        (CacheConfig, name)
        for name in (
            "flush_issue_ns",
            "dmb_ns",
            "persist_barrier_ns",
            "syscall_ns",
            "memcpy_ns_per_byte",
            "memcpy_base_ns",
        )
    ],
)
def test_negative_latency_or_cost_rejected_at_construction(make, field):
    """The CPU charges these inline with no per-call check: a negative
    value would move the clock backwards, so it never gets that far."""
    with pytest.raises(ValueError, match=field):
        make(**{field: -1})
    make(**{field: 0})  # zero is a legal cost


@pytest.mark.parametrize("depth", [0, -2])
def test_pipeline_depth_below_one_rejected(depth):
    with pytest.raises(ValueError, match="pipeline_depth"):
        CacheConfig(pipeline_depth=depth)


def test_profiles_and_zero_latency_still_build():
    assert tuna().cache.pipeline_depth >= 1
    assert nexus5().cache.pipeline_depth >= 1
    assert tuna().with_nvram_write_latency(0).nvram.write_latency_ns == 0
    with pytest.raises(ValueError):
        tuna().with_nvram_write_latency(-500)
