"""Property-based testing of the filesystem against a dict model."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import BlockDevConfig
from repro.hw.clock import SimClock
from repro.hw.stats import Stats
from repro.storage.blockdev import BlockDevice
from repro.storage.ext4 import Ext4FileSystem

NAMES = ["alpha", "beta", "gamma"]

ops = st.lists(
    st.tuples(
        st.sampled_from(["create", "write", "truncate", "unlink", "fsync"]),
        st.sampled_from(NAMES),
        st.integers(min_value=0, max_value=3 * 4096),
        st.binary(min_size=0, max_size=600),
    ),
    max_size=25,
)


def fresh_fs(seed: int) -> Ext4FileSystem:
    device = BlockDevice(BlockDevConfig(num_pages=2048), SimClock(), Stats(), seed=seed)
    fs = Ext4FileSystem(device)
    fs.format()
    return fs


def apply_op(fs, model: dict[str, bytearray], op) -> None:
    kind, name, offset, data = op
    if kind == "create":
        if name not in model:
            fs.create(name)
            model[name] = bytearray()
    elif name in model:
        f = fs.open(name)
        if kind == "write":
            f.write(offset, data)
            m = model[name]
            if offset + len(data) > len(m):
                m.extend(bytes(offset + len(data) - len(m)))
            m[offset : offset + len(data)] = data
        elif kind == "truncate":
            f.truncate(offset)
            m = model[name]
            if offset <= len(m):
                del m[offset:]
            else:
                m.extend(bytes(offset - len(m)))
        elif kind == "unlink":
            fs.unlink(name)
            del model[name]
        elif kind == "fsync":
            f.fsync()


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=ops, seed=st.integers(min_value=0, max_value=1000))
def test_fs_matches_model(ops, seed):
    """Random file operations: the fs always equals a byte-array model."""
    fs = fresh_fs(seed)
    model: dict[str, bytearray] = {}
    for op in ops:
        apply_op(fs, model, op)
    assert set(fs.list_names()) == set(model)
    for name, content in model.items():
        f = fs.open(name)
        assert f.size == len(content)
        assert f.read(0, len(content)) == bytes(content)


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=ops, seed=st.integers(min_value=0, max_value=1000))
def test_fsynced_state_survives_crash(ops, seed):
    """After sync_all + power failure + mount, everything is intact."""
    fs = fresh_fs(seed)
    model: dict[str, bytearray] = {}
    for op in ops:
        apply_op(fs, model, op)
    fs.sync_all()
    assert fs.device.cached_page_count() == 0
    fs.power_fail()
    fs.mount()
    assert set(fs.list_names()) == set(model)
    for name, content in model.items():
        f = fs.open(name)
        assert f.read(0, len(content)) == bytes(content), name
