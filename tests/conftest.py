"""Shared fixtures for the NVWAL reproduction test suite."""

from __future__ import annotations

import pytest

from repro import Database, System, nexus5, tuna
from repro.wal.filewal import FileWalBackend
from repro.wal.nvwal import NvwalBackend, NvwalScheme


@pytest.fixture
def system() -> System:
    """A Tuna-profile system with a deterministic seed."""
    return System(tuna(), seed=0)


@pytest.fixture
def nexus_system() -> System:
    """A Nexus 5-profile system."""
    return System(nexus5(), seed=0)


def make_nvwal_db(
    system: System,
    scheme: NvwalScheme | None = None,
    name: str = "test.db",
    checkpoint_threshold: int = 1000,
    **kwargs,
) -> Database:
    """Database over an NVWAL backend (fresh or reopened)."""
    wal = NvwalBackend(
        system,
        scheme or NvwalScheme.uh_ls_diff(),
        checkpoint_threshold=checkpoint_threshold,
    )
    return Database(system, wal=wal, name=name, **kwargs)


def make_file_db(
    system: System,
    optimized: bool = False,
    name: str = "test.db",
    **kwargs,
) -> Database:
    """Database over a file-WAL backend."""
    wal = FileWalBackend(system, optimized=optimized)
    return Database(system, wal=wal, name=name, **kwargs)


@pytest.fixture
def db(system) -> Database:
    """A ready NVWAL database with a standard kv table."""
    database = make_nvwal_db(system)
    database.execute(
        "CREATE TABLE kv (key INTEGER PRIMARY KEY, value TEXT)"
    )
    return database
