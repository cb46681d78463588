"""Tests for the exception hierarchy."""

import pytest

from repro import errors


def test_everything_derives_from_repro_error():
    leaf_exceptions = [
        errors.AddressError,
        errors.PowerFailure,
        errors.OutOfNvram,
        errors.BadHandle,
        errors.HeapStateError,
        errors.NoSuchFile,
        errors.FileExists,
        errors.OutOfSpace,
        errors.FsConsistencyError,
        errors.SqlError,
        errors.TableError,
        errors.TransactionError,
        errors.KeyNotFound,
        errors.DuplicateKey,
        errors.PageError,
        errors.ChecksumError,
    ]
    for exc in leaf_exceptions:
        assert issubclass(exc, errors.ReproError)


def test_family_groupings():
    assert issubclass(errors.AddressError, errors.HardwareError)
    assert issubclass(errors.OutOfNvram, errors.HeapError)
    assert issubclass(errors.NoSuchFile, errors.StorageError)
    assert issubclass(errors.SqlError, errors.DatabaseError)
    assert issubclass(errors.ChecksumError, errors.WalError)


def test_catchable_as_family():
    with pytest.raises(errors.DatabaseError):
        raise errors.DuplicateKey("k")
    with pytest.raises(errors.ReproError):
        raise errors.PowerFailure("out")


def _all_error_classes():
    found = []
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, errors.ReproError):
            found.append(obj)
    return found


def test_uniform_classification_attributes():
    """Every error in the hierarchy declares category and retryable."""
    classes = _all_error_classes()
    assert len(classes) > 20
    for exc in classes:
        assert isinstance(exc.category, str) and exc.category, exc
        assert isinstance(exc.retryable, bool), exc


def test_retryable_classification():
    """Transient vs. persistent vs. logical split the service relies on."""
    assert errors.IoError.retryable is True
    assert errors.BusyError.retryable is True
    assert errors.CircuitOpenError.retryable is True
    assert errors.ReadOnlyError.retryable is True
    assert errors.MediaError.retryable is False
    assert errors.SqlError.retryable is False
    assert errors.TransactionError.retryable is False
    assert errors.DeadlineExceeded.retryable is False
    assert errors.PowerFailure.retryable is False


def test_categories_distinguish_fault_families():
    assert errors.IoError.category == "io"
    assert errors.MediaError.category == "media"
    assert errors.BusyError.category == "busy"
    assert errors.DeadlineExceeded.category == "deadline"
    assert errors.CircuitOpenError.category == "breaker"
    assert errors.ReadOnlyError.category == "degraded"


def test_injectors_stamp_classification_on_raised_errors():
    """Errors raised by the fault injectors carry the retryable flag."""
    from repro.faults.inject import BlockIoFaultInjector, NvramFaultInjector
    from repro.faults.plan import IoFaultSpec, MediaFaultSpec
    from repro.hw.memory import NvramDevice

    io = BlockIoFaultInjector(IoFaultSpec(write_error_rate=1.0), seed=1)
    with pytest.raises(errors.IoError) as exc_info:
        io.before_op("write", 0)
    assert exc_info.value.retryable is True
    assert exc_info.value.category == "io"

    nvram = NvramDevice()
    nvram.persist(0, b"\xaa" * 64)
    media = NvramFaultInjector(MediaFaultSpec(poison_units=1), seed=1)
    media.on_power_loss(nvram)
    assert media.poisoned
    unit = next(iter(media.poisoned))
    with pytest.raises(errors.MediaError) as exc_info:
        media.filter_read(unit, 8, b"\x00" * 8)
    assert exc_info.value.retryable is False
    assert exc_info.value.category == "media"
