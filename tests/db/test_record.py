"""Tests for row serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.record import (
    decode_row,
    decode_value,
    encode_row,
    encode_value,
    validate_type,
)
from repro.errors import DatabaseError


class TestValues:
    @pytest.mark.parametrize(
        "value",
        [None, 0, -1, 2**62, -(2**62), 1.5, -0.0, "", "héllo", b"", b"\x00\xff"],
    )
    def test_roundtrip(self, value):
        encoded = encode_value(value)
        decoded, offset = decode_value(encoded, 0)
        assert decoded == value
        assert offset == len(encoded)

    def test_bool_stored_as_int(self):
        decoded, _ = decode_value(encode_value(True), 0)
        assert decoded == 1

    def test_unsupported_type(self):
        with pytest.raises(DatabaseError):
            encode_value([1, 2])

    def test_corrupt_tag(self):
        with pytest.raises(DatabaseError):
            decode_value(b"\x99", 0)


class TestRows:
    def test_row_roundtrip(self):
        row = (1, "name", 3.5, b"blob", None)
        assert decode_row(encode_row(row)) == row

    def test_empty_row(self):
        assert decode_row(encode_row(())) == ()

    def test_empty_payload_rejected(self):
        with pytest.raises(DatabaseError):
            decode_row(b"")

    def test_too_many_columns(self):
        with pytest.raises(DatabaseError):
            encode_row([0] * 256)

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.floats(allow_nan=False),
                st.text(max_size=200),
                st.binary(max_size=200),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, values):
        assert decode_row(encode_row(values)) == tuple(values)

    @given(
        st.one_of(
            st.binary(max_size=40),
            st.lists(
                st.one_of(
                    st.none(), st.integers(-5, 5), st.floats(allow_nan=False),
                    st.text(max_size=8), st.binary(max_size=8),
                ),
                max_size=6,
            ).map(encode_row),
        ),
        st.integers(0, 40),
        st.integers(0, 255),
    )
    def test_one_pass_decode_matches_decode_value(self, buf, at, byte):
        """decode_row reads a row the way a loop of decode_value calls
        does, down to the exception a damaged payload raises."""
        if buf:
            damaged = bytearray(buf)
            damaged[at % len(buf)] = byte
            buf = bytes(damaged)

        def per_field(buf):
            if not buf:
                raise DatabaseError("corrupt record: empty payload")
            values, offset = [], 1
            for _ in range(buf[0]):
                value, offset = decode_value(buf, offset)
                values.append(value)
            return tuple(values)

        outcomes = []
        for decode in (decode_row, per_field):
            try:
                outcomes.append(("ok", repr(decode(buf))))  # NaN != NaN
            except Exception as exc:  # noqa: BLE001 - the error is the outcome
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


class TestTypeValidation:
    def test_null_always_passes(self):
        validate_type(None, "INTEGER", "c")

    def test_matching_types_pass(self):
        validate_type(1, "INTEGER", "c")
        validate_type(1.5, "REAL", "c")
        validate_type(1, "REAL", "c")  # ints coerce to REAL
        validate_type("s", "TEXT", "c")
        validate_type(b"b", "BLOB", "c")

    @pytest.mark.parametrize(
        "value,sql_type",
        [("s", "INTEGER"), (1, "TEXT"), (b"b", "TEXT"), ("s", "BLOB")],
    )
    def test_mismatches_fail(self, value, sql_type):
        with pytest.raises(DatabaseError):
            validate_type(value, sql_type, "c")

    def test_unknown_type(self):
        with pytest.raises(DatabaseError):
            validate_type(1, "VARCHAR", "c")
