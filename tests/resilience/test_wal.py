"""Write-ahead log: append/read roundtrip, torn tails, corruption."""

import os

import pytest

from repro.errors import (
    InvalidParameterError,
    ResilienceError,
    WalCorruptionError,
)
from repro.resilience import (
    WriteAheadLog,
    read_wal,
    truncate_torn_tail,
)
from repro.resilience.wal import encode_record


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "events.wal")


def write_records(path, n):
    with WriteAheadLog(path) as log:
        for i in range(n):
            log.append("join", {"node": i})


class TestAppendRead:
    def test_roundtrip(self, wal_path):
        with WriteAheadLog(wal_path) as log:
            r1 = log.append("open", {"servers": [1, 2]})
            r2 = log.append("join", {"node": 7})
        assert (r1.seq, r2.seq) == (1, 2)
        result = read_wal(wal_path)
        assert not result.torn
        assert [r.kind for r in result.records] == ["open", "join"]
        assert result.records[1].data == {"node": 7}
        assert result.valid_bytes == os.path.getsize(wal_path)

    def test_missing_file_is_empty_log(self, wal_path):
        result = read_wal(wal_path)
        assert result.records == () and result.valid_bytes == 0

    def test_sequence_numbers_are_contiguous(self, wal_path):
        write_records(wal_path, 5)
        records = read_wal(wal_path).records
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]

    def test_closed_log_refuses_appends(self, wal_path):
        log = WriteAheadLog(wal_path)
        log.close()
        assert log.closed
        with pytest.raises(ResilienceError, match="closed"):
            log.append("join", {"node": 1})

    def test_parameter_validation(self, wal_path):
        with pytest.raises(InvalidParameterError):
            WriteAheadLog(wal_path, next_seq=0)

    def test_abandon_loses_exactly_the_unsynced_appends(self, wal_path):
        log = WriteAheadLog(wal_path)
        for i in range(5):
            log.append("join", {"node": i})
        assert os.path.getsize(wal_path) == 0  # appends alone write nothing
        log.sync()
        synced_size = os.path.getsize(wal_path)
        log.sync()  # nothing pending: no second write
        assert os.path.getsize(wal_path) == synced_size
        for i in range(5, 7):
            log.append("join", {"node": i})
        log.abandon()
        result = read_wal(wal_path)
        assert not result.torn
        assert [r.data["node"] for r in result.records] == [0, 1, 2, 3, 4]
        assert result.valid_bytes == synced_size


class TestTornTail:
    def test_partial_final_line_is_reported_and_truncated(self, wal_path):
        write_records(wal_path, 3)
        clean_size = os.path.getsize(wal_path)
        with open(wal_path, "ab") as handle:
            handle.write(b'{"crc":"00000000","data":{"no')
        with pytest.warns(RuntimeWarning, match="torn final record"):
            result = read_wal(wal_path)
        assert result.torn and len(result.records) == 3
        assert truncate_torn_tail(wal_path, result)
        assert os.path.getsize(wal_path) == clean_size
        assert not read_wal(wal_path).torn

    def test_byte_truncated_final_record(self, wal_path):
        """A record cut mid-way through its bytes is a torn tail."""
        write_records(wal_path, 4)
        with open(wal_path, "rb") as handle:
            raw = handle.read()
        with open(wal_path, "wb") as handle:
            handle.write(raw[:-10])
        with pytest.warns(RuntimeWarning):
            result = read_wal(wal_path)
        assert result.torn and len(result.records) == 3

    def test_checksum_flip_on_last_record(self, wal_path):
        write_records(wal_path, 2)
        with open(wal_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[-1] = lines[-1].replace(b'"node":1', b'"node":9')
        with open(wal_path, "wb") as handle:
            handle.writelines(lines)
        with pytest.warns(RuntimeWarning, match="invalid record"):
            result = read_wal(wal_path)
        assert result.torn and len(result.records) == 1

    def test_truncate_is_noop_for_clean_log(self, wal_path):
        write_records(wal_path, 2)
        assert not truncate_torn_tail(wal_path, read_wal(wal_path))

    def test_resume_truncates_and_continues_sequence(self, wal_path):
        write_records(wal_path, 3)
        with open(wal_path, "ab") as handle:
            handle.write(b"garbage")
        with pytest.warns(RuntimeWarning):
            log, records = WriteAheadLog.resume(wal_path)
        assert [r.seq for r in records] == [1, 2, 3]
        with log:
            assert log.append("join", {"node": 99}).seq == 4
        assert len(read_wal(wal_path).records) == 4


class TestMidFileDamage:
    def test_valid_records_after_damage_raise(self, wal_path):
        """Truncating past acknowledged records must be refused."""
        write_records(wal_path, 4)
        with open(wal_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = b'{"crc":"bad"}\n'
        with open(wal_path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(WalCorruptionError, match="mid-file"):
            read_wal(wal_path)

    def test_sequence_gap_with_valid_followers_raises(self, wal_path):
        write_records(wal_path, 3)
        with open(wal_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        del lines[1]  # drop seq 2: seq 3 follows seq 1
        with open(wal_path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(WalCorruptionError):
            read_wal(wal_path)


def test_encode_record_is_compact_sorted_json():
    from repro.resilience import WalRecord

    line = encode_record(WalRecord(seq=1, kind="join", data={"node": 3}))
    assert line.startswith('{"crc":"')
    assert '"data":{"node":3},"kind":"join","seq":1}' in line
