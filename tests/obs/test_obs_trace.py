"""TraceWriter: JSONL schema, sinks, deterministic timestamps via FakeClock."""

import io
import json

from repro.obs.clock import FakeClock, set_clock
from repro.obs.trace import TRACE_SCHEMA_VERSION, TraceWriter


def records_of(buffer):
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


class TestMetaHeader:
    def test_first_record_is_versioned_meta(self):
        buffer = io.StringIO()
        writer = TraceWriter(buffer)
        writer.close()
        records = records_of(buffer)
        assert records[0] == {
            "type": "meta", "schema_version": TRACE_SCHEMA_VERSION,
        }
        assert writer.records_written == 1


class TestEvents:
    def test_event_record_carries_ts_and_fields(self):
        fake = FakeClock()
        previous = set_clock(fake)
        try:
            buffer = io.StringIO()
            writer = TraceWriter(buffer)
            fake.advance(1.5)
            writer.event("payment", payment_id=7, amount=2.0)
            writer.close()
        finally:
            set_clock(previous)
        record = records_of(buffer)[1]
        assert record == {
            "type": "event", "name": "payment", "ts": 1.5,
            "payment_id": 7, "amount": 2.0,
        }

    def test_timestamps_are_relative_to_writer_open(self):
        fake = FakeClock(start=100.0)
        previous = set_clock(fake)
        try:
            buffer = io.StringIO()
            writer = TraceWriter(buffer)
            fake.advance(0.25)
            writer.event("tick")
            writer.close()
        finally:
            set_clock(previous)
        assert records_of(buffer)[1]["ts"] == 0.25


class TestSinks:
    def test_file_path_sink_owns_and_closes_handle(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(str(path)) as writer:
            writer.event("one")
            writer.event("two")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["type"] == "meta"
        assert [json.loads(line)["type"] for line in lines[1:]] == (
            ["event", "event"]
        )

    def test_io_sink_not_closed_by_writer(self):
        buffer = io.StringIO()
        writer = TraceWriter(buffer)
        writer.close()
        assert not buffer.closed  # caller-owned handle stays usable

    def test_records_written_counts_every_line(self):
        buffer = io.StringIO()
        writer = TraceWriter(buffer)
        writer.event("a")
        writer.event("b")
        writer.close()
        assert writer.records_written == 3
        assert len(records_of(buffer)) == 3
