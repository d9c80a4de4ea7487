"""ObsSession: enablement resolution, phases, telemetry assembly."""

import io
import json

import pytest

import repro.obs as obs_module
from repro.obs import (
    NULL_REGISTRY,
    NULL_SESSION,
    ObsSession,
    TraceWriter,
    default_session,
)
from repro.obs.clock import FakeClock, set_clock


class TestEnablement:
    def test_disabled_by_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        session = ObsSession()
        assert not session.enabled
        assert session.registry is NULL_REGISTRY

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        session = ObsSession()
        assert session.enabled
        assert session.registry is not NULL_REGISTRY

    def test_tracer_implies_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        session = ObsSession(tracer=TraceWriter(io.StringIO()))
        assert session.enabled
        assert session.tracer is not None

    def test_explicit_disable_wins_over_tracer(self):
        session = ObsSession(enabled=False, tracer=TraceWriter(io.StringIO()))
        assert not session.enabled
        assert session.tracer is None

    def test_null_session_is_disabled_and_shared(self):
        assert not NULL_SESSION.enabled
        assert NULL_SESSION.registry is NULL_REGISTRY


class TestDefaultSession:
    def test_cached_across_calls(self, monkeypatch):
        monkeypatch.setattr(obs_module, "_default", None)
        monkeypatch.delenv("REPRO_OBS", raising=False)
        first = default_session()
        assert default_session() is first
        assert not first.enabled

    def test_env_opt_in_yields_enabled_default(self, monkeypatch):
        monkeypatch.setattr(obs_module, "_default", None)
        monkeypatch.setenv("REPRO_OBS", "1")
        assert default_session().enabled


class TestPhases:
    def test_phase_accumulates_fake_clock_seconds(self):
        fake = FakeClock()
        previous = set_clock(fake)
        try:
            session = ObsSession(enabled=True)
            with session.phase("simulate"):
                fake.advance(1.5)
            with session.phase("simulate"):
                fake.advance(0.5)
            with session.phase("topology"):
                fake.advance(0.25)
        finally:
            set_clock(previous)
        assert session.phase_seconds == {
            "simulate": pytest.approx(2.0), "topology": pytest.approx(0.25),
        }

    def test_disabled_phase_never_reads_the_clock(self):
        class ExplodingClock(FakeClock):
            def monotonic(self):
                raise AssertionError("disabled phase read the clock")

        previous = set_clock(ExplodingClock())
        try:
            with NULL_SESSION.phase("anything"):
                pass
        finally:
            set_clock(previous)
        assert NULL_SESSION.phase_seconds == {}

    def test_phase_emits_trace_event_when_traced(self):
        buffer = io.StringIO()
        session = ObsSession(tracer=TraceWriter(buffer))
        with session.phase("workload"):
            pass
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        phases = [r for r in records if r.get("name") == "phase"]
        assert phases and phases[0]["phase"] == "workload"

    def test_event_forwards_only_with_tracer(self):
        buffer = io.StringIO()
        traced = ObsSession(tracer=TraceWriter(buffer))
        traced.event("attack.lock", amount=1.0)
        assert "attack.lock" in buffer.getvalue()
        ObsSession(enabled=True).event("dropped")  # no tracer: no-op


class TestTelemetryAssembly:
    def test_empty_session_builds_empty_telemetry(self):
        telemetry = ObsSession(enabled=True).build_telemetry()
        assert telemetry.counters == {}
        assert telemetry.phase_seconds == {}
