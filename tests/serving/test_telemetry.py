"""Serving telemetry: span chains, frozen latency, stats percentiles."""

import time

import numpy as np
import pytest

from repro.observability import MetricsRegistry, Tracer
from repro.serving import AnalysisService
from repro.serving.service import PendingRequest

LENGTH = 16


def make_service(analyzer=None, **kwargs):
    if analyzer is None:
        analyzer = lambda data: np.array([float(np.mean(data))])  # noqa: E731
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("queue_size", 8)
    kwargs.setdefault("expected_length", LENGTH)
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("tracer", Tracer())
    return AnalysisService(analyzer, **kwargs)


class TestTraceChain:
    def test_completed_request_links_its_three_spans(self):
        """Acceptance: one served request's trace links
        submit → queue → resolve; its dispatch is a serving.batch span."""
        tracer = Tracer()
        service = make_service(tracer=tracer)
        with service:
            request = service.submit(np.ones(LENGTH))
            result = request.result(timeout=5.0)
        assert result.ok
        assert request.trace_id is not None

        spans = tracer.trace(request.trace_id)
        assert [s.name for s in spans] == [
            "serving.submit", "serving.queue", "serving.resolve",
        ]
        by_name = {s.name: s for s in spans}
        # One shared trace, each span parented on the previous link.
        assert by_name["serving.submit"].parent_id is None
        assert (by_name["serving.queue"].parent_id
                == by_name["serving.submit"].span_id)
        assert (by_name["serving.resolve"].parent_id
                == by_name["serving.queue"].span_id)
        for span in spans:
            assert span.ended
            assert span.status == "ok"
        assert by_name["serving.resolve"].attributes["outcome"] == "completed"
        batches = [s for s in tracer.finished_spans()
                   if s.name == "serving.batch"]
        assert len(batches) == 1
        assert batches[0].attributes["batch_size"] == 1
        assert batches[0].attributes["first_request_id"] == request.request_id
        assert "analyzer_seconds" in batches[0].attributes

    def test_rejected_request_trace_marks_the_failed_stage(self):
        tracer = Tracer()
        service = make_service(tracer=tracer)
        with service:
            request = service.submit(np.ones(LENGTH + 3))  # wrong length
            result = request.result(timeout=5.0)
        assert not result.ok
        spans = tracer.trace(request.trace_id)
        assert [s.name for s in spans] == [
            "serving.submit", "serving.queue", "serving.resolve",
        ]
        assert spans[-1].attributes["outcome"] == "invalid_input"
        # Refused before dispatch: no backend call was traced.
        assert not [s for s in tracer.finished_spans()
                    if s.name == "serving.batch"]

    def test_queue_full_trace_ends_at_submit(self):
        tracer = Tracer()
        blocker = lambda data: time.sleep(0.2) or np.ones(1)  # noqa: E731
        service = make_service(analyzer=blocker, queue_size=1, tracer=tracer)
        with service:
            admitted = [service.submit(np.ones(LENGTH)) for _ in range(4)]
            shed = next(
                r for r in admitted
                if r.resolved and not r.result(timeout=0.0).ok
            )
            spans = {s.name: s for s in tracer.trace(shed.trace_id)}
            assert spans["serving.submit"].status == "error: queue_full"
            assert spans["serving.queue"].status == "error: queue_full"
            assert spans["serving.resolve"].attributes["outcome"] == "queue_full"
            for request in admitted:
                request.result(timeout=5.0)

    def test_each_request_roots_its_own_trace(self):
        tracer = Tracer()
        service = make_service(tracer=tracer)
        with service:
            first = service.submit(np.ones(LENGTH))
            second = service.submit(np.ones(LENGTH))
            first.result(timeout=5.0)
            second.result(timeout=5.0)
        assert first.trace_id != second.trace_id

    def test_disabled_tracer_leaves_no_trace_context(self):
        service = make_service(tracer=Tracer(enabled=False))
        with service:
            request = service.submit(np.ones(LENGTH))
            result = request.result(timeout=5.0)
        assert result.ok
        assert request.trace_id is None


class TestLatencyFreeze:
    def test_latency_frozen_at_resolution(self):
        """Satellite: ``latency()`` stops growing once resolved."""
        ticks = iter([0.0, 1.0, 3.0, 50.0, 90.0])
        request = PendingRequest(
            request_id=0, data=None, deadline_at=100.0,
            clock=lambda: next(ticks),
        )
        assert request.latency() == pytest.approx(1.0)  # in flight: grows
        request.resolve("done")  # resolved at t=3
        assert request.latency() == pytest.approx(3.0)
        assert request.latency() == pytest.approx(3.0)  # clock at 50, 90: frozen

    def test_served_latency_matches_result_latency(self):
        service = make_service()
        with service:
            request = service.submit(np.ones(LENGTH))
            result = request.result(timeout=5.0)
        frozen = request.latency()
        time.sleep(0.02)
        assert request.latency() == frozen
        assert result.latency_s <= frozen


class TestStatsTelemetry:
    def test_stats_reports_percentiles_and_levels(self):
        registry = MetricsRegistry()
        service = make_service(registry=registry)
        with service:
            for _ in range(9):
                assert service.analyze(np.ones(LENGTH)).ok
            service.analyze(np.ones(LENGTH + 1))
            stats = service.stats()
        assert stats["queue_depth"] == 0.0
        assert stats["inflight"] == 0.0
        completed = stats["latency_s"]["completed"]
        assert completed["count"] == 9
        assert 0 < completed["p50"] <= completed["p95"] <= completed["p99"]
        assert stats["latency_s"]["invalid_input"]["count"] == 1

    def test_two_services_do_not_mix_series(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        first = make_service(registry=registry, tracer=tracer, name="a")
        second = make_service(registry=registry, tracer=tracer, name="b")
        with first, second:
            for _ in range(3):
                first.analyze(np.ones(LENGTH))
            second.analyze(np.ones(LENGTH))
            first_stats = first.stats()
            second_stats = second.stats()
        assert first_stats["latency_s"]["completed"]["count"] == 3
        assert second_stats["latency_s"]["completed"]["count"] == 1
        counter = registry.get("serving_requests_total")
        assert counter.value(outcome="completed", service="a") == 3
        assert counter.value(outcome="completed", service="b") == 1

    def test_counters_roll_up_across_outcomes(self):
        registry = MetricsRegistry()
        service = make_service(registry=registry)
        with service:
            service.analyze(np.ones(LENGTH))
            service.analyze(np.ones(LENGTH - 5))
        submitted = registry.get("serving_submitted_total")
        requests = registry.get("serving_requests_total")
        assert submitted.total() == 2
        assert requests.total() == 2
