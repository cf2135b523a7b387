"""Serving metrics: Prometheus exposition golden test, healthz, monotonicity.

The /metrics payload is an interface: dashboards and alerts bind to
metric names, types and label keys.  The golden test pins that surface
so a rename is a deliberate, reviewed change — not fallout.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import perf
from repro.perf import PerfRegistry
from repro.serve import GenerateRequest, GenerationService, ModelStore
from repro.serve.http import TrafficServer
from repro.serve.metrics import render_prometheus
from repro.serve.service import BATCH_BUCKETS


def _registry_with_traffic() -> PerfRegistry:
    reg = PerfRegistry()
    reg.incr("serve.requests", 5)
    reg.incr("serve.completed", 4)
    reg.incr("serve.rejected", 1)
    reg.incr("serve.batches", 2)
    reg.incr("serve.batched_flows", 9)
    reg.observe("serve.request_latency_seconds", 0.003)
    reg.observe("serve.request_latency_seconds", 0.04)
    reg.observe("serve.batch_requests", 2, buckets=BATCH_BUCKETS)
    reg.observe("serve.batch_flows", 9, buckets=BATCH_BUCKETS)
    reg.incr("denoiser.forward", 20)
    with reg.timer("pipeline.sample_latents"):
        pass
    return reg


class TestExposition:
    def test_pinned_names_types_and_labels(self):
        """The metric surface: every name/type/label-key pair dashboards
        may bind to.  Extending is fine; renaming is a breaking change."""
        text = render_prometheus(registry=_registry_with_traffic())
        for line in [
            "# TYPE repro_serve_requests_total counter",
            'repro_serve_requests_total{status="received"} 5',
            'repro_serve_requests_total{status="completed"} 4',
            'repro_serve_requests_total{status="rejected"} 1',
            'repro_serve_requests_total{status="rejected_closed"} 0',
            'repro_serve_requests_total{status="expired"} 0',
            'repro_serve_requests_total{status="cancelled"} 0',
            'repro_serve_requests_total{status="error"} 0',
            "# TYPE repro_serve_batches_total counter",
            "repro_serve_batches_total 2",
            "# TYPE repro_serve_batched_flows_total counter",
            "repro_serve_batched_flows_total 9",
            "# TYPE repro_serve_request_latency_seconds histogram",
            "# TYPE repro_serve_batch_requests histogram",
            "# TYPE repro_serve_batch_flows histogram",
            "# TYPE repro_perf_counter_total counter",
            'repro_perf_counter_total{name="denoiser.forward"} 20',
            "# TYPE repro_perf_timer_seconds_total counter",
            "# TYPE repro_perf_timer_calls_total counter",
            'repro_perf_timer_calls_total{stage="pipeline.sample_latents"}'
            " 1",
        ]:
            assert line in text, f"missing exposition line: {line!r}"

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = render_prometheus(registry=_registry_with_traffic())
        lines = [ln for ln in text.splitlines()
                 if ln.startswith("repro_serve_request_latency_seconds")]
        buckets = [ln for ln in lines if "_bucket{" in ln]
        # 13 finite bounds (perf.DEFAULT_BUCKETS) + the +Inf bucket.
        assert len(buckets) == 14
        assert buckets[-1] == \
            'repro_serve_request_latency_seconds_bucket{le="+Inf"} 2'
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in buckets]
        assert counts == sorted(counts)  # cumulative by definition
        # 0.003 lands in le=0.005; 0.04 in le=0.05.
        assert 'bucket{le="0.005"} 1' in text
        assert 'bucket{le="0.05"} 2' in text
        assert "repro_serve_request_latency_seconds_count 2" in lines[-1]
        (sum_line,) = [ln for ln in lines if "_sum" in ln]
        assert abs(float(sum_line.rsplit(" ", 1)[1]) - 0.043) < 1e-12

    def test_empty_registry_renders_zeroes(self):
        text = render_prometheus(registry=PerfRegistry())
        assert 'repro_serve_requests_total{status="received"} 0' in text
        assert "repro_serve_batches_total 0" in text
        # No observations -> no histogram series at all (Prometheus
        # treats an absent series as absent, not zero).
        assert "repro_serve_request_latency_seconds_bucket" not in text

    def test_label_values_escaped(self):
        reg = PerfRegistry()
        reg.incr('weird"name\\with\nstuff')
        text = render_prometheus(registry=reg)
        assert r'{name="weird\"name\\with\nstuff"}' in text


def _scrape(url: str) -> str:
    with urllib.request.urlopen(f"{url}/metrics", timeout=30) as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith("text/plain")
        return resp.read().decode()


def _counter_value(text: str, line_prefix: str) -> int:
    for line in text.splitlines():
        if line.startswith(line_prefix):
            return int(float(line.rsplit(" ", 1)[1]))
    raise AssertionError(f"no metric line starts with {line_prefix!r}")


class TestLiveEndpoints:
    @pytest.fixture()
    def served(self, tmp_path, small_pipeline):
        perf.reset()
        store = ModelStore(tmp_path)
        service = GenerationService(
            store=store, default_model="0" * 32, server_seed=3,
            max_wait=0.02,
        )
        srv = TrafficServer(("127.0.0.1", 0), service, store=store)
        srv.start_background()
        host, port = srv.server_address[:2]
        yield store, service, f"http://{host}:{port}"
        srv.stop()
        service.shutdown(drain=False)

    @pytest.fixture(scope="module")
    def small_pipeline(self):
        from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
        from repro.traffic.dataset import generate_app_flows

        config = PipelineConfig(
            max_packets=8, latent_dim=16, hidden=32, blocks=2,
            timesteps=40, train_steps=30, controlnet_steps=15,
            ddim_steps=6, generation_batch=8, seed=2,
        )
        return TextToTrafficPipeline(config).fit(
            generate_app_flows("netflix", 10, seed=3)
        )

    def test_healthz_tracks_model_availability(self, served,
                                               small_pipeline):
        store, service, url = served
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{url}/healthz", timeout=30)
        assert err.value.code == 503
        assert json.loads(err.value.read())["status"] == "no model"

        digest = store.add(small_pipeline)
        service._default_model = digest
        with urllib.request.urlopen(f"{url}/healthz", timeout=30) as resp:
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "ok"

        service.begin_drain()
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{url}/healthz", timeout=30)
        assert err.value.code == 503
        assert json.loads(err.value.read())["status"] == "draining"

    def test_counters_monotonic_across_scrapes(self, served,
                                               small_pipeline):
        store, service, url = served
        digest = store.add(small_pipeline)
        service._default_model = digest
        received = 'repro_serve_requests_total{status="received"}'
        completed = 'repro_serve_requests_total{status="completed"}'
        before = _scrape(url)
        service.generate(GenerateRequest(
            request_id=0, class_name="netflix", count=1))
        middle = _scrape(url)
        service.generate(GenerateRequest(
            request_id=1, class_name="netflix", count=1))
        after = _scrape(url)
        seq_received = [_counter_value(t, received)
                        for t in (before, middle, after)]
        seq_completed = [_counter_value(t, completed)
                         for t in (before, middle, after)]
        assert seq_received == [0, 1, 2]
        assert seq_completed == [0, 1, 2]
        assert _counter_value(after, "repro_serve_models_loaded") == 1
        assert _counter_value(after, "repro_serve_queue_depth") == 0

    def test_scrape_carries_pipeline_perf_counters(self, served,
                                                   small_pipeline):
        store, service, url = served
        digest = store.add(small_pipeline)
        service._default_model = digest
        service.generate(GenerateRequest(
            request_id=0, class_name="netflix", count=1))
        text = _scrape(url)
        assert _counter_value(
            text, 'repro_perf_counter_total{name="infer.forward"}') > 0
        assert "repro_serve_request_latency_seconds_bucket" in text
        # Decoder validity counters ride beside latency.
        decode = 'repro_perf_counter_total{name="nprint.decode.%s"}'
        assert _counter_value(text, decode % "packets") > 0
        for name in ("fallback_proto", "proto_rewritten", "payload_clamped"):
            assert _counter_value(text, decode % name) >= 0
