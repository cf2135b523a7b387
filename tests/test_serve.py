"""Serving tier: batched dispatch, per-request determinism, backpressure.

The serving contract under test: a request's flows depend only on
``(server_seed, request_id)`` — never on admission order, batch
composition or transport — and concurrent same-class requests are
served by ONE coalesced denoiser forward per DDIM step.
"""

from __future__ import annotations

import hashlib
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from eager_oracle import eager_sample_latents
from repro import perf
from repro.core.infer import CompiledDenoiser
from repro.core.pipeline import (
    NonFiniteLatentsError,
    PipelineConfig,
    TextToTrafficPipeline,
)
from repro.net.packet import render_flows
from repro.net.pcap import PcapWriter
from repro.serve import (
    SERVE_SALT,
    GenerateRequest,
    GenerationService,
    ModelNotFound,
    ModelStore,
    RequestExpired,
    ServiceClosed,
    ServiceOverloaded,
    request_rng,
)
from repro.serve.http import TrafficServer, _Handler
from repro.traffic.dataset import generate_app_flows


def _train_flows():
    flows = []
    for app in ("netflix", "teams"):
        flows.extend(generate_app_flows(app, 12, seed=3))
    return flows


@pytest.fixture(scope="module")
def fitted():
    config = PipelineConfig(
        max_packets=10, latent_dim=32, hidden=64, blocks=2,
        timesteps=80, train_steps=60, controlnet_steps=30,
        ddim_steps=10, generation_batch=16, seed=9,
    )
    return TextToTrafficPipeline(config).fit(_train_flows())


def _pcap_bytes(flows) -> bytes:
    buf = io.BytesIO()
    writer = PcapWriter(buf)
    datas, stamps = render_flows(flows)
    writer.write_many(datas, stamps)
    return buf.getvalue()


def _solo_bytes(pipeline, server_seed: int, request_id: int,
                count: int) -> bytes:
    """The reference output: the request generated alone, with its
    derived RNG, by ``generate_raw``'s steps on the eager autograd tape
    (``tests/eager_oracle.py``) instead of the compiled sampler."""
    rng = request_rng(server_seed, request_id)
    latents = eager_sample_latents(pipeline, "netflix", count, rng=rng)
    return _pcap_bytes(
        pipeline._finalize_latents(latents, "netflix", rng=rng).flows)


def _fields_id(fields: dict) -> str:
    return ",".join(f"{key}={value}" for key, value in fields.items())


def _service(fitted, **kwargs) -> GenerationService:
    kwargs.setdefault("server_seed", 7)
    kwargs.setdefault("max_wait", 0.05)
    return GenerationService(pipeline=fitted, **kwargs)


class TestRequestRng:
    def test_streams_are_request_keyed(self):
        a = request_rng(0, 1).standard_normal(8)
        b = request_rng(0, 1).standard_normal(8)
        c = request_rng(0, 2).standard_normal(8)
        d = request_rng(1, 1).standard_normal(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_salt_distinct_from_shard_salt(self):
        assert SERVE_SALT != 0x5EED5EED

    def test_stream_is_pinned(self):
        """Every served byte derives from this stream: a change to
        SERVE_SALT or to the derivation must fail here, not silently
        change what a server with a given seed returns."""
        assert np.array_equal(
            request_rng(11, 42).standard_normal(4),
            [0.14266286564345657, -0.21543514424482768,
             -1.2968526335341428, -0.6470844709189154],
        )


class TestServiceRoundtrip:
    def test_submit_resolves_to_generation_result(self, fitted):
        service = _service(fitted)
        try:
            result = service.generate(
                GenerateRequest(request_id=0, class_name="netflix", count=3)
            )
            assert len(result.flows) == 3
            assert all(f.label == "netflix" for f in result.flows)
        finally:
            service.shutdown()

    def test_served_bytes_equal_solo_generate_raw(self, fitted):
        service = _service(fitted)
        try:
            result = service.generate(
                GenerateRequest(request_id=5, class_name="netflix", count=2)
            )
        finally:
            service.shutdown()
        assert _pcap_bytes(result.flows) == _solo_bytes(fitted, 7, 5, 2)

    def test_bad_count_rejected_at_construction(self):
        with pytest.raises(ValueError, match="count"):
            GenerateRequest(request_id=0, class_name="netflix", count=0)

    @pytest.mark.parametrize("fields", [
        {"steps": 0}, {"steps": -3},
        {"guidance_weight": -1.0}, {"guidance_weight": float("nan")},
        {"guidance_weight": float("inf")},
    ], ids=_fields_id)
    def test_bad_sampling_fields_rejected_at_construction(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            GenerateRequest(request_id=0, class_name="netflix", count=1,
                            **fields)

    def test_count_over_max_batch_flows_rejected_at_submit(self, fitted):
        """One request is one sampler batch: a count above the fused
        width would bypass ``max_batch_flows`` and its memory bound."""
        service = _service(fitted, max_batch_flows=4)
        try:
            with pytest.raises(ValueError, match="max_batch_flows 4"):
                service.submit(GenerateRequest(
                    request_id=0, class_name="netflix", count=5))
            assert service.pending() == 0
        finally:
            service.shutdown()

    def test_unknown_class_fails_only_its_requests(self, fitted):
        service = _service(fitted, autostart=False)
        bad = service.submit(
            GenerateRequest(request_id=0, class_name="nope", count=1))
        good = service.submit(
            GenerateRequest(request_id=1, class_name="netflix", count=1))
        service.start()
        try:
            with pytest.raises(KeyError):
                bad.result(timeout=30)
            assert len(good.result(timeout=30).flows) == 1
        finally:
            service.shutdown()


class TestCoalescing:
    def test_concurrent_requests_share_one_forward_per_step(self, fitted):
        """4 queued requests -> 1 batch -> ddim_steps denoiser forwards
        (the compiled fused-CFG plan runs one 2m-row forward per step)."""
        service = _service(fitted, autostart=False, max_batch_flows=16)
        futures = [
            service.submit(GenerateRequest(
                request_id=rid, class_name="netflix", count=2))
            for rid in range(4)
        ]
        perf.reset()
        service.start()
        try:
            results = [f.result(timeout=60) for f in futures]
        finally:
            service.shutdown()
        assert [len(r.flows) for r in results] == [2, 2, 2, 2]
        assert perf.counter("serve.batches") == 1
        assert perf.counter("serve.batched_requests") == 4
        assert perf.counter("serve.batched_flows") == 8
        assert perf.counter("pipeline.sample_batches") == 1
        assert perf.counter("infer.forward") == fitted.config.ddim_steps
        assert perf.counter("denoiser.forward") == 0  # no tape forwards
        assert perf.counter("serve.completed") == 4

    def test_batch_respects_max_batch_flows(self, fitted):
        service = _service(fitted, autostart=False, max_batch_flows=4)
        futures = [
            service.submit(GenerateRequest(
                request_id=rid, class_name="netflix", count=2))
            for rid in range(4)
        ]
        perf.reset()
        service.start()
        try:
            for f in futures:
                f.result(timeout=60)
        finally:
            service.shutdown()
        assert perf.counter("serve.batches") == 2

    def test_mixed_classes_split_into_groups(self, fitted):
        service = _service(fitted, autostart=False)
        futures = [
            service.submit(GenerateRequest(
                request_id=rid, class_name=cls, count=1))
            for rid, cls in enumerate(
                ["netflix", "teams", "netflix", "teams"])
        ]
        perf.reset()
        service.start()
        try:
            results = [f.result(timeout=60) for f in futures]
        finally:
            service.shutdown()
        assert perf.counter("serve.batches") == 2
        assert [r.flows[0].label for r in results] == [
            "netflix", "teams", "netflix", "teams"]


class TestDeterminism:
    def test_submission_order_and_batch_shape_invariance(self, fitted):
        """The pinned property: per-request bytes are identical across
        submission orders AND batch configurations."""
        rids = [3, 1, 4, 1 + 4, 9, 2, 6]
        reference = {
            rid: _solo_bytes(fitted, 7, rid, 2) for rid in set(rids)
        }
        for order, max_flows in [
            (rids, 16), (rids[::-1], 16), (rids, 4),
            ([rids[i] for i in (2, 0, 5, 6, 1, 3, 4)], 6),
        ]:
            service = _service(
                fitted, autostart=False, max_batch_flows=max_flows)
            futures = {
                rid: service.submit(GenerateRequest(
                    request_id=rid, class_name="netflix", count=2))
                for rid in order
            }
            service.start()
            try:
                got = {
                    rid: _pcap_bytes(fut.result(timeout=60).flows)
                    for rid, fut in futures.items()
                }
            finally:
                service.shutdown()
            assert got == {rid: reference[rid] for rid in got}

    def test_threaded_submission_is_deterministic(self, fitted):
        reference = {rid: _solo_bytes(fitted, 7, rid, 1) for rid in range(8)}
        service = _service(fitted, max_batch_flows=8)
        got: dict[int, bytes] = {}
        lock = threading.Lock()

        def worker(rid: int) -> None:
            result = service.generate(GenerateRequest(
                request_id=rid, class_name="netflix", count=1))
            with lock:
                got[rid] = _pcap_bytes(result.flows)

        threads = [threading.Thread(target=worker, args=(rid,))
                   for rid in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.shutdown()
        assert got == reference


class TestBackpressure:
    def test_queue_overflow_raises_service_overloaded(self, fitted):
        service = _service(fitted, autostart=False, max_queue=2)
        service.submit(GenerateRequest(
            request_id=0, class_name="netflix", count=1))
        service.submit(GenerateRequest(
            request_id=1, class_name="netflix", count=1))
        with pytest.raises(ServiceOverloaded):
            service.submit(GenerateRequest(
                request_id=2, class_name="netflix", count=1))
        assert perf.counter("serve.rejected") >= 1
        service.shutdown(drain=False)

    def test_queued_request_expires_after_deadline(self, fitted):
        service = _service(fitted, autostart=False)
        fut = service.submit(
            GenerateRequest(request_id=0, class_name="netflix", count=1),
            timeout=0.01,
        )
        time.sleep(0.05)
        service.start()
        try:
            with pytest.raises(RequestExpired):
                fut.result(timeout=30)
        finally:
            service.shutdown()


class TestDrain:
    def test_drain_serves_queued_then_refuses(self, fitted):
        service = _service(fitted, autostart=False)
        futures = [
            service.submit(GenerateRequest(
                request_id=rid, class_name="netflix", count=1))
            for rid in range(3)
        ]
        service.begin_drain()
        with pytest.raises(ServiceClosed):
            service.submit(GenerateRequest(
                request_id=99, class_name="netflix", count=1))
        service.start()
        service.shutdown(drain=True)
        assert all(len(f.result(timeout=0).flows) == 1 for f in futures)

    def test_shutdown_without_drain_fails_queued(self, fitted):
        service = _service(fitted, autostart=False)
        fut = service.submit(GenerateRequest(
            request_id=0, class_name="netflix", count=1))
        service.shutdown(drain=False)
        with pytest.raises(ServiceClosed):
            fut.result(timeout=0)


@pytest.fixture()
def server(fitted):
    service = _service(fitted)
    srv = TrafficServer(("127.0.0.1", 0), service)
    srv.start_background()
    host, port = srv.server_address[:2]
    yield service, f"http://{host}:{port}"
    srv.stop()
    service.shutdown()


def _post(url: str, payload: dict, timeout: float = 60):
    req = urllib.request.Request(
        f"{url}/generate", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(req, timeout=timeout)


class TestHTTP:
    def test_generate_roundtrip_bytes_and_headers(self, fitted, server):
        _, url = server
        with _post(url, {"class": "netflix", "count": 2,
                         "request_id": 5}) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == \
                "application/vnd.tcpdump.pcap"
            assert resp.headers["X-Repro-Request-Id"] == "5"
            assert resp.headers["X-Repro-Flows"] == "2"
            body = resp.read()
        assert body == _solo_bytes(fitted, 7, 5, 2)

    def test_same_request_id_replays_identical_bytes(self, server):
        _, url = server
        digests = set()
        for _ in range(2):
            with _post(url, {"class": "netflix", "count": 1,
                             "request_id": 12}) as resp:
                digests.add(hashlib.sha256(resp.read()).hexdigest())
        assert len(digests) == 1

    def test_bad_json_is_400(self, server):
        _, url = server
        req = urllib.request.Request(
            f"{url}/generate", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    @pytest.mark.parametrize("fields", [
        {"count": 257},  # the server's max_batch_flows is 256
        {"steps": 0}, {"steps": -3},
        {"guidance_weight": -1.0}, {"guidance_weight": float("nan")},
        {"timeout": -1}, {"timeout": 0}, {"timeout": float("nan")},
        {"timeout": float("inf")},
    ], ids=_fields_id)
    def test_out_of_range_field_is_400(self, server, fields):
        service, url = server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url, {"class": "netflix", "request_id": 3, **fields},
                  timeout=30)
        assert err.value.code == 400
        assert next(iter(fields)) in json.loads(err.value.read())["error"]
        assert service.pending() == 0

    def test_steps_above_model_timesteps_is_400(self, fitted, server):
        """The bound depends on the model the request resolves to, so it
        is checked when the request is served, and answers 400, not 500."""
        _, url = server
        steps = fitted.config.timesteps + 1
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url, {"class": "netflix", "request_id": 3,
                        "steps": steps}, timeout=60)
        assert err.value.code == 400
        assert "steps" in json.loads(err.value.read())["error"]

    @pytest.mark.parametrize("body", [b"[1]", b"3", b'"x"', b"null"])
    def test_non_object_json_is_400(self, server, body):
        _, url = server
        req = urllib.request.Request(
            f"{url}/generate", data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_negative_content_length_is_400(self, server):
        _, url = server
        host, port = url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(
                b"POST /generate HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: -1\r\n\r\n{}"
            )
            status = sock.makefile("rb").readline()
        assert status.split()[1] == b"400"

    def test_short_body_times_out(self, server, monkeypatch):
        # The body is shorter than Content-Length: the read must time out
        # instead of holding the handler thread until the client leaves.
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        _, url = server
        host, port = url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=3) as sock:
            sock.sendall(
                b"POST /generate HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n{}"
            )
            # read() returns once the server closes the connection.
            reply = sock.makefile("rb").read()
        assert reply.startswith(b"HTTP/1.1 408 ")

    def test_unknown_class_is_404(self, server):
        _, url = server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url, {"class": "nope", "count": 1, "request_id": 0})
        assert err.value.code == 404

    def test_unknown_route_is_404(self, server):
        _, url = server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{url}/nothing", timeout=30)
        assert err.value.code == 404

    def test_queue_overflow_is_429(self, fitted):
        service = _service(fitted, autostart=False, max_queue=1)
        srv = TrafficServer(("127.0.0.1", 0), service)
        srv.start_background()
        host, port = srv.server_address[:2]
        url = f"http://{host}:{port}"
        first_status: list[int] = []

        def first() -> None:
            with _post(url, {"class": "netflix", "count": 1,
                             "request_id": 0}) as resp:
                resp.read()
                first_status.append(resp.status)

        t = threading.Thread(target=first)
        t.start()
        deadline = time.monotonic() + 5
        while service.pending() < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service.pending() == 1
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url, {"class": "netflix", "count": 1, "request_id": 1})
        assert err.value.code == 429
        service.start()
        t.join(timeout=60)
        srv.stop()
        service.shutdown()
        assert first_status == [200]

    def test_stalled_dispatch_is_504(self, fitted):
        service = _service(fitted, autostart=False)
        srv = TrafficServer(("127.0.0.1", 0), service)
        srv.start_background()
        host, port = srv.server_address[:2]
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"http://{host}:{port}",
                  {"class": "netflix", "count": 1, "request_id": 0,
                   "timeout": 0.1})
        assert err.value.code == 504
        srv.stop()
        service.shutdown(drain=False)

    def test_draining_service_is_503(self, server):
        service, url = server
        service.begin_drain()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url, {"class": "netflix", "count": 1, "request_id": 0})
        assert err.value.code == 503


class TestModelStore:
    def test_add_get_roundtrip(self, fitted, tmp_path):
        store = ModelStore(tmp_path)
        digest = store.add(fitted)
        assert digest in store
        assert store.get(digest) is fitted
        assert store.digests() == [digest]
        archives = list(tmp_path.glob("pipeline-shard-*.npz"))
        assert len(archives) == 1

    def test_load_from_disk_after_eviction(self, fitted, tmp_path):
        store = ModelStore(tmp_path, capacity=1)
        digest = store.add(fitted)
        store._loaded.clear()  # simulate a fresh serving process
        loaded = store.get(digest)
        assert loaded is not fitted
        rng_seed = (3, 8)
        a = fitted.generate_raw(
            "netflix", 2, rng=request_rng(*rng_seed)).flows
        b = loaded.generate_raw(
            "netflix", 2, rng=request_rng(*rng_seed)).flows
        assert _pcap_bytes(a) == _pcap_bytes(b)

    def test_unknown_digest_raises(self, tmp_path):
        store = ModelStore(tmp_path)
        with pytest.raises(ModelNotFound):
            store.get("deadbeef")

    def test_service_resolves_models_through_store(self, fitted, tmp_path):
        store = ModelStore(tmp_path)
        digest = store.add(fitted)
        service = GenerationService(
            store=store, default_model=digest, server_seed=7, max_wait=0.05
        )
        try:
            result = service.generate(GenerateRequest(
                request_id=5, class_name="netflix", count=2))
        finally:
            service.shutdown()
        assert _pcap_bytes(result.flows) == _solo_bytes(fitted, 7, 5, 2)


@pytest.fixture()
def nan_engine(monkeypatch):
    """Fault injection: every compiled forward emits NaN noise."""
    original = CompiledDenoiser.forward

    def nan_forward(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(CompiledDenoiser, "forward", nan_forward)


class TestNonFiniteLatents:
    def test_sample_latents_raises_typed_error_and_counts(
        self, fitted, nan_engine
    ):
        before = perf.counter("pipeline.nonfinite_batches")
        with pytest.raises(NonFiniteLatentsError, match="4 of 4"):
            fitted.sample_latents(
                "netflix", 4, steps=3, rng=np.random.default_rng(0))
        assert perf.counter("pipeline.nonfinite_batches") - before == 1

    def test_service_fails_every_request_in_the_batch(
        self, fitted, nan_engine
    ):
        service = _service(fitted, autostart=False)
        futures = [
            service.submit(GenerateRequest(
                request_id=rid, class_name="netflix", count=1))
            for rid in range(3)
        ]
        perf.reset()
        service.start()
        try:
            for f in futures:
                with pytest.raises(NonFiniteLatentsError):
                    f.result(timeout=60)
        finally:
            service.shutdown()
        assert perf.counter("serve.batches") == 1
        assert perf.counter("pipeline.nonfinite_batches") == 1
        assert perf.counter("serve.errors") == 3
        assert perf.counter("serve.completed") == 0

    def test_http_maps_error_to_500(self, server, nan_engine):
        _, url = server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url, {"class": "netflix", "count": 1, "request_id": 3})
        assert err.value.code == 500
        assert "NonFiniteLatentsError" in json.loads(err.value.read())["error"]
