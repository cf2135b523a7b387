"""HTTP front end for the generation service (stdlib only).

A :class:`TrafficServer` is a ``ThreadingHTTPServer`` over a
:class:`~repro.serve.service.GenerationService`: each connection thread
parses the request, submits it to the service's queue, blocks on the
future, renders the generated flows to pcap bytes and streams them back.
The expensive work — the coalesced denoiser forwards — happens once per
micro-batch on the dispatcher thread; connection threads only wait and
render.

Routes:

* ``POST /generate`` — JSON body ``{"class": str, "count": int,
  "request_id": int?, "model": str?, "steps": int?,
  "guidance_weight": float?, "timeout": float?}``; responds with a pcap
  body (``application/vnd.tcpdump.pcap``) plus ``X-Repro-Request-Id`` /
  ``X-Repro-Flows`` / ``X-Repro-Packets`` headers.  400 for a malformed
  body or a field out of range (``count`` above the service's
  ``max_batch_flows``, ``steps`` outside ``[1, timesteps]`` of the
  resolved model, a negative or non-finite ``guidance_weight``, a
  ``timeout`` that is not finite and > 0), 429
  when the queue is full, 504 on deadline, 404 for an
  unknown class or model, 503 while draining, 408 (and the connection
  closes) when the body does not arrive within :data:`SOCKET_TIMEOUT`.
* ``GET /healthz`` — 200 once a default model is resolvable, 503 before
  that and while draining.
* ``GET /metrics`` — Prometheus text format 0.0.4
  (:func:`repro.serve.metrics.render_prometheus`).
"""

from __future__ import annotations

import io
import json
import math
import threading
from concurrent.futures import TimeoutError as FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.metrics import render_prometheus
from repro.serve.service import (
    GenerateRequest,
    GenerationService,
    RequestExpired,
    ServiceClosed,
    ServiceOverloaded,
)

#: blocking wait on a request future when neither the request body nor
#: the service sets a deadline
DEFAULT_RESULT_TIMEOUT = 60.0

#: seconds a connection thread waits on one socket read or write before
#: it gives the connection up
SOCKET_TIMEOUT = 10.0

PCAP_CONTENT_TYPE = "application/vnd.tcpdump.pcap"


def _render_pcap(flows) -> tuple[bytes, int]:
    from repro.net.packet import render_flows
    from repro.net.pcap import PcapWriter

    buf = io.BytesIO()
    writer = PcapWriter(buf)
    datas, stamps = render_flows(flows)
    writer.write_many(datas, stamps)
    return buf.getvalue(), len(datas)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Small request/response bodies on persistent-ish connections: Nagle
    # only adds delayed-ACK stalls here.
    disable_nagle_algorithm = True
    # StreamRequestHandler.setup applies this to the connection socket, so
    # a client that sends less body than its Content-Length (or goes idle
    # on a kept-alive connection) cannot hold a thread forever.
    timeout = SOCKET_TIMEOUT
    server: "TrafficServer"

    # -- plumbing -----------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics endpoint's job

    def _reply(self, status: int, body: bytes, content_type: str,
               headers: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, status: int, payload: dict) -> None:
        self._reply(status, json.dumps(payload).encode(),
                    "application/json")

    # -- routes -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._healthz()
        elif self.path == "/metrics":
            body = render_prometheus(
                service=self.server.service, store=self.server.store
            ).encode()
            self._reply(200, body, "text/plain; version=0.0.4")
        else:
            self._reply_json(404, {"error": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/generate":
            self._reply_json(404, {"error": f"no route {self.path}"})
            return
        self._generate()

    def _healthz(self) -> None:
        service = self.server.service
        if service.ready:
            self._reply_json(200, {"status": "ok"})
        else:
            reason = "draining" if service.draining else "no model"
            self._reply_json(503, {"status": reason})

    def _generate(self) -> None:
        service = self.server.service
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                # rfile.read(-1) would block until the client hangs up,
                # and the body's end is unknown: answer, then close.
                self.close_connection = True
                raise ValueError(f"negative Content-Length {length}")
            try:
                body = self.rfile.read(length)
            except TimeoutError:
                self.close_connection = True
                self._reply_json(408, {"error": "request body timed out"})
                return
            payload = json.loads(body or b"{}")
            if not isinstance(payload, dict):
                raise TypeError(
                    f"body must be a JSON object, got {type(payload).__name__}"
                )
            request = GenerateRequest(
                request_id=int(
                    payload.get("request_id", service.next_request_id())
                ),
                class_name=str(payload["class"]),
                count=int(payload.get("count", 1)),
                model=payload.get("model"),
                steps=(int(payload["steps"])
                       if payload.get("steps") is not None else None),
                guidance_weight=(
                    float(payload["guidance_weight"])
                    if payload.get("guidance_weight") is not None else None
                ),
            )
            timeout = payload.get("timeout")
            timeout = float(timeout) if timeout is not None else None
            if timeout is not None and not (
                math.isfinite(timeout) and timeout > 0
            ):
                raise ValueError(
                    f"timeout must be finite and > 0, got {timeout}"
                )
            future = service.submit(request, timeout=timeout)
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            self._reply_json(400, {"error": f"bad request: {exc}"})
            return
        except ServiceOverloaded as exc:
            self._reply_json(429, {"error": str(exc)})
            return
        except ServiceClosed as exc:
            self._reply_json(503, {"error": str(exc)})
            return

        wait = timeout if timeout is not None else (
            service.default_timeout if service.default_timeout is not None
            else DEFAULT_RESULT_TIMEOUT
        )
        try:
            result = future.result(timeout=wait)
        except (RequestExpired, FutureTimeout) as exc:
            future.cancel()
            self._reply_json(504, {"error": f"timed out: {exc}"})
            return
        except KeyError as exc:
            self._reply_json(404, {"error": f"unknown class/model: {exc}"})
            return
        except ValueError as exc:
            # Out of range for the model the request resolved to (e.g.
            # ``steps`` above its ``timesteps``).
            self._reply_json(400, {"error": f"bad request: {exc}"})
            return
        except ServiceClosed as exc:
            self._reply_json(503, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            self._reply_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            return

        body, n_packets = _render_pcap(result.flows)
        self._reply(200, body, PCAP_CONTENT_TYPE, headers={
            "X-Repro-Request-Id": str(request.request_id),
            "X-Repro-Class": request.class_name,
            "X-Repro-Flows": str(len(result.flows)),
            "X-Repro-Packets": str(n_packets),
        })


class TrafficServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`GenerationService`."""

    daemon_threads = True
    # socketserver's default listen backlog (5) drops SYNs under bursts
    # of reconnecting clients; the 1s retransmit dominates tail latency.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int],
                 service: GenerationService, store=None) -> None:
        self.service = service
        self.store = store
        self._thread: threading.Thread | None = None
        super().__init__(address, _Handler)

    def start_background(self) -> "TrafficServer":
        """Serve on a daemon thread; returns self (address is bound)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting connections and join the serving thread."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.server_close()

    def drain_and_stop(self) -> None:
        """Graceful shutdown: refuse new work, serve the queue, stop.

        The SIGTERM path: admission closes first (new submits get 503),
        queued requests finish, then the listener goes down.
        """
        self.service.begin_drain()
        self.service.shutdown(drain=True)
        self.stop()
