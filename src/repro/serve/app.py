"""The serve management plane: a stdlib HTTP/JSON API over the scheduler.

``ThreadingHTTPServer`` + ``json`` only — no web framework, matching the
repo's no-new-runtime-deps rule.  Endpoints:

* ``POST /campaigns`` — submit a campaign spec (see
  :mod:`repro.serve.model`); 202 on creation, 200 on deduplicated
  re-submission, 400 on an invalid spec, 429 (+ ``Retry-After``) when
  admission control refuses.
* ``GET /campaigns`` — all campaigns in submission order.
* ``GET /campaigns/{id}/status`` — one campaign's lifecycle status
  (``QUEUED → RUNNING → DONE | DEGRADED | LOST``), including the exact
  per-site coverage report for degraded campaigns.
* ``GET /campaigns/{id}/result`` — the raw result-file bytes; 409
  (+ ``Retry-After``) while still queued/running, 410 for lost.
* ``GET /telemetry`` — recent observability events (bridged from the
  in-process :class:`~repro.obs.RingBufferSink`).
* ``GET /healthz`` — liveness plus queue depth.

The ``serve.request`` fault site fires per arriving request (arrival
order is the index): injected ``error`` maps to 503 + ``Retry-After``
(transient) or 500 (fatal), ``hang`` stalls the handler, and ``drop``
closes the connection with no response — the client-visible failure
modes a degraded real deployment exhibits, now schedulable in tests.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro import __version__
from repro._util import atomic_write_text
from repro.obs import EventStream, MetricsRegistry, RingBufferSink, Telemetry, Tracer
from repro.serve.scheduler import AdmissionError, Scheduler, ServeConfig

#: Largest request body ``POST /campaigns`` accepts.
MAX_BODY_BYTES = 1 << 20


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], api: "ReproServer") -> None:
        super().__init__(address, _Handler)
        self.api = api


class _Handler(BaseHTTPRequestHandler):
    server: _HTTPServer

    # The default handler logs every request to stderr; the server has a
    # structured event stream for that.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- plumbing --------------------------------------------------------------

    @property
    def api(self) -> "ReproServer":
        return self.server.api

    def _json(self, code: int, payload: Any, headers: dict[str, str] | None = None) -> None:
        body = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _fault(self) -> bool:
        """Apply the ``serve.request`` fault for this request.

        Returns True when a response (or a dropped connection) was
        already produced and the handler must stop.
        """
        plan = self.api.config.faults
        if plan is None:
            return False
        index = self.api.scheduler.next_request_index()
        spec = plan.decide("serve.request", index)
        if spec is None:
            return False
        if spec.kind == "hang":
            time.sleep(spec.hang_s)
            return False
        if spec.kind == "drop":
            self.close_connection = True
            return True
        if spec.kind == "error":
            if spec.fatal:
                self._json(500, {"error": f"injected fatal fault at serve.request[{index}]"})
            else:
                retry_after = f"{self.api.config.retry_after_s:g}"
                self._json(
                    503,
                    {"error": f"injected transient fault at serve.request[{index}]"},
                    headers={"Retry-After": retry_after},
                )
            return True
        return False

    # -- routes ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        if self._fault():
            return
        path, _, query = self.path.partition("?")
        parts = [part for part in path.split("/") if part]
        if parts == ["healthz"]:
            scheduler = self.api.scheduler
            self._json(
                200,
                {
                    "status": "draining" if scheduler.draining else "ok",
                    "version": __version__,
                    "campaigns": len(scheduler.campaigns),
                    "queue_depth": scheduler.queue_depth(),
                },
            )
        elif parts == ["campaigns"]:
            self._json(200, {"campaigns": self.api.scheduler.snapshot()})
        elif len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "status":
            view = self.api.scheduler.status_view(parts[1])
            if view is None:
                self._json(404, {"error": f"unknown campaign {parts[1]!r}"})
            else:
                self._json(200, view)
        elif len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "result":
            self._result(parts[1])
        elif parts == ["telemetry"]:
            self._telemetry(query)
        else:
            self._json(404, {"error": f"no such endpoint: {self.path}"})

    def _result(self, cid: str) -> None:
        scheduler = self.api.scheduler
        view = scheduler.status_view(cid)
        if view is None:
            self._json(404, {"error": f"unknown campaign {cid!r}"})
            return
        if view["status"] in ("QUEUED", "RUNNING"):
            self._json(
                409,
                {"campaign": cid, "status": view["status"], "error": "campaign not finished"},
                headers={"Retry-After": f"{self.api.config.retry_after_s:g}"},
            )
            return
        if view["status"] == "LOST":
            self._json(410, {"campaign": cid, "status": "LOST", "error": view["error"]})
            return
        body = scheduler.result_bytes(cid)
        if body is None:
            self._json(404, {"error": f"result file for campaign {cid!r} is missing"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _telemetry(self, query: str) -> None:
        limit = 100
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == "limit":
                try:
                    limit = max(1, int(value))
                except ValueError:
                    self._json(400, {"error": f"limit must be an integer, got {value!r}"})
                    return
        sink = self.api.sink
        self._json(200, {"events": sink.events(limit=limit), "total_lines": sink.total_lines})

    def do_POST(self) -> None:  # noqa: N802 — http.server naming
        if self._fault():
            return
        path = self.path.partition("?")[0].rstrip("/")
        if path != "/campaigns":
            self._json(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._json(413, {"error": f"request body must be 0..{MAX_BODY_BYTES} bytes"})
            return
        try:
            data = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError as error:
            self._json(400, {"error": f"request body is not valid JSON: {error}"})
            return
        try:
            cid, view, created = self.api.scheduler.submit(data)
        except AdmissionError as error:
            self._json(
                429,
                {"error": str(error)},
                headers={"Retry-After": f"{error.retry_after_s:g}"},
            )
            return
        except (ValueError, TypeError, KeyError) as error:
            self._json(400, {"error": f"invalid campaign spec: {error}"})
            return
        self._json(202 if created else 200, {**view, "created": created})


class ReproServer:
    """The campaign-serving process: scheduler + HTTP server + telemetry.

    Binds immediately on construction (``port=0`` picks a free port —
    the resolved address lands in ``<state_dir>/endpoint.json`` so
    clients and tests can find it); :meth:`start` begins serving,
    :meth:`shutdown` drains gracefully.  Each server builds its own
    telemetry stack, so multiple servers can coexist in one test process.
    """

    def __init__(self, config: ServeConfig, host: str = "127.0.0.1", port: int = 0) -> None:
        self.config = config
        state_dir = Path(config.state_dir)
        state_dir.mkdir(parents=True, exist_ok=True)
        self.sink = RingBufferSink(capacity=1024, path=state_dir / "events.jsonl")
        self.stream = EventStream(self.sink)
        self.telemetry = Telemetry(
            tracer=Tracer(stream=self.stream),
            metrics=MetricsRegistry(),
            stream=self.stream,
        )
        self.scheduler = Scheduler(config, telemetry=self.telemetry)
        self.httpd = _HTTPServer((host, port), self)
        self.host, self.port = self.httpd.server_address[:2]
        atomic_write_text(
            state_dir / "endpoint.json",
            json.dumps({"host": self.host, "port": self.port}, sort_keys=True) + "\n",
        )
        self._serve_thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        """The server's base URL."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Start the scheduler and serve HTTP in a daemon thread."""
        self.scheduler.start()
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._serve_thread.start()
        self.stream.emit("serve.listening", url=self.url)

    def shutdown(self) -> None:
        """Graceful stop: close the listener, drain campaigns, flush telemetry.

        Order matters — the HTTP server stops accepting first (no new
        submissions race the drain), then the scheduler checkpoints and
        re-queues any in-flight campaign, then the event stream closes.
        """
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
        self.scheduler.drain()
        self.stream.close()
        self.sink.close()

    def run_until_signalled(self) -> int:
        """Serve until SIGTERM/SIGINT, then drain; the ``repro serve`` body."""
        stop = threading.Event()

        def _signalled(_signum: int, _frame: Any) -> None:
            stop.set()

        try:
            signal.signal(signal.SIGTERM, _signalled)
            signal.signal(signal.SIGINT, _signalled)
        except ValueError:
            pass  # not the main thread (tests drive shutdown() directly)
        self.start()
        stop.wait()
        self.shutdown()
        return 0
