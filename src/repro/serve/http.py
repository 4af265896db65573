"""The HTTP/JSON front of the campaign service.

Stdlib-only by design (the repo bakes in no web framework):
:class:`BackgroundServer` is an ``http.server.ThreadingHTTPServer``
that answers one request per connection on a thread of its own,
routes it into a :class:`~repro.serve.app.CampaignService`, and
answers JSON.  The API surface::

    GET  /v1/health                     service liveness + job counts
    GET  /v1/cache                      cache + process memo counters
    GET  /v1/jobs                       every job's status document
    POST /v1/jobs                       submit a request document
    GET  /v1/jobs/<id>                  one job's status document
    GET  /v1/jobs/<id>/result           the finished job's payload
    GET  /v1/jobs/<id>/events[?after=N] NDJSON progress stream
    POST /v1/jobs/<id>/cancel           cooperative cancellation

Error contract: malformed requests and documents and unknown request
kinds are ``400`` with ``{"error": ...}``; unknown jobs and paths are
``404``; wrong methods are ``405``; asking a job that is not ``done``
for its result is ``409``; bodies over :data:`MAX_BODY_BYTES` are
``413``.  The events endpoint streams line-delimited JSON (one event
object per line) and closes once the job reaches a terminal state —
the long-poll primitive ``resim client watch`` builds on.

All responses are canonical JSON (``sort_keys=True``): service
answers are documents like any other in this repo and may be hashed
or byte-compared by clients.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.serve.jobs import DONE, JobError

#: Default bind address of ``resim serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8437

#: Submissions larger than this are refused outright (413) — request
#: documents are small; anything bigger is a client bug.
MAX_BODY_BYTES = 4 << 20

#: Seconds between polls of a streaming job's event log.
EVENT_POLL_SECONDS = 0.05


class _HttpError(Exception):
    """An error response decided before (or instead of) routing."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _Handler(BaseHTTPRequestHandler):
    """One request: parse, route into ``server.service``, answer."""

    server: BackgroundServer
    # A request line the parser rejects is answered with a status line
    # (the stdlib default, HTTP/0.9, answers bare bytes).
    default_request_version = "HTTP/1.0"

    def _handle(self) -> None:
        try:
            self._dispatch(self._read_body())
        except _HttpError as error:
            self._respond(error.status, {"error": error.message})
        except ConnectionError:
            pass
        except Exception as error:  # noqa: BLE001 — the server must
            # answer 500 and survive, whatever a handler raised.
            self._respond(500,
                          {"error": f"{type(error).__name__}: {error}"})

    # Every method the routes know reaches the router, so a wrong one
    # answers 405 there instead of the stdlib's 501.
    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _handle

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """Errors the stdlib parser detects answer JSON too."""
        self._respond(code, {"error": message or HTTPStatus(code).phrase})

    def log_message(self, format: str, *args) -> None:
        pass  # no per-request access log

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise _HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = self.rfile.read(length)
        if len(body) < length:
            raise ConnectionError("client closed mid-body")
        return body

    # -- responses -----------------------------------------------------

    def _respond(self, status: int, body_doc: dict) -> None:
        body = (json.dumps(body_doc, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    # -- routing -------------------------------------------------------

    def _dispatch(self, body: bytes) -> None:
        split = urlsplit(self.path)
        segments = [part for part in split.path.split("/") if part]
        if not segments or segments[0] != "v1":
            raise _HttpError(404, f"no such path {split.path!r}")
        route = segments[1:]
        service = self.server.service

        if route == ["health"]:
            self._require_method("GET")
            self._respond(200, service.health_document())
        elif route == ["cache"]:
            self._require_method("GET")
            self._respond(200, service.cache_document())
        elif route == ["jobs"]:
            if self.command == "GET":
                self._respond(200, {
                    "jobs": [service.status_document(job)
                             for job in service.manager.jobs()]})
            else:
                self._require_method("POST")
                self._submit(body)
        elif len(route) == 2 and route[0] == "jobs":
            self._require_method("GET")
            self._respond(200, service.status_document(self._job(route[1])))
        elif len(route) == 3 and route[0] == "jobs" \
                and route[2] == "result":
            self._require_method("GET")
            self._result(route[1])
        elif len(route) == 3 and route[0] == "jobs" \
                and route[2] == "cancel":
            self._require_method("POST")
            job = service.manager.cancel(self._job(route[1]).job_id)
            self._respond(200, service.status_document(job))
        elif len(route) == 3 and route[0] == "jobs" \
                and route[2] == "events":
            self._require_method("GET")
            self._stream_events(route[1], parse_qs(split.query))
        else:
            raise _HttpError(404, f"no such path {split.path!r}")

    def _require_method(self, expected: str) -> None:
        if self.command != expected:
            raise _HttpError(405, f"{self.command} not allowed here")

    def _job(self, job_id: str):
        try:
            return self.server.service.manager.get(job_id)
        except JobError as error:
            raise _HttpError(404, str(error)) from error

    def _submit(self, body: bytes) -> None:
        try:
            body_doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(
                400, f"request body is not valid JSON: {error}"
            ) from error
        if not isinstance(body_doc, dict):
            raise _HttpError(400, "submission must be a JSON object")
        try:
            job, coalesced = self.server.service.submit(body_doc)
        except ValueError as error:
            # ServiceError, CanonError, SweepError, SessionError —
            # the whole validation family means "fix your request".
            raise _HttpError(400, str(error)) from error
        self._respond(200 if coalesced else 202, {
            "job_id": job.job_id,
            "state": job.state,
            "request_key": job.request_key,
            "coalesced": coalesced,
        })

    def _result(self, job_id: str) -> None:
        job = self._job(job_id)
        if job.state != DONE:
            raise _HttpError(
                409,
                f"job {job_id!r} has no result yet "
                f"(state {job.state!r}"
                + (f": {job.error}" if job.error else "") + ")")
        self._respond(200, {
            "job_id": job.job_id,
            "state": job.state,
            "cache": {"hits": job.cache_hits,
                      "misses": job.cache_misses},
            "result": self.server.service.manager.result_document(job_id),
        })

    def _stream_events(self, job_id: str,
                       query: dict[str, list[str]]) -> None:
        """NDJSON event stream: everything after ``?after=N``, then
        live events until the job is terminal."""
        job = self._job(job_id)
        try:
            after = int(query.get("after", ["0"])[0])
        except ValueError:
            raise _HttpError(400, "malformed 'after' parameter") \
                from None
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        manager = self.server.service.manager
        seq = after
        while True:
            for event in manager.events_since(job_id, seq):
                seq = event["seq"]
                self.wfile.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode())
            if job.finished and not manager.events_since(job_id, seq):
                break
            time.sleep(EVENT_POLL_SECONDS)


class BackgroundServer(ThreadingHTTPServer):
    """The campaign server: a thread per connection over one
    :class:`~repro.serve.app.CampaignService`.

    The socket is bound on construction (``port=0`` picks a free
    port; :attr:`address` is the bound one).  ``resim serve`` calls
    :meth:`serve_forever` in the foreground; tests and benchmarks
    serve from a daemon thread for the span of a ``with`` block::

        with BackgroundServer(CampaignService(root)) as server:
            client = ServiceClient(*server.address)
            ...

    Exiting the block stops the listener and closes the service
    (running jobs are awaited; queued ones stay journaled).
    """

    # Two servers must never share a port (and so a root's journaled
    # queue); newer Pythons turn SO_REUSEPORT on for HTTPServer.
    allow_reuse_port = False
    # The stdlib backlog of 5 drops the SYNs of a burst of clients,
    # which then retry a second later; 100 holds tens at once.
    request_queue_size = 100

    def __init__(self, service, *, host: str = DEFAULT_HOST,
                 port: int = 0) -> None:
        self.service = service
        self._thread: threading.Thread | None = None
        if ":" in host:  # an IPv6 literal needs an IPv6 socket
            self.address_family = socket.AF_INET6
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return host, port

    def __enter__(self) -> BackgroundServer:
        # A short poll keeps ``__exit__`` from waiting out the
        # default half-second select timeout.
        self._thread = threading.Thread(
            target=self.serve_forever, args=(0.05,),
            name="resim-serve", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=30)
        self.server_close()
        self.service.close()
