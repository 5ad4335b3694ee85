"""The daemon's HTTP face: a small hand-rolled asyncio HTTP/1.1 server.

Hand-rolled on ``asyncio.start_server`` because the container bans new
dependencies — no aiohttp, no frameworks.  The protocol surface is
deliberately tiny (JSON in, JSON out, ``Connection: close``):

========  ======================  =========================================
method    path                    behaviour
========  ======================  =========================================
GET       /healthz                liveness probe
GET       /stats                  queue + engine counters (--engine-stats)
POST      /jobs                   submit a job payload (202; dedup flagged)
GET       /jobs                   list job summaries (no renderings)
GET       /jobs/<id>              one job's status (always 200)
GET       /jobs/<id>/result       the report; ``?wait=SECONDS`` long-polls;
                                  HTTP status mirrors the job state
                                  (200/422/206/424/410, 202 while running)
GET       /jobs/<id>/events       NDJSON stream of lifecycle + checkpoint
                                  progress events until the job settles
POST      /jobs/<id>/cancel       cancel queued/running
POST      /shutdown               graceful drain (same path as SIGTERM)
========  ======================  =========================================

``GET /jobs/<id>`` is a pure status poll and always answers 200;
``/result`` is the exit-code-parity surface — its HTTP status is
:data:`~repro.service.protocol.STATE_HTTP_STATUS` of the terminal
state, matching the CLI exit code the same check would have returned.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.engine.checkpoint import journal_progress
from repro.errors import JobNotFound, ServiceProtocolError
from repro.service.protocol import STATE_HTTP_STATUS
from repro.service.queue import JobQueue

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
_EVENT_POLL_SECONDS = 0.1

_REASONS = {
    200: "OK",
    202: "Accepted",
    206: "Partial Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    410: "Gone",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    424: "Failed Dependency",
    500: "Internal Server Error",
}


class ServiceApp:
    """Routes HTTP requests onto a :class:`JobQueue` (module docstring)."""

    def __init__(
        self,
        queue: JobQueue,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        on_shutdown=None,
    ) -> None:
        self.queue = queue
        self.host = host
        self.port = port
        self.on_shutdown = on_shutdown
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at: Optional[float] = None

    @property
    def endpoint_path(self) -> str:
        return os.path.join(self.queue.state_dir, "service.json")

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        with open(self.endpoint_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "host": self.host,
                    "port": self.port,
                    "pid": os.getpid(),
                    "started_at": time.time(),
                },
                handle,
            )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request plumbing --------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            status, payload = await self._route(method, path, query, body, writer)
            if status is not None:
                await self._respond(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as error:  # noqa: BLE001 — the server must survive
            try:
                await self._respond(
                    writer,
                    500,
                    {"error": f"{type(error).__name__}: {error}"},
                )
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, list], Any]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        if len(head) > _MAX_HEADER_BYTES:
            return None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if value:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            return None
        raw = await reader.readexactly(length) if length else b""
        body: Any = None
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                raise ServiceProtocolError(f"request body is not JSON: {error}")
        split = urlsplit(target)
        return method.upper(), split.path, parse_qs(split.query), body

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        reason = _REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing -----------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, list],
        body: Any,
        writer: asyncio.StreamWriter,
    ) -> Tuple[Optional[int], Any]:
        try:
            if path == "/healthz" and method == "GET":
                # Always HTTP 200 — ``ready: false`` (drain in progress)
                # is a payload-level signal so dumb probes stay simple.
                payload = {
                    "ok": True,
                    "pid": os.getpid(),
                    "ready": not getattr(self.queue, "draining", False),
                    "jobs": len(self.queue.records()),
                }
                if self._started_at is not None:
                    payload["uptime"] = max(0.0, time.time() - self._started_at)
                return 200, payload
            if path == "/stats" and method == "GET":
                return 200, self.queue.stats()
            if path == "/jobs" and method == "POST":
                record, deduplicated = self.queue.submit(body)
                payload = record.to_json()
                payload["was_deduplicated"] = deduplicated
                return 202, payload
            if path == "/jobs" and method == "GET":
                return 200, {
                    "jobs": [
                        record.to_json(include_rendering=False)
                        for record in self.queue.records()
                    ]
                }
            if path == "/shutdown" and method == "POST":
                if self.on_shutdown is not None:
                    self.on_shutdown()
                return 200, {"ok": True, "draining": True}
            parts = [part for part in path.split("/") if part]
            if len(parts) >= 2 and parts[0] == "jobs":
                return await self._route_job(method, parts, query, writer)
            return 404, {"error": f"no route {method} {path}"}
        except ServiceProtocolError as error:
            return 400, {"error": str(error)}
        except JobNotFound as error:
            return 404, {"error": str(error.args[0] if error.args else error)}

    async def _route_job(
        self,
        method: str,
        parts: list,
        query: Dict[str, list],
        writer: asyncio.StreamWriter,
    ) -> Tuple[Optional[int], Any]:
        job_id = parts[1]
        action = parts[2] if len(parts) > 2 else None
        record = self.queue.get(job_id)
        if action is None and method == "GET":
            return 200, record.to_json()
        if action == "cancel" and method == "POST":
            changed = self.queue.cancel(job_id)
            return 200, {"id": job_id, "cancelled": changed, "state": record.state}
        if action == "result" and method == "GET":
            wait = _float_param(query, "wait", 0.0)
            if wait > 0 and not record.terminal:
                await self.queue.wait(job_id, timeout=wait)
            payload = record.to_json()
            payload["http_status"] = STATE_HTTP_STATUS[record.state]
            if not record.terminal:
                # Self-healing clients honour this instead of hot-polling.
                payload["retry_after"] = 0.5
            return STATE_HTTP_STATUS[record.state], payload
        if action == "events" and method == "GET":
            await self._stream_events(record, writer)
            return None, None
        return 405, {"error": f"no route {method} on job {job_id}"}

    # -- event streaming ---------------------------------------------

    async def _stream_events(self, record, writer: asyncio.StreamWriter) -> None:
        """NDJSON: replay recorded lifecycle events, then follow new
        ones plus checkpoint-journal progress until the job settles."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        sent = 0
        last_progress = -1
        while True:
            events = list(record.events)
            for event in events[sent:]:
                writer.write(json.dumps(event).encode("utf-8") + b"\n")
            sent = len(events)
            progress = journal_progress(self.queue.checkpoint_path(record.key))
            if progress != last_progress and progress > 0:
                last_progress = progress
                writer.write(
                    json.dumps(
                        {"event": "checkpoint", "verified_prefix": progress}
                    ).encode("utf-8")
                    + b"\n"
                )
            await writer.drain()
            if record.terminal:
                final = {"event": "terminal", "state": record.state}
                if record.outcome is not None:
                    final["exit_code"] = record.outcome.exit_code
                writer.write(json.dumps(final).encode("utf-8") + b"\n")
                await writer.drain()
                return
            try:
                await asyncio.wait_for(record.done.wait(), _EVENT_POLL_SECONDS)
            except asyncio.TimeoutError:
                pass


def _float_param(query: Dict[str, list], name: str, default: float) -> float:
    values = query.get(name)
    if not values:
        return default
    try:
        return float(values[-1])
    except ValueError:
        return default


__all__ = ["ServiceApp"]
