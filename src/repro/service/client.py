"""The blocking thin client (urllib; used by CLI verbs and tests).

Endpoint discovery, in priority order: an explicit ``--server`` URL,
the ``REPRO_SERVICE_URL`` environment knob, then the ``service.json``
endpoint file a running daemon writes into its state directory
(``--state-dir`` / ``REPRO_SERVICE_STATE``, default
``.repro-service``).  Connection failures raise
:class:`~repro.errors.ServiceUnavailable` so callers can distinguish
"daemon down" from job-level failures.

Self-healing transport: every request is retried on transport failure
with exponential backoff and jitter (``REPRO_CLIENT_RETRIES`` /
``REPRO_CLIENT_BACKOFF`` / ``REPRO_CLIENT_BACKOFF_MAX``), which is
safe because every verb is idempotent — submissions are deduplicated
by their content-addressed job key, so re-sending a submit whose
response was lost re-attaches to the same in-flight job.  A circuit
breaker (``REPRO_CLIENT_BREAKER_THRESHOLD`` consecutive failures
opens it for ``REPRO_CLIENT_BREAKER_COOLDOWN`` seconds, then one
half-open probe) keeps a dead daemon from soaking every caller in
full retry cycles.  Retries, breaker trips, and rejections are
counted on :func:`~repro.engine.instrumentation.engine_stats`
(``client_retries`` / ``client_breaker_trips`` / ...).

Every knob above is read through :func:`repro.service.knobs.knob` when
a client is built (or an endpoint discovered), and an explicit
argument wins over it.  A value that does not parse raises
:class:`~repro.errors.ServiceError` naming the knob: exit 2 from every
verb.

The ``client.drop`` / ``client.reset`` points of the unified fault
plane (:mod:`repro.engine.faults`) inject transport failures before
the request is sent and after the server has acted, respectively —
the latter exercises exactly the lost-response window the idempotency
guarantee exists for.
"""

from __future__ import annotations

import json
import os
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.engine import faults
from repro.engine.instrumentation import engine_stats
from repro.errors import JobNotFound, ServiceProtocolError, ServiceUnavailable
from repro.service.knobs import knob

#: The result-poll loop never sleeps less than this, even when the
#: wait deadline is imminent — polling at 10ms turns "almost done"
#: into a hot loop against the daemon.
POLL_FLOOR_SECONDS = 0.05


def state_dir(explicit: Optional[str] = None) -> str:
    return knob("REPRO_SERVICE_STATE", explicit or None)


def discover_endpoint(
    server: Optional[str] = None, state: Optional[str] = None
) -> str:
    """The daemon base URL per the discovery order above."""
    url = knob("REPRO_SERVICE_URL", server or None)
    if url:
        return url.rstrip("/")
    endpoint_file = os.path.join(state_dir(state), "service.json")
    try:
        with open(endpoint_file, "r", encoding="utf-8") as handle:
            endpoint = json.load(handle)
        return f"http://{endpoint['host']}:{endpoint['port']}"
    except (OSError, ValueError, KeyError) as error:
        raise ServiceUnavailable(
            f"no --server / REPRO_SERVICE_URL and no readable endpoint "
            f"file at {endpoint_file!r} ({error}); is the daemon running?"
        ) from error


class ServiceClient:
    """Synchronous JSON-over-HTTP client for one daemon endpoint.

    See the module docstring for the retry / circuit-breaker contract.
    Pass ``retries=0`` to restore single-shot behaviour, and
    ``jitter_seed`` for a deterministic backoff schedule in tests.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
        backoff_max: Optional[float] = None,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown: Optional[float] = None,
        jitter_seed: Optional[int] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = knob("REPRO_CLIENT_RETRIES", retries)
        self.backoff = knob("REPRO_CLIENT_BACKOFF", backoff)
        self.backoff_max = knob("REPRO_CLIENT_BACKOFF_MAX", backoff_max)
        self.breaker_threshold = knob("REPRO_CLIENT_BREAKER_THRESHOLD", breaker_threshold)
        self.breaker_cooldown = knob("REPRO_CLIENT_BREAKER_COOLDOWN", breaker_cooldown)
        self._rng = random.Random(jitter_seed)
        self._consecutive_failures = 0
        self._breaker_open_until = 0.0

    # -- transport ---------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        *,
        timeout: Optional[float] = None,
    ) -> Tuple[int, Any]:
        """One logical request; returns ``(http_status, decoded_json)``.
        Non-2xx statuses are returned, not raised — the service uses
        them to carry job states (422/206/424/410).  Transport
        failures are retried with backoff; when the breaker is open or
        every attempt fails, :class:`ServiceUnavailable` propagates."""
        attempts = max(0, int(self.retries)) + 1
        for attempt in range(1, attempts + 1):
            self._check_breaker()
            try:
                result = self._request_once(method, path, payload, timeout)
            except ServiceUnavailable:
                self._record_failure()
                if attempt >= attempts:
                    raise
                self._sleep_backoff(attempt)
                continue
            self._record_success()
            return result
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Any,
        timeout: Optional[float],
    ) -> Tuple[int, Any]:
        if faults.fire("client.drop") is not None:
            raise ServiceUnavailable(
                f"injected connection drop to {self.base_url}"
            )
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.timeout
            ) as response:
                status, decoded = response.status, _decode(response.read())
        except urllib.error.HTTPError as error:
            status, decoded = error.code, _decode(error.read())
        except (urllib.error.URLError, ConnectionError, TimeoutError) as error:
            raise ServiceUnavailable(
                f"cannot reach service at {self.base_url}: {error}"
            ) from error
        if faults.fire("client.reset") is not None:
            # The server processed the request; the response was lost
            # on the wire.  Retrying is safe only because every verb
            # is idempotent — which is exactly what this point tests.
            raise ServiceUnavailable(
                f"injected connection reset from {self.base_url}"
            )
        return status, decoded

    # -- retry / circuit-breaker machinery ---------------------------

    def _check_breaker(self) -> None:
        remaining = self._breaker_open_until - time.monotonic()
        if remaining > 0:
            engine_stats().bump("client_breaker_rejections")
            raise ServiceUnavailable(
                f"circuit breaker open for {self.base_url} "
                f"({remaining:.1f}s of cooldown remaining)"
            )

    def _record_failure(self) -> None:
        self._consecutive_failures += 1
        engine_stats().bump("client_request_failures")
        if (
            self.breaker_threshold > 0
            and self._consecutive_failures >= self.breaker_threshold
        ):
            # Open (or re-open after a failed half-open probe): the
            # cooldown expiring readmits exactly one probe request.
            self._breaker_open_until = time.monotonic() + self.breaker_cooldown
            engine_stats().bump("client_breaker_trips")

    def _record_success(self) -> None:
        self._consecutive_failures = 0
        self._breaker_open_until = 0.0

    def _sleep_backoff(self, attempt: int) -> None:
        base = min(self.backoff * (2 ** (attempt - 1)), self.backoff_max)
        engine_stats().bump("client_retries")
        # Equal jitter: at least half the exponential delay, never more
        # than all of it, so synchronized clients fan out.
        time.sleep(base * (0.5 + 0.5 * self._rng.random()))

    # -- the protocol surface ----------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._expect(200, *self.request("GET", "/healthz"))

    def stats(self) -> Dict[str, Any]:
        return self._expect(200, *self.request("GET", "/stats"))

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        status, body = self.request("POST", "/jobs", payload)
        if status == 400:
            raise ServiceProtocolError(_error_of(body))
        return self._expect(202, status, body)

    def jobs(self) -> Dict[str, Any]:
        return self._expect(200, *self.request("GET", "/jobs"))

    def job(self, job_id: str) -> Dict[str, Any]:
        status, body = self.request("GET", f"/jobs/{job_id}")
        if status == 404:
            raise JobNotFound(_error_of(body))
        return self._expect(200, status, body)

    def result(
        self, job_id: str, *, wait: float = 0.0, poll: float = 0.5
    ) -> Tuple[int, Dict[str, Any]]:
        """``(http_status, job_json)`` of ``/result``; with *wait* > 0
        polls (server-side long poll + client retry) until the job is
        terminal or the wait budget runs out.

        Between polls the client honours the server's ``retry_after``
        hint when one comes back with the 202, and never sleeps below
        :data:`POLL_FLOOR_SECONDS` — a nearly-expired wait budget must
        not degenerate into a hot poll loop against the daemon."""
        deadline = time.monotonic() + wait
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            status, body = self.request(
                "GET",
                f"/jobs/{job_id}/result?wait={min(remaining, 30.0):.1f}",
                timeout=min(remaining, 30.0) + self.timeout,
            )
            if status == 404:
                raise JobNotFound(_error_of(body))
            if status != 202 or remaining <= 0:
                return status, body
            delay = poll
            hint = body.get("retry_after") if isinstance(body, dict) else None
            if isinstance(hint, (int, float)) and hint > 0:
                delay = float(hint)
            time.sleep(max(POLL_FLOOR_SECONDS, min(delay, remaining)))

    def cancel(self, job_id: str) -> Dict[str, Any]:
        status, body = self.request("POST", f"/jobs/{job_id}/cancel")
        if status == 404:
            raise JobNotFound(_error_of(body))
        return self._expect(200, status, body)

    def shutdown(self) -> Dict[str, Any]:
        return self._expect(200, *self.request("POST", "/shutdown"))

    def events(self, job_id: str, *, timeout: float = 300.0) -> Iterator[dict]:
        """Stream a job's NDJSON events until the terminal marker."""
        request = urllib.request.Request(
            f"{self.base_url}/jobs/{job_id}/events",
            headers={"Accept": "application/x-ndjson"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                for raw in response:
                    line = raw.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
        except (urllib.error.URLError, ConnectionError, TimeoutError) as error:
            raise ServiceUnavailable(
                f"event stream from {self.base_url} failed: {error}"
            ) from error

    @staticmethod
    def _expect(expected: int, status: int, body: Any) -> Any:
        if status != expected:
            raise ServiceUnavailable(
                f"unexpected HTTP {status} (wanted {expected}): {_error_of(body)}"
            )
        return body


def _decode(raw: bytes) -> Any:
    if not raw:
        return None
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return {"error": raw.decode("utf-8", "replace")}


def _error_of(body: Any) -> str:
    if isinstance(body, dict) and "error" in body:
        return str(body["error"])
    return str(body)


__all__ = [
    "POLL_FLOOR_SECONDS",
    "ServiceClient",
    "discover_endpoint",
    "state_dir",
]
