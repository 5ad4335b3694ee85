"""Checking-as-a-service: a warm-state daemon for mapping checks.

Every CLI invocation pays cold-start for the whole engine — intern
table, compiled join plans, chase/verdict memo caches, the SQLite
verdict store.  This package keeps all of that warm in one long-lived
asyncio daemon (``python -m repro.service serve``) and accepts
mapping-checking jobs over HTTP/JSON:

* :mod:`repro.service.protocol` — the job wire format: kinds, the
  state machine, HTTP-status/exit-code tables, payload normalization
  and content-addressed job keys;
* :mod:`repro.service.jobs` — synchronous job execution shared with
  the CLI's ``check`` verb, so service responses embed byte-identical
  report renderings;
* :mod:`repro.service.queue` — the batching job queue: bounded worker
  threads, per-job budgets and checkpoint journals, deduplication of
  identical in-flight requests, graceful drain + restart resume;
* :mod:`repro.service.app` — the stdlib asyncio HTTP server (no
  third-party web framework: the container bans new dependencies);
* :mod:`repro.service.client` — the blocking thin client the CLI's
  ``--server`` mode and the ``submit`` / ``status`` verbs use.

Job terminal states map exactly onto the CLI's exit codes — 0 holds /
1 violated / 3 partial / 4 faulted — and onto HTTP statuses (200 /
422 / 206 / 424) so a curl probe and a CLI run always agree.

Import from the modules themselves: this package re-exports nothing,
so the CLI's parser can read the job flags from
:mod:`repro.service.protocol` without loading the HTTP stack.
"""
