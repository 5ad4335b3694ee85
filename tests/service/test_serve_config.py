"""``serve``'s engine flags reach the threads that run the daemon's jobs."""

import threading

from repro.engine import active_backend, set_defaults
from repro.service.__main__ import _configure_daemon_engine, build_parser


def test_serve_backend_sets_the_default_later_threads_follow():
    arguments = build_parser().parse_args(["serve", "--backend", "sql"])
    seen = []
    previous = _configure_daemon_engine(arguments)
    try:
        thread = threading.Thread(target=lambda: seen.append(active_backend()))
        thread.start()
        thread.join(timeout=30)
    finally:
        set_defaults(**previous)
    assert seen == ["sql"]
