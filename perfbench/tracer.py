"""Spans recorded from outside the program, around its public functions.

:class:`Tracer` replaces each target function with a transparent
wrapper that opens a span (name, start, end, parent) around the call,
counts the call, and hands the result back untouched.  It patches the
defining module *and* every ``repro`` module namespace that bound the
same function object by name (``framework`` imports
``composition_membership`` directly, for instance), so calls through
either path are seen.

A generator result stays lazy: the wrapper returns a generator that
opens one span per resumption, so the time a consumer spends between
items is not charged to the producer.

Spans live in per-thread arrays (no lock on the hot path; the daemon
runs jobs on two threads) and are written out once, at the end, by
:meth:`Tracer.dump`; :func:`load_spans` reads them back.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``hook(buffer, result, outermost)`` — runs after a wrapped call
#: returns; *outermost* is True when no enclosing open span belongs to
#: the same layer.
Hook = Callable[["SpanBuffer", Any, bool], None]


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``module:attr`` (``attr`` may be
    ``Class.method``), reported under *layer*."""

    layer: str
    module: str
    attr: str
    hook: Optional[Hook] = None

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.attr}"


class SpanBuffer:
    """One thread's spans, call counts and result tallies."""

    __slots__ = ("names", "starts", "ends", "parents", "stack", "calls", "tallies")

    def __init__(self) -> None:
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: List[int] = []
        self.calls: Dict[int, int] = {}
        self.tallies: Dict[str, float] = {}

    def tally(self, key: str, amount: float) -> None:
        self.tallies[key] = self.tallies.get(key, 0.0) + amount


class Tracer:
    """Wraps target functions and records their spans (see module doc)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[SpanBuffer] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _buffer(self) -> SpanBuffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = SpanBuffer()
            with self._lock:
                self._buffers.append(buffer)
            self._local.buffer = buffer
            return buffer

    def _open(self, nid: int) -> Tuple[SpanBuffer, int]:
        buffer = self._buffer()
        stack = buffer.stack
        index = len(buffer.starts)
        buffer.names.append(nid)
        buffer.parents.append(stack[-1] if stack else -1)
        buffer.ends.append(0.0)
        stack.append(index)
        buffer.starts.append(self.clock())
        return buffer, index

    def _close(self, buffer: SpanBuffer, index: int) -> None:
        buffer.ends[index] = self.clock()
        buffer.stack.pop()

    def _outermost(self, buffer: SpanBuffer, nid: int) -> bool:
        layer = self.layers[nid]
        names, layers = buffer.names, self.layers
        return all(layers[names[i]] != layer for i in buffer.stack)

    def wrap(self, fn: Callable, name: str, layer: str, hook: Optional[Hook] = None):
        """A transparent, span-recording stand-in for *fn*."""
        nid = self._name_id(name, layer)
        timed_generator = self._timed_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer, index = self._open(nid)
            buffer.calls[nid] = buffer.calls.get(nid, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(buffer, index)
            if hook is not None:
                hook(buffer, result, self._outermost(buffer, nid))
            if type(result) is GeneratorType:
                return timed_generator(result, nid)
            return result

        return traced

    def _timed_generator(self, inner, nid: int):
        value, error = None, None
        while True:
            buffer, index = self._open(nid)
            try:
                item = inner.send(value) if error is None else inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(buffer, index)
            value, error = None, None
            try:
                value = yield item
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as raised:  # forwarded into the producer
                error = raised

    # -- patching ----------------------------------------------------------

    def install(self, targets: Sequence[Target], package: str = "repro") -> None:
        """Wrap every target, in its owner and in every module of
        *package* that bound the same object.  Imports the whole
        package first so that every such binding already exists."""
        root = importlib.import_module(package)
        for info in pkgutil.walk_packages(root.__path__, package + "."):
            importlib.import_module(info.name)
        for target in targets:
            module = importlib.import_module(target.module)
            owner, attr = module, target.attr
            if "." in attr:
                class_name, attr = attr.split(".", 1)
                owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                original = raw.__func__
                replacement = classmethod(
                    self.wrap(original, target.name, target.layer, target.hook)
                )
            else:
                original = raw
                replacement = self.wrap(raw, target.name, target.layer, target.hook)
            self._patch(owner, attr, replacement)
            if owner is not module:
                continue
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    name == package or name.startswith(package + ".")
                ):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, replacement)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every patched binding back (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write names, per-thread counts and tallies, and the raw span
        arrays: one JSON header line, then each thread's arrays."""
        with self._lock:
            buffers = list(self._buffers)
        header = {
            "names": self.names,
            "layers": self.layers,
            "threads": [
                {
                    "count": len(buffer.starts),
                    "calls": {self.names[k]: v for k, v in buffer.calls.items()},
                    "tallies": buffer.tallies,
                }
                for buffer in buffers
            ],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for buffer in buffers:
                for column in (buffer.names, buffer.starts, buffer.ends, buffer.parents):
                    column.tofile(handle)


@dataclass
class ThreadSpans:
    """One thread's spans as parallel arrays (parents index this thread)."""

    names: array
    starts: array
    ends: array
    parents: array


@dataclass
class SpanDump:
    names: List[str]
    layers: List[str]
    threads: List[ThreadSpans]
    calls: Dict[str, int]
    tallies: Dict[str, float]


def load_spans(path: str) -> SpanDump:
    """Read a file written by :meth:`Tracer.dump`."""
    calls: Dict[str, int] = {}
    tallies: Dict[str, float] = {}
    threads: List[ThreadSpans] = []
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        for thread in header["threads"]:
            count = thread["count"]
            columns = []
            for code in ("i", "d", "d", "i"):
                column = array(code)
                column.fromfile(handle, count)
                columns.append(column)
            threads.append(ThreadSpans(*columns))
            for key, value in thread["calls"].items():
                calls[key] = calls.get(key, 0) + value
            for key, value in thread["tallies"].items():
                tallies[key] = tallies.get(key, 0.0) + value
    return SpanDump(header["names"], header["layers"], threads, calls, tallies)
