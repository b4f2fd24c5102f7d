"""Spans around the calls into each layer, recorded from outside ``src/``.

:func:`instrument` wraps the public entry points of the layers the
benchmark crosses, for as long as its ``with`` block lasts:

* ``api`` passes: the ``run`` method of every registered pass;
* ``api`` toolchain: ``Toolchain.compile``;
* ``api`` cache: ``content_hash`` as the batch compiler calls it, and
  ``CompilationCache.get`` / ``put``;
* ``service`` client: ``ServiceClient`` compile and sweep calls;
* ``service.worker``: ``encode_report`` as the sweep worker calls it.

Each call becomes one span (name, start, end, parent, attributes) kept
in memory; :meth:`Tracer.dump` writes them out as JSON.  Spans are only
recorded on the thread that created the tracer, so the sweep worker's
heartbeat thread never interleaves with the compute loop's span stack.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional

#: ``ServiceClient`` methods timed as ``client.<name>`` spans.
CLIENT_CALLS = (
    "compile",
    "submit_sweep",
    "sweep",
    "sweep_results",
    "sweep_claim",
    "sweep_complete",
)


class Tracer:
    """An in-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        #: Spans are recorded only while this is true (the timed phase).
        self.enabled = True

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Dict[str, object]]:
        """Record the enclosed block as a span; yields its attribute dict."""
        if not self.enabled or threading.get_ident() != self._thread:
            yield {}
            return
        record: Dict[str, object] = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": dict(attrs),
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        name: str,
        func: Callable,
        attrs: Optional[Callable[[tuple, object], Dict[str, object]]] = None,
    ) -> Callable:
        """*func* with every call recorded as a span called *name*.

        *attrs*, when given, maps ``(args, result)`` to span attributes.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if attrs is not None:
                    record.update(attrs(args, result))
                return result

        return traced

    def seconds(self, name: str) -> List[float]:
        """Durations of every span called *name*."""
        return [
            float(s["end"]) - float(s["start"])
            for s in self.spans
            if s["name"] == name
        ]

    def dump(self, path: str, extra: Optional[Dict[str, object]] = None) -> None:
        """Write every span (and *extra*) to *path* as JSON."""
        document = dict(extra or {}, spans=self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _patch(stack: contextlib.ExitStack, owner: object, attr: str, value) -> None:
    """Set ``owner.attr = value`` until *stack* closes."""
    had_own = attr in vars(owner)
    original = vars(owner).get(attr)
    setattr(owner, attr, value)

    def restore() -> None:
        if had_own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)

    stack.callback(restore)


def _file_bytes(args: tuple, result: object) -> Dict[str, object]:
    cache, key = args[0], args[1]
    try:
        return {"bytes": cache.path_for(key).stat().st_size, "hit": result is not None}
    except OSError:
        return {"bytes": 0, "hit": result is not None}


def _put_bytes(args: tuple, result: object) -> Dict[str, object]:
    return _file_bytes(args, True)


def _granted(args: tuple, result: object) -> Dict[str, object]:
    jobs = result.get("jobs") if isinstance(result, dict) else None
    return {"jobs": len(jobs or [])}


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the layers' public calls with *tracer* spans, then restore."""
    from repro.api import batch, cache, passes, toolchain
    from repro.service import client, worker

    with contextlib.ExitStack() as stack:
        for name, pass_ in passes.PASS_REGISTRY.items():
            _patch(stack, pass_, "run", tracer.wrap(f"pass.{name}", pass_.run))
        _patch(stack, toolchain.Toolchain, "compile",
               tracer.wrap("toolchain.compile", toolchain.Toolchain.compile))
        _patch(stack, batch, "content_hash",
               tracer.wrap("cache.hash", batch.content_hash))
        _patch(stack, cache.CompilationCache, "get",
               tracer.wrap("cache.get", cache.CompilationCache.get, _file_bytes))
        _patch(stack, cache.CompilationCache, "put",
               tracer.wrap("cache.put", cache.CompilationCache.put, _put_bytes))
        for call in CLIENT_CALLS:
            original = getattr(client.ServiceClient, call)
            attrs = _granted if call == "sweep_claim" else None
            _patch(stack, client.ServiceClient, call,
                   tracer.wrap(f"client.{call}", original, attrs))
        _patch(stack, worker, "encode_report",
               tracer.wrap("sweep.encode", worker.encode_report))
        yield tracer
