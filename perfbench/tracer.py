"""Outside-in tracer: times the package's layers without editing them.

``Tracer.install`` replaces every public function of each traced
module, every public method of its public classes (plain, class and
static methods and cached properties) and a few named private probes
with a timing wrapper.  A function is replaced in every traced module
that holds it, because ``cli`` and others bind imported functions by
name.  Generator functions are timed per ``next()``, not only when
they are created.

Each call becomes a span (name, op, id, parent id, start, end) and is
also folded into aggregates: calls and inclusive time per name, calls
and time per (name, caller), and self time per layer, where a layer's
self time is the time during which one of its spans is the innermost
open one.  Calls into ``HOT_LAYERS`` are aggregated only, since the
oracle makes thousands of small exactalg calls per op; other names
store at most ``SPAN_CAP`` spans per run.  Wrappers do nothing but
call through while ``active`` is false.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HOT_LAYERS = frozenset({"exactalg"})
SPAN_CAP = 1000


class Tracer:
    def __init__(self, observers=None):
        # name -> observer(counters, args, result), run after a call returns
        self.observers = dict(observers or {})
        self.active = False
        self.op = None
        self.calls: Counter = Counter()
        self.incl_s: defaultdict = defaultdict(float)
        self.by_caller: defaultdict = defaultdict(lambda: [0, 0.0])
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.spans: list = []
        self._stack: list = []
        self._depth: Counter = Counter()
        self._next_id = 0
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self, modules: dict, probes: dict | None = None) -> None:
        """Wrap the public callables of ``modules`` (layer name -> module)."""
        probes = probes or {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_") or attr in probes.get(layer, ())):
                    wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                    for holder in modules.values():
                        for name, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, name, wrapped)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    self._install_class(layer, attr, obj)

    def _install_class(self, layer: str, cname: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cname}.{attr}"
            if inspect.isfunction(obj):
                new = self._wrap(name, layer, obj)
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(name, layer, obj.__func__))
            elif isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(name, layer, obj.__func__))
            elif isinstance(obj, functools.cached_property):
                new = functools.cached_property(self._wrap(name, layer, obj.func))
                new.__set_name__(cls, attr)
            else:
                continue
            self._patch(cls, attr, new)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                return self._steps(name, layer, it) if self.active else it

            return gen_wrapper

        hot = layer in HOT_LAYERS
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, hot)
            if observer is not None:
                self._observe(observer, args, result)
            return result

        return wrapper

    def _steps(self, name: str, layer: str, it):
        while True:
            frame = self._enter(name, layer)
            try:
                value = next(it)
            except StopIteration:
                return
            finally:
                self._exit(frame, False)
            self.counters[f"{name}.yields"] += 1
            yield value

    def _observe(self, observer, args, result) -> None:
        # observer time is charged to nobody: hide it from the caller's self time
        t0 = perf_counter()
        observer(self.counters, args, result)
        if self._stack:
            self._stack[-1][4] += perf_counter() - t0

    # frame: [name, layer, parent frame, span id, child seconds, start]
    def _enter(self, name: str, layer: str) -> list:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [name, layer, parent, self._next_id, 0.0, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        frame[5] = perf_counter()
        return frame

    def _exit(self, frame: list, hot: bool) -> None:
        end = perf_counter()
        name, layer, parent, span_id, child, start = frame
        duration = end - start
        self._stack.pop()
        self._depth[name] -= 1
        self.self_s[layer] += duration - child
        if not self._depth[name]:
            self.incl_s[name] += duration
        caller = self.by_caller[name, parent[0] if parent else None]
        caller[0] += 1
        caller[1] += duration
        if parent is not None:
            parent[4] += duration
        if not hot and self.calls[name] < SPAN_CAP:
            self.spans.append((self.op, span_id, parent[3] if parent else None, name, start, end))
        self.calls[name] += 1

    # -- queries -----------------------------------------------------------

    def caller_calls(self, name: str, caller_layer: str) -> tuple[int, float]:
        """Calls of ``name`` and their time, made from spans of one layer."""
        calls, seconds = 0, 0.0
        for (callee, caller), (n, s) in self.by_caller.items():
            if callee == name and caller and caller.split(".", 1)[0] == caller_layer:
                calls += n
                seconds += s
        return calls, seconds

    def write(self, path: Path, header: dict) -> None:
        """Write spans and aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "run", **header}) + "\n")
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"type": "span", "op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
            for (name, caller), (calls, seconds) in sorted(self.by_caller.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
                fh.write(json.dumps({"type": "aggregate", "name": name, "caller": caller,
                                     "calls": calls, "seconds": seconds}) + "\n")
            fh.write(json.dumps({"type": "layers", "self_s": dict(self.self_s)}) + "\n")
            fh.write(json.dumps({"type": "counters", "counters": dict(self.counters)}) + "\n")
