"""Span tracer for the traced benchmark run.

`Tracer.install` replaces each public function of the program's modules, and
each public method of its two model classes, by a wrapper that records a
span: name, start, end, parent span and request id. The wrapper is set at
every name the program looks the function up by (for example, `harness`
imports `evaluate` from `moe`, so `harness.evaluate` is replaced too).
`uninstall` puts the originals back. Spans live in flat arrays in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import time
from array import array

# tensor helpers that are not ops: context managers, conversions and checks
TENSOR_NOT_OPS = {"no_grad", "grad_enabled", "as_tensor", "backward",
                  "assert_finite", "parameters_finite"}
SKIP = {"tensor": {"no_grad", "grad_enabled", "as_tensor"}}
MODEL_CLASSES = (("moe", "MoEModel"), ("predictor", "ImportancePredictor"))


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.name_id = array("l")
        self.names: list = []
        self._ids: dict = {}
        self.stack: list = []          # [span id, start, child time]
        self.request_id = -1
        self.round_index = 0
        self.stats: dict = {}          # name -> [calls, total s, self s]
        self.counters: dict = {}       # name -> number
        self._restore: list = []

    # -- spans ------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return self._ids[name]

    def open(self, name: str) -> list:
        sid = len(self.start)
        t0 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.request.append(self.request_id)
        self.name_id.append(self._intern(name))
        frame = [sid, t0, 0.0, name]
        self.stack.append(frame)
        return frame

    def close(self, frame: list):
        t1 = time.perf_counter()
        sid, t0, child, name = frame
        self.end[sid] = t1
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        dur = t1 - t0
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    def count(self, name: str, n: float = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(frame)
                tracer.count(name + ".failed")
                raise
            tracer.close(frame)
            if extra is not None:
                extra(tracer, args, kwargs, out)
            return out

        return wrapper

    # -- installing the wrappers -----------------------------------------

    def install(self, package, extras: dict):
        """Wrap the public functions of every module of `package` (a dict
        short name -> module) and the public methods of the model classes.
        `extras` maps a span name to a callback that adds counters."""
        wrapped = {}
        for short, mod in package.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr not in SKIP.get(short, ())):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, extras.get(name))
        for mod in package.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for short, cls_name in MODEL_CLASSES:
            cls = getattr(package[short], cls_name)
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{short}.{cls_name}.{attr}"
                    self._restore.append((cls, attr, obj))
                    setattr(cls, attr, self.wrap(name, obj, extras.get(name)))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def tensor_op_calls(self) -> int:
        return sum(st[0] for name, st in self.stats.items()
                   if name.startswith("tensor.")
                   and name[len("tensor."):] not in TENSOR_NOT_OPS)

    def write(self, path: str):
        """One CSV row per span, in the order the spans opened, gzipped."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t_origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="\n", compresslevel=1) as fh:
            fh.write("id,parent,request,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid},{self.parent[sid]},{self.request[sid]},"
                         f"{self.names[self.name_id[sid]]},"
                         f"{self.start[sid] - t_origin:.9f},"
                         f"{self.end[sid] - t_origin:.9f}\n")
