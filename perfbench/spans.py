"""In-memory span tracing around the public functions of spinsqueeze.

The tracer wraps every public function (and every public method of the
classes) defined in each layer module, and rebinds the wrapper in every
loaded ``spinsqueeze`` namespace that binds the original, so calls between
modules go through it too.  Nothing in the package source changes.

Spans form one call tree per op.  Repeated calls with the same name under
the same parent span are folded into one record that keeps the call count,
the first start, the last end, the summed duration and the summed self
time (duration minus the time covered by child spans).  Folding keeps the
memory bounded: ``find_limit`` alone makes about a thousand wrapped calls.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import sys
import time

LAYERS = (
    "lie_algebra",
    "root_system",
    "classification",
    "coherent_dynamics",
    "scan_fit",
    "exact_oracle",
    "cli",
)


@dataclasses.dataclass
class Span:
    name: str
    parent: int
    op: int
    kind: str
    start: float = 0.0
    end: float = 0.0
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Collects folded spans; one root span per benchmark op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._children: dict[tuple[int, str], int] = {}
        self._stack: list[list] = []  # [span index, start, time covered by children]
        self._op = -1
        self._kind = ""

    # -- recording -------------------------------------------------------
    def _enter(self, name: str, fold: bool = True) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        key = (parent, name)
        idx = self._children.get(key) if fold else None
        if idx is None:
            idx = len(self.spans)
            if fold:
                self._children[key] = idx
            self.spans.append(Span(name, parent, self._op, self._kind))
        frame = [idx, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        span = self.spans[frame[0]]
        if span.calls == 0:
            span.start = frame[1]
        span.calls += 1
        span.end = end
        span.total += dur
        span.self_time += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur

    def begin_op(self, op: int, kind: str) -> list:
        self._op, self._kind = op, kind
        return self._enter(f"op.{kind}", fold=False)

    def end_op(self, frame: list) -> None:
        self._exit(frame)
        self._op, self._kind = -1, ""

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    # -- installation ----------------------------------------------------
    def install(self, package: str = "spinsqueeze") -> int:
        """Wrap the public functions of every layer module; returns the count."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if not inspect.isgeneratorfunction(obj):
                        wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(obj, layer)
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        return len(wrappers)

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            public = not attr.startswith("_") or (attr == "__init__" and not dataclasses.is_dataclass(cls))
            if public and inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(obj, f"{layer}.{cls.__name__}.{attr}"))

    # -- queries ---------------------------------------------------------
    def totals(self, name: str, kind: str | None = None) -> tuple[int, float]:
        """(calls, summed duration) of every span with this name, optionally within ops of one kind."""
        calls, total = 0, 0.0
        for span in self.spans:
            if span.name == name and (kind is None or span.kind == kind):
                calls += span.calls
                total += span.total
        return calls, total

    def mean_ms(self, name: str, kind: str | None = None) -> float:
        calls, total = self.totals(name, kind)
        return 1e3 * total / calls if calls else 0.0

    def layer_self(self) -> dict[str, float]:
        """Self time per layer, plus "op" for time in the benchmark's own code."""
        out = {layer: 0.0 for layer in LAYERS}
        out["op"] = 0.0
        for span in self.spans:
            out[span.name.split(".", 1)[0]] += span.self_time
        return out

    def calls(self) -> int:
        return sum(span.calls for span in self.spans)

    def write(self, path) -> None:
        """Write one JSON line per folded span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, **dataclasses.asdict(span)}) + "\n")
