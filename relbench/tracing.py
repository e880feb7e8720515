"""In-memory spans around calls into the program's modules.

A span is (name, start, end, parent). Spans are recorded by the benchmark's
own code, around calls it makes and around module attributes it wraps for
the traced run; nothing inside the program is changed. Calls made hundreds
of thousands of times per round (one stem per token) are "hot": they are
not kept as spans but summed per name, and their time is charged as child
time to the enclosing span, so self times stay exact.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent, child_seconds, round]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.hot: dict[str, list[float]] = {}  # name -> [calls, seconds]
        self.round = 0
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, parent, 0.0, self.round]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][4] += rec[2] - rec[1]

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, module, attr: str, name: str, hot: bool = False, after=None) -> None:
        """Replace ``module.attr`` by a recording wrapper until restore().
        ``after(args, result)`` runs outside the timed part of a hot call."""
        original = getattr(module, attr)
        if not hot:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
        else:
            totals = self.hot.setdefault(name, [0, 0.0])
            spans, stack = self.spans, self._stack

            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = original(*args, **kwargs)
                dt = time.perf_counter() - t0
                totals[0] += 1
                totals[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt
                if after is not None:
                    after(args, result)
                return result
        self.patch(module, attr, wrapper)

    def patch(self, module, attr: str, replacement) -> None:
        """Set ``module.attr`` until restore()."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take_hot(self) -> dict[str, tuple[int, float]]:
        """Hot totals since the last call, then reset them."""
        out = {name: (int(v[0]), v[1]) for name, v in self.hot.items()}
        for v in self.hot.values():
            v[0], v[1] = 0, 0.0
        return out

    def self_times(self, round_no: int) -> dict[str, float]:
        """Summed self time per span name over one round."""
        out: dict[str, float] = {}
        for name, start, end, _parent, child, rnd in self.spans:
            if rnd == round_no:
                out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, child, rnd in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "child_s": child,
                                    "round": rnd}) + "\n")
