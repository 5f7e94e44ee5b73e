"""Outside-in span tracer for the benchmark.

The tracer wraps gcaps functions and methods from outside the package and
keeps spans in memory: name, start, end, parent span and an optional
size.  Nothing under ``src/``
knows about it, and ``restore()`` puts every wrapped name back.

Three details decide whether the numbers mean anything:

* gcaps modules bind each other's functions with ``from .x import``, so a
  function is replaced in every module that holds it, not only where it is
  defined (``gcaps.network.conv2d`` as well as ``gcaps.tensor.conv2d``).
* Methods are replaced on their class (``Tensor.backward``, ``Adam.step``).
* ``data.batches`` is a generator: each ``next()`` is a span, creating the
  generator is not.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "size")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.size = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "size": self.size}


class Tracer:
    """Records nested spans of one thread and owns the names it replaced."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.enabled = True       # when False, wrappers call straight through
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def sample(self, name: str, value: float) -> None:
        """Record one count taken at a layer boundary."""
        self.samples[name].append(value)

    def traced(self, name: str, fn, size=None):
        """``fn`` recording one span per call; ``size(args, kwargs, result)``
        may attach a number (bytes read, bytes written) to the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if size is not None:
                span.size = size(args, kwargs, result)
            return result

        return wrapper

    def traced_generator(self, name: str, fn):
        """``fn`` returning a generator whose every ``next()`` is a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed_next(name, fn(*args, **kwargs))

        return wrapper

    def _timed_next(self, name: str, iterator):
        while True:
            if not self.enabled:
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                yield item
                continue
            span = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(span)
            yield item

    # -- replacing names ---------------------------------------------------

    def patch_function(self, modules, owner, attr: str, name: str,
                       generator: bool = False, size=None) -> None:
        """Wrap ``owner.attr`` and every binding of the same object in
        ``modules``."""
        original = getattr(owner, attr)
        wrapper = (self.traced_generator(name, original) if generator
                   else self.traced(name, original, size))
        targets = [owner] + [m for m in modules if m is not owner]
        for module in targets:
            for key, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, key, wrapper)

    def patch_method(self, cls, attr: str, name: str) -> None:
        self.replace(cls, attr, self.traced(name, cls.__dict__[attr]))

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until ``restore()``."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every name this tracer replaced, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- analysis --------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, summed size."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0, "size": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
        row["size"] += span.size or 0.0
    return table


def layer_shares(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Self time per layer (the span name up to its first dot) over a wall
    time; whatever no span covers is reported as ``untraced``."""
    shares: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        shares[span.name.split(".", 1)[0]] += own / wall_s
    shares["untraced"] = 1.0 - sum(shares.values())
    return dict(shares)


# -- what the benchmark wraps in gcaps -------------------------------------


def install_gcaps(tracer: Tracer) -> None:
    """Wrap the gcaps layer boundaries the benchmark reports on."""
    import os
    from gcaps import analysis, capsule, cli, data, network, routing, tensor

    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "gcaps" or key.startswith("gcaps."))]

    def file_bytes(*paths):
        return float(sum(os.path.getsize(p) for p in paths))

    def patch(owner, attr, name, **kw):
        tracer.patch_function(modules, owner, attr, name, **kw)

    patch(tensor, "conv2d", "tensor.conv2d")
    tracer.patch_method(tensor.Tensor, "backward", "tensor.backward")
    timed_backward = tensor.Tensor.backward

    def counted_backward(root):
        # tape size is counted outside the tensor.backward span, in a span
        # of its own, so the count costs no layer any time
        if not tracer.enabled:
            return timed_backward(root)
        span = tracer.open("trace.tape_count")
        try:
            nodes = tensor.GradTape.from_root(root).nodes
            tracer.sample("tape_nodes", len(nodes))
            tracer.sample("tape_bytes", sum(n.data.nbytes for n in nodes
                                            if n._parents))
        finally:
            tracer.close(span)
        return timed_backward(root)

    tracer.replace(tensor.Tensor, "backward", counted_backward)
    for attr in ("predict", "squash", "coupling_from_logits", "weighted_sum",
                 "agreement_update"):
        patch(capsule, attr, f"capsule.{attr}")
    patch(routing, "route", "routing.route")
    for attr in ("forward", "decode", "train_step", "evaluate", "build_model"):
        patch(network, attr, f"network.{attr}")
    tracer.patch_method(network.Adam, "step", "network.Adam.step")
    patch(network, "load_model", "network.load_model")
    patch(network, "save_checkpoint", "network.save_checkpoint",
          size=lambda a, k, r: file_bytes(a[0]))
    patch(data, "load_idx", "data.load_idx",
          size=lambda a, k, r: file_bytes(a[0], a[1]))
    patch(data, "batches", "data.batches", generator=True)
    patch(data, "synthetic_dataset", "data.synthetic_dataset")
    patch(analysis, "_probe_mean_dc", "analysis.probe")
    patch(analysis, "train_run", "analysis.train_run")
    patch(analysis, "init_sensitivity_study", "analysis.init_sensitivity_study")
    patch(cli, "main", "cli.main")
