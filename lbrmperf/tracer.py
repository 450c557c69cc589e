"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions of each layer from the benchmark's own
files; nothing in ``src/repro`` knows it exists.  Each wrapped call is a
span with a name, start, end and parent span.  Spans stay in memory (the
first :data:`SPAN_CAP` in full, all of them in per-name totals) and are
written out when the run ends.

Self time of a span is its duration minus the time covered by its direct
child spans; a layer's self time is the sum over its spans.  Time spent
in code that is not wrapped — e.g. the topology's scheduled delivery
callbacks, which are private — is charged to the nearest wrapped caller
(the engine's ``run_until`` for scheduled callbacks).

Codec functions are imported by name into other modules (``from
repro.core.packets import encode`` in ``simnet/topology.py``, the codec
imports of ``aio/node.py``), so patching ``repro.core.packets`` alone
would leave those call sites untraced and the codec spans reading zero.
:meth:`Tracer.install` therefore rebinds every module-level name in any
loaded ``repro`` module that refers to a wrapped function.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from array import array

__all__ = ["LAYERS", "SPAN_CAP", "Tracer"]

# Keep at most this many spans in full; beyond it only per-name totals
# grow, so a long traced run stays small in memory.
SPAN_CAP = 200_000

# layer -> [(owner, attribute)] of the functions whose calls are its spans.
# ``owner`` is "module:Class" for a method, "module" for a function.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "engine": [("repro.simnet.engine:Simulator", "run_until")],
    "node": [
        ("repro.simnet.node:SimNode", "receive"),
        ("repro.simnet.node:SimNode", "poll"),
        ("repro.simnet.node:SimNode", "execute"),
    ],
    "topology": [
        ("repro.simnet.topology:Network", "send_unicast"),
        ("repro.simnet.topology:Network", "send_multicast"),
    ],
    "receiver": [
        ("repro.core.receiver:LbrmReceiver", "handle"),
        ("repro.core.receiver:LbrmReceiver", "poll"),
    ],
    "logger": [
        ("repro.core.logger:LogServer", "handle"),
        ("repro.core.logger:LogServer", "poll"),
    ],
    "sender": [
        ("repro.core.sender:LbrmSender", "send"),
        ("repro.core.sender:LbrmSender", "handle"),
        ("repro.core.sender:LbrmSender", "poll"),
    ],
    "hierarchy": [("repro.core.hierarchy:TreeManager", "rescore")],
    "packets": [
        ("repro.core.packets", "encode"),
        ("repro.core.packets", "encode_uncached"),
        ("repro.core.packets", "decode"),
        ("repro.core.packets", "decode_from"),
        ("repro.core.packets", "encode_bundle"),
        ("repro.core.packets", "iter_bundle"),
    ],
    "aio": [("repro.aio.cluster:AioCluster", "publish_burst")],
    "aggregate": [
        ("repro.scale.aggregate:AggregateSiteReceiver", "handle"),
        ("repro.scale.aggregate:AggregateSiteReceiver", "poll"),
    ],
    "shard": [("repro.scale.shard", "run_sharded")],
}


def span_name(owner: str, attr: str) -> str:
    _module, _, cls = owner.partition(":")
    return f"{cls}.{attr}" if cls else attr


class Tracer:
    """Installs span wrappers; collects per-span totals and kept spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        for layer, entries in LAYERS.items():
            for owner, attr in entries:
                self.names.append(span_name(owner, attr))
                self.layer_of.append(layer)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        # Kept spans, columnar: name index, start, end, parent span id
        # (-1 = root).  A span's id is its index in these arrays.
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.spans_seen = 0
        self.bytes_encoded = 0  # output of encode_uncached, every serialization
        self.simulators: dict[int, object] = {}
        self.max_tombstones = 0
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS` where it is looked up."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        originals: dict[int, object] = {}
        for index, (owner, attr) in enumerate(
            entry for entries in LAYERS.values() for entry in entries
        ):
            module_name, _, cls_name = owner.partition(":")
            module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
            target = getattr(module, cls_name) if cls_name else module
            fn = inspect.getattr_static(target, attr)
            wrapped = self._wrap(fn, index, attr)
            self._set(target, attr, wrapped)
            if not cls_name:
                originals[id(fn)] = wrapped
        # Rebind by-name imports of wrapped module functions.
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.") or name.startswith("lbrmperf")):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, inspect.getattr_static(target, attr)))
        setattr(target, attr, value)

    def reset(self) -> None:
        """Zero the totals (kept spans stay, for the file written at exit)."""
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.simulators.clear()
        self.max_tombstones = 0
        self.bytes_encoded = 0

    def _wrap(self, fn, index: int, attr: str):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def enter() -> list:
            parent = stack[-1][2] if stack else -1
            sid = -1
            if len(tracer.span_name) < SPAN_CAP:
                sid = len(tracer.span_name)
                tracer.span_name.append(index)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                tracer.span_parent.append(parent)
            frame = [0.0, 0.0, sid]
            stack.append(frame)
            frame[0] = clock()
            return frame

        def leave(frame: list) -> None:
            end = clock()
            stack.pop()
            duration = end - frame[0]
            tracer.calls[index] += 1
            tracer.total_s[index] += duration
            tracer.self_s[index] += duration - frame[1]
            tracer.spans_seen += 1
            if stack:
                stack[-1][1] += duration
            sid = frame[2]
            if sid >= 0:
                tracer.span_start[sid] = frame[0]
                tracer.span_end[sid] = end

        if inspect.iscoroutinefunction(fn):
            async def traced_async(*args, **kwargs):
                frame = enter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    leave(frame)

            return traced_async

        if attr == "encode_uncached":
            def traced_encoder(*args, **kwargs):
                frame = enter()
                try:
                    wire = fn(*args, **kwargs)
                    tracer.bytes_encoded += len(wire)
                    return wire
                finally:
                    leave(frame)

            return traced_encoder

        if attr == "run_until":
            def traced_engine(sim, *args, **kwargs):
                frame = enter()
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    leave(frame)
                    tracer.simulators[id(sim)] = sim
                    if sim.tombstones > tracer.max_tombstones:
                        tracer.max_tombstones = sim.tombstones

            return traced_engine

        def traced(*args, **kwargs):
            frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    # -- results ---------------------------------------------------------------

    def span_calls(self) -> dict[str, int]:
        return dict(zip(self.names, self.calls))

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for layer, value in zip(self.layer_of, self.self_s):
            out[layer] += value
        return out

    def calls_of(self, *names: str) -> int:
        index = {n: i for i, n in enumerate(self.names)}
        return sum(self.calls[index[n]] for n in names)

    def self_of(self, *names: str) -> float:
        index = {n: i for i, n in enumerate(self.names)}
        return sum(self.self_s[index[n]] for n in names)

    def write(self, path: str, meta: dict) -> None:
        """Write kept spans as JSON lines: one header, then one per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({
                **meta,
                "spans_kept": len(self.span_name),
                "spans_seen": self.spans_seen,
                "names": self.names,
            }) + "\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for sid in range(len(self.span_name)):
                fh.write(
                    f'[{sid},{self.span_name[sid]},{self.span_start[sid] - t0:.9f},'
                    f'{self.span_end[sid] - t0:.9f},{self.span_parent[sid]}]\n'
                )
