"""Span and counter tracing for the benchmark, kept outside the library.

``Tracer.installed()`` rebinds each traced public function of ``viewfuse``
in every module namespace (and every default argument) where a caller looks
it up, and restores the originals on exit. Span wrappers record
``(op, span_id, parent_id, name, start, end, ok)`` in memory; count-only
wrappers, used on hot leaf functions, only bump counters. Nothing is
written until the benchmark asks for the spans at the end.

The run is single-process and single-threaded, so a span's children never
overlap and no layer waits on another: there is no wait metric.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import viewfuse.eval  # noqa: F401  -- loads every module with a traced function

# (module, qualified name) of every function that gets a timed span
SPANNED = (
    ("scene", "generate_scene"),
    ("scene", "render_view_features"),
    ("scene", "detect_instances_2d"),
    ("comms", "select_messages"),
    ("comms", "encode_message"),
    ("comms", "decode_message"),
    ("comms", "reconstruct_view"),
    ("comms", "encode_detection"),
    ("comms", "decode_detection"),
    ("ifa", "ifa_cascade"),
    ("cdqa", "instance_gap_encode"),
    ("cdqa", "cone_encode"),
    ("cdqa", "build_hybrid_queries"),
    ("decoder", "DetrDecoder.forward"),
    ("decoder", "set_loss"),
    ("decoder", "hungarian_match"),
    ("tensor", "Tensor.backward"),
    ("tensor", "bilinear_sample"),
    ("tensor", "Adam.step"),
    ("model", "model_forward"),
    ("model", "ego_frame_targets"),
    ("eval", "evaluate_scene"),
    ("eval", "match_detections"),
    ("eval", "nms_rotated"),
    ("eval", "average_precision"),
)

# hot leaves: a span each would cost more than the work they do
COUNTED = (
    ("geometry", "rects_overlap"),
    ("geometry", "clip_convex"),
    ("eval", "rotated_iou_bev"),
    ("comms", "CommLedger.count_instance_message"),
    ("comms", "CommLedger.count_detection_message"),
)

def _note_bilinear(t, args, kwargs, out):
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    t.counts["tensor.bilinear_sample.points"] += len(getattr(pts, "data", pts))


def _note_cascade(t, args, kwargs, out):
    t.counts["ifa.views"] += len(args[1] if len(args) > 1 else kwargs["views"])


def _note_queries(t, args, kwargs, out):
    t.counts["cdqa.n_instance"] += out.n_instance


def _note_nms(t, args, kwargs, out):
    t.counts["eval.nms_rotated.in"] += len(args[0])
    t.counts["eval.nms_rotated.kept"] += len(out)


def _note_iou(t, args, kwargs, out):
    t.counts["eval.rotated_iou_bev.nonzero"] += out > 0.0


def _note_overlap(t, args, kwargs, out):
    t.counts["geometry.rects_overlap.true"] += bool(out)


def _note_ledger(t, args, kwargs, out):
    t.ledgers[id(args[0])] = args[0]   # read for byte totals at the end


NOTES = {
    "tensor.bilinear_sample": _note_bilinear,
    "ifa.ifa_cascade": _note_cascade,
    "cdqa.build_hybrid_queries": _note_queries,
    "eval.nms_rotated": _note_nms,
    "eval.rotated_iou_bev": _note_iou,
    "geometry.rects_overlap": _note_overlap,
    "comms.CommLedger.count_instance_message": _note_ledger,
    "comms.CommLedger.count_detection_message": _note_ledger,
}


def _resolve(module: str, qualname: str):
    """Owner object, attribute name and original function of one target."""
    owner = sys.modules[f"viewfuse.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


class Tracer:
    """In-memory span recorder plus the counters the layer ratios need."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.ledgers: dict[int, object] = {}
        self.op = -1
        self._stack = [0]
        self._next_id = 1

    def _span_wrapper(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((self.op, sid, parent, name, t0, t1, ok))
            if note is not None:
                note(self, args, kwargs, out)
            return out
        return wrapper

    def _count_wrapper(self, name: str, fn):
        note = NOTES.get(name)
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            out = fn(*args, **kwargs)
            if note is not None:
                note(self, args, kwargs, out)
            return out
        return wrapper

    @contextmanager
    def op_span(self, index: int, name: str):
        """Root span around one benchmark op; all spans inside carry its index."""
        self.op = index
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append(sid)
        ok = False
        t0 = time.perf_counter()
        try:
            yield
            ok = True
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((index, sid, 0, name, t0, t1, ok))

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper; always restores."""
        wrappers: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
        owners = []
        for targets, make in ((SPANNED, self._span_wrapper),
                              (COUNTED, self._count_wrapper)):
            for module, qualname in targets:
                owner, attr, fn = _resolve(module, qualname)
                wrappers[id(fn)] = (fn, make(f"{module}.{qualname}", fn))
                owners.append((owner, attr, fn))

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        # names imported into other modules, and defaults such as
        # match_detections(iou_fn=rotated_iou_bev), are looked up there
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("viewfuse"):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value.__defaults__:
                    new = tuple(swap(d) for d in value.__defaults__)
                    if any(a is not b for a, b in zip(new, value.__defaults__)):
                        undo.append((value, "__defaults__", value.__defaults__))
                        value.__defaults__ = new
                if swap(value) is not value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, swap(value))
        for owner, attr, fn in owners:
            if inspect.isclass(owner):
                undo.append((owner, attr, fn))
                setattr(owner, attr, swap(fn))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def layer_metrics(self, n_ops: int, n_scenes: int) -> dict[str, tuple[float, str]]:
        """Per-op layer totals, ratios and per-scene wire accounting."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        errors = defaultdict(int)
        child = defaultdict(float)
        for _, sid, parent, name, t0, t1, ok in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
            errors[name] += not ok
            child[parent] += t1 - t0
        own = defaultdict(float)
        for _, sid, _, name, t0, t1, _ in self.spans:
            own[name] += (t1 - t0) - child[sid]
        ops = max(n_ops, 1)
        scenes = max(n_scenes, 1)
        out: dict[str, tuple[float, str]] = {}
        for module, qualname in SPANNED:
            name = f"{module}.{qualname}"
            out[f"{name}.calls"] = (calls[name] / ops, "calls/op")
            out[f"{name}.busy_s"] = (busy[name] / ops, "s/op")
            out[f"{name}.self_s"] = (own[name] / ops, "s/op")
            out[f"{name}.errors"] = (errors[name] / ops, "errors/op")
        c = self.counts
        for name in ("geometry.rects_overlap", "geometry.clip_convex",
                     "eval.rotated_iou_bev"):
            out[f"{name}.calls"] = (c[f"{name}.calls"] / ops, "calls/op")
        out["geometry.rects_overlap.true_ratio"] = (
            _ratio(c["geometry.rects_overlap.true"],
                   c["geometry.rects_overlap.calls"]), "ratio")
        out["eval.rotated_iou_bev.nonzero_ratio"] = (
            _ratio(c["eval.rotated_iou_bev.nonzero"],
                   c["eval.rotated_iou_bev.calls"]), "ratio")
        out["eval.nms_rotated.kept_ratio"] = (
            _ratio(c["eval.nms_rotated.kept"], c["eval.nms_rotated.in"]), "ratio")
        out["tensor.bilinear_sample.points"] = (
            c["tensor.bilinear_sample.points"] / ops, "points/op")
        out["ifa.views_per_call"] = (
            _ratio(c["ifa.views"], calls["ifa.ifa_cascade"]), "views")
        out["cdqa.n_instance_per_scene"] = (c["cdqa.n_instance"] / scenes,
                                            "queries/scene")
        messages = (c["comms.CommLedger.count_instance_message.calls"]
                    + c["comms.CommLedger.count_detection_message.calls"])
        out["comms.messages_per_scene"] = (messages / scenes, "msgs/scene")
        total = 0
        for part in ("header", "box", "payload"):
            n = sum(getattr(led, f"{part}_bytes") for led in self.ledgers.values())
            total += n
            out[f"comms.{part}_bytes_per_scene"] = (n / scenes, "B/scene")
        out["comms.wire_bytes_per_scene"] = (total / scenes, "B/scene")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
