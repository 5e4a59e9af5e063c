"""Instance-level feature sharing over a byte-exact wire.

Senders pick confident detections, crop the view feature map to each box
(outward-rounded to whole cells) and ship the crops as little-endian
messages. Receivers rebuild a sparse feature map with background zeroed,
and the mask of the cells the crops cover; training, which keeps the
sender's map, takes its mask from the same rebuild. Every byte that would
cross a link is tallied in a ledger so bandwidth numbers are exact rather
than estimated.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .scene import Instance2D
from .tensor import Tensor

INSTANCE_MAGIC = b"VFMS"
DETECTION_MAGIC = b"VFDT"
WIRE_VERSION = 1

# Wire layouts: (field, little-endian struct code) in wire order. The codec's
# Structs, the ledger split and ``inspect-message`` are all built from these.
INSTANCE_FIELDS = (
    ("magic", "4s"), ("version", "B"), ("agent_id", "H"), ("view_id", "H"),
    ("index", "H"), ("confidence", "f"), ("u_min", "f"), ("v_min", "f"),
    ("u_max", "f"), ("v_max", "f"), ("feat_c", "H"), ("crop_h", "H"),
    ("crop_w", "H"))
DETECTION_FIELDS = (
    ("magic", "4s"), ("version", "B"), ("agent_id", "H"), ("index", "H"),
    ("x", "f"), ("y", "f"), ("z", "f"), ("w", "f"), ("l", "f"), ("h", "f"),
    ("yaw", "f"), ("confidence", "f"))


def field_spans(fields) -> list[tuple[int, int, str, str]]:
    """(offset, size, name, struct code) of each field, in wire order."""
    spans, off = [], 0
    for name, code in fields:
        size = struct.calcsize("<" + code)
        spans.append((off, size, name, code))
        off += size
    return spans


def _ledger_split(fields) -> tuple[int, int]:
    """(header, box) bytes: the float fields, confidence and box, are "box";
    the identity and shape words are "header"."""
    spans = field_spans(fields)
    box = sum(size for _, size, _, code in spans if code == "f")
    return sum(size for _, size, _, _ in spans) - box, box


_INSTANCE_HEADER = struct.Struct("<" + "".join(c for _, c in INSTANCE_FIELDS))
_DETECTION_WIRE = struct.Struct("<" + "".join(c for _, c in DETECTION_FIELDS))

INSTANCE_HEADER_BYTES = _INSTANCE_HEADER.size     # 37
DETECTION_MESSAGE_BYTES = _DETECTION_WIRE.size    # 41

_HDR_SPLIT_HEADER, _HDR_SPLIT_BOX = _ledger_split(INSTANCE_FIELDS)   # 17, 20
_DET_SPLIT_HEADER, _DET_SPLIT_BOX = _ledger_split(DETECTION_FIELDS)  # 9, 32


class DecodeError(ValueError):
    """Raised when a wire buffer cannot be parsed; names the failing offset."""


class ReconstructionError(ValueError):
    pass


def _f32(x: float) -> float:
    return float(np.float32(x))


@dataclass
class InstanceMessage:
    """One cropped instance on the wire.

    ``box`` and ``confidence`` are stored already quantized to f32 so that the
    in-memory message equals its decoded round trip bit for bit.
    """
    agent_id: int       # sender j
    view_id: int        # view k
    index: int          # instance index n within the view
    box: tuple[float, float, float, float]   # (u_min, v_min, u_max, v_max)
    confidence: float
    payload: np.ndarray  # (fC, h, w) float32

    def __post_init__(self):
        self.payload = np.ascontiguousarray(self.payload, dtype=np.float32)
        if self.payload.ndim != 3:
            raise ValueError(f"payload must be (fC, h, w), got {self.payload.shape}")

    def __eq__(self, other):
        if not isinstance(other, InstanceMessage):
            return NotImplemented
        return (self.agent_id == other.agent_id
                and self.view_id == other.view_id
                and self.index == other.index
                and self.box == other.box
                and self.confidence == other.confidence
                and self.payload.shape == other.payload.shape
                and np.array_equal(self.payload, other.payload))

    @property
    def n_bytes(self) -> int:
        return INSTANCE_HEADER_BYTES + 4 * self.payload.size


@dataclass
class DetectionMessage:
    """A finished 3-D detection in the sender frame, for late fusion."""
    agent_id: int
    index: int
    box: tuple[float, ...]   # (x, y, z, w, l, h, yaw), f32-quantized
    confidence: float

    def __post_init__(self):
        self.box = tuple(_f32(v) for v in self.box)
        self.confidence = _f32(self.confidence)
        if len(self.box) != 7:
            raise ValueError("detection box needs 7 numbers")

    @property
    def n_bytes(self) -> int:
        return DETECTION_MESSAGE_BYTES


@dataclass
class CommLedger:
    """Single-writer byte accumulator for the links of one scene."""
    header_bytes: int = 0
    box_bytes: int = 0
    payload_bytes: int = 0
    per_link: dict = field(default_factory=dict)  # (sender, receiver) -> bytes

    @property
    def total_bytes(self) -> int:
        return self.header_bytes + self.box_bytes + self.payload_bytes

    def _add(self, sender: int, receiver: int, header: int, box: int, payload: int):
        self.header_bytes += header
        self.box_bytes += box
        self.payload_bytes += payload
        key = (sender, receiver)
        self.per_link[key] = self.per_link.get(key, 0) + header + box + payload

    def count_instance_message(self, m: InstanceMessage, receiver: int):
        self._add(m.agent_id, receiver, _HDR_SPLIT_HEADER, _HDR_SPLIT_BOX,
                  4 * m.payload.size)

    def count_detection_message(self, m: DetectionMessage, receiver: int):
        self._add(m.agent_id, receiver, _DET_SPLIT_HEADER, _DET_SPLIT_BOX, 0)

    @staticmethod
    def merge(ledgers: "list[CommLedger]") -> "CommLedger":
        out = CommLedger()
        for led in ledgers:
            out.header_bytes += led.header_bytes
            out.box_bytes += led.box_bytes
            out.payload_bytes += led.payload_bytes
            for key in sorted(led.per_link):
                out.per_link[key] = out.per_link.get(key, 0) + led.per_link[key]
        return out


def comm_volume_log2(ledger: CommLedger) -> float:
    """Message size in log scale, base 2; zero traffic has no defined volume."""
    if ledger.total_bytes < 1:
        raise ValueError("no bytes on any link, communication volume undefined")
    return math.log2(ledger.total_bytes)


# ---- selection and cropping ----


def crop_bounds(box, feat_w: int, feat_h: int):
    """Outward-rounded integer cell bounds of a feature-coordinate box.

    Rounding is applied to the f32-quantized coordinates so sender and
    receiver derive identical bounds from the wire values.
    Returns (r0, r1, c0, c1), possibly empty after clipping.
    """
    u0, v0, u1, v1 = (_f32(v) for v in box)
    c0 = max(0, int(math.floor(u0)))
    r0 = max(0, int(math.floor(v0)))
    c1 = min(feat_w, int(math.ceil(u1)))
    r1 = min(feat_h, int(math.ceil(v1)))
    return r0, r1, c0, c1


def select_messages(features: Tensor, instances: list[Instance2D],
                    c_thre: float) -> list[InstanceMessage]:
    """Crop the [C, H, W] view map around each detection above threshold.

    Confidence must be strictly greater than ``c_thre``; crops that clip to
    nothing are dropped. Payloads are the f32 quantization of the view
    features inside the outward-rounded box; agent and view come from the
    detection.
    """
    fmap = features.data
    _, fh, fw = fmap.shape
    out = []
    for n, inst in enumerate(instances):
        if not inst.confidence > c_thre:
            continue
        box = (inst.u_min, inst.v_min, inst.u_max, inst.v_max)
        r0, r1, c0, c1 = crop_bounds(box, fw, fh)
        if r0 >= r1 or c0 >= c1:
            continue
        out.append(InstanceMessage(
            agent_id=inst.agent_id, view_id=inst.view_id, index=n,
            box=tuple(_f32(v) for v in box),
            confidence=_f32(inst.confidence),
            payload=fmap[:, r0:r1, c0:c1].astype(np.float32)))
    return out


def fullmap_message(features: Tensor, agent_id: int,
                    view_id: int) -> InstanceMessage:
    """The whole feature map as a single crop (no instance selection)."""
    _, fh, fw = features.shape
    return InstanceMessage(
        agent_id=agent_id, view_id=view_id, index=0,
        box=(0.0, 0.0, float(fw), float(fh)), confidence=1.0,
        payload=features.data.astype(np.float32))


# ---- wire format ----


def encode_message(m: InstanceMessage) -> bytes:
    fc, h, w = m.payload.shape
    header = _INSTANCE_HEADER.pack(INSTANCE_MAGIC, WIRE_VERSION,
                                   m.agent_id, m.view_id, m.index,
                                   m.confidence, *m.box, fc, h, w)
    return header + m.payload.astype("<f4").tobytes()


def decode_message(buf: bytes) -> InstanceMessage:
    if len(buf) < INSTANCE_HEADER_BYTES:
        raise DecodeError(f"buffer truncated at byte {len(buf)}, "
                          f"header needs {INSTANCE_HEADER_BYTES}")
    magic, version, j, k, n, conf, b0, b1, b2, b3, fc, h, w = \
        _INSTANCE_HEADER.unpack_from(buf)
    if magic != INSTANCE_MAGIC:
        raise DecodeError(f"bad magic {magic!r} at offset 0")
    if version != WIRE_VERSION:
        raise DecodeError(f"unsupported version {version} at offset 4")
    need = INSTANCE_HEADER_BYTES + 4 * fc * h * w
    if len(buf) < need:
        raise DecodeError(f"buffer truncated at byte {len(buf)}, "
                          f"payload runs to {need}")
    if len(buf) > need:
        raise DecodeError(f"trailing bytes at offset {need}")
    payload = np.frombuffer(buf, dtype="<f4",
                            count=fc * h * w,
                            offset=INSTANCE_HEADER_BYTES).reshape(fc, h, w)
    return InstanceMessage(agent_id=j, view_id=k, index=n,
                           box=(b0, b1, b2, b3), confidence=conf,
                           payload=payload.copy())


def encode_detection(m: DetectionMessage) -> bytes:
    return _DETECTION_WIRE.pack(DETECTION_MAGIC, WIRE_VERSION,
                                m.agent_id, m.index, *m.box, m.confidence)


def decode_detection(buf: bytes) -> DetectionMessage:
    if len(buf) < DETECTION_MESSAGE_BYTES:
        raise DecodeError(f"buffer truncated at byte {len(buf)}, "
                          f"message needs {DETECTION_MESSAGE_BYTES}")
    if len(buf) > DETECTION_MESSAGE_BYTES:
        raise DecodeError(f"trailing bytes at offset {DETECTION_MESSAGE_BYTES}")
    magic, version, j, n, *vals = _DETECTION_WIRE.unpack(buf)
    if magic != DETECTION_MAGIC:
        raise DecodeError(f"bad magic {magic!r} at offset 0")
    if version != WIRE_VERSION:
        raise DecodeError(f"unsupported version {version} at offset 4")
    return DetectionMessage(agent_id=j, index=n,
                            box=tuple(vals[:7]), confidence=vals[7])


# ---- receiver side ----


def reconstruct_view(messages: list[InstanceMessage],
                     dims: tuple[int, int, int]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Fill crops back into a zero map: (features, mask).

    ``features`` is a (fC, fH, fW) float64 map holding the f32 payload
    values; ``mask`` is (fH, fW) bool, True where a crop was written. Crops
    are applied in ascending confidence order so the most confident
    instance owns any overlap cells. All messages must come from one (j, k).
    """
    fc, fh, fw = dims
    feats = np.zeros((fc, fh, fw))
    mask = np.zeros((fh, fw), dtype=bool)
    if not messages:
        return feats, mask
    j, k = messages[0].agent_id, messages[0].view_id
    for m in messages:
        if (m.agent_id, m.view_id) != (j, k):
            raise ReconstructionError(
                f"mixed provenance: ({m.agent_id},{m.view_id}) != ({j},{k})")
    for m in sorted(messages, key=lambda m: m.confidence):
        r0, r1, c0, c1 = crop_bounds(m.box, fw, fh)
        pc, ph, pw = m.payload.shape
        if pc != fc or (r1 - r0, c1 - c0) != (ph, pw):
            raise ReconstructionError(
                f"crop {m.payload.shape} does not fit box rows {r0}:{r1} "
                f"cols {c0}:{c1} of a {dims} map")
        feats[:, r0:r1, c0:c1] = m.payload
        mask[r0:r1, c0:c1] = True
    return feats, mask
