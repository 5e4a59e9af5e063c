"""Wire format, selection, reconstruction and the byte ledger."""
import math

import numpy as np
import pytest

from viewfuse.comms import (
    DETECTION_MESSAGE_BYTES,
    INSTANCE_HEADER_BYTES,
    CommLedger,
    DecodeError,
    DetectionMessage,
    InstanceMessage,
    ReconstructionError,
    comm_volume_log2,
    crop_bounds,
    decode_detection,
    decode_message,
    encode_detection,
    encode_message,
    fullmap_message,
    reconstruct_view,
    select_messages,
)
from viewfuse.scene import (
    Instance2D,
    SceneConfig,
    detect_instances_2d,
    generate_scene,
    render_view_features,
)
from viewfuse.tensor import Mlp, Tensor


def _view(fc=3, fh=6, fw=8, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(fc, fh, fw)))


def _inst(u0, v0, u1, v1, conf, obj_id=0):
    return Instance2D(u_min=u0, v_min=v0, u_max=u1, v_max=v1,
                      confidence=conf, obj_id=obj_id, agent_id=1, view_id=2)


# ---- wire layout ----


def test_wire_layout_matches_hand_assembled_hex():
    # every field written out by hand from the layout definition:
    #   magic 'VFMS'            56 46 4d 53
    #   version 1               01
    #   j=2, k=1, n=3 (u16 LE)  0200 0100 0300
    #   conf 0.5  = 0x3f000000  0000003f
    #   box  1.5  = 0x3fc00000  0000c03f
    #        2.0  = 0x40000000  00000040
    #        3.5  = 0x40600000  00006040
    #        4.25 = 0x40880000  00008840
    #   fC=1, h=1, w=2 (u16 LE) 0100 0100 0200
    #   payload 1.0 = 0x3f800000, -2.0 = 0xc0000000
    expected = bytes.fromhex(
        "56464d53" "01" "0200" "0100" "0300"
        "0000003f" "0000c03f" "00000040" "00006040" "00008840"
        "0100" "0100" "0200"
        "0000803f" "000000c0")
    m = InstanceMessage(agent_id=2, view_id=1, index=3,
                        box=(1.5, 2.0, 3.5, 4.25), confidence=0.5,
                        payload=np.array([[[1.0, -2.0]]], dtype=np.float32))
    assert encode_message(m) == expected
    assert decode_message(expected) == m


def test_header_only_size():
    m = InstanceMessage(agent_id=0, view_id=0, index=0,
                        box=(0.0, 0.0, 0.0, 0.0), confidence=0.0,
                        payload=np.zeros((2, 0, 3), dtype=np.float32))
    assert len(encode_message(m)) == INSTANCE_HEADER_BYTES == 37


def test_round_trip_random_messages():
    rng = np.random.default_rng(7)
    for _ in range(20):
        fc, h, w = rng.integers(1, 6, size=3)
        m = InstanceMessage(
            agent_id=int(rng.integers(0, 5)), view_id=int(rng.integers(0, 4)),
            index=int(rng.integers(0, 30)),
            box=tuple(float(np.float32(v)) for v in rng.normal(size=4) * 10),
            confidence=float(np.float32(rng.uniform())),
            payload=rng.normal(size=(fc, h, w)).astype(np.float32))
        assert decode_message(encode_message(m)) == m


def test_decode_errors_name_offsets():
    m = InstanceMessage(agent_id=1, view_id=0, index=0,
                        box=(0.5, 0.5, 1.5, 1.5), confidence=0.9,
                        payload=np.ones((2, 1, 1), dtype=np.float32))
    buf = encode_message(m)
    with pytest.raises(DecodeError, match="offset 0"):
        decode_message(b"XXXX" + buf[4:])
    with pytest.raises(DecodeError, match="offset 4"):
        decode_message(buf[:4] + b"\x07" + buf[5:])
    with pytest.raises(DecodeError, match="truncated at byte 10"):
        decode_message(buf[:10])
    with pytest.raises(DecodeError, match="truncated"):
        decode_message(buf[:-2])
    with pytest.raises(DecodeError, match="trailing"):
        decode_message(buf + b"\x00")


def test_detection_message_wire():
    m = DetectionMessage(agent_id=3, index=9,
                         box=(1.0, -2.0, 0.9, 1.8, 4.4, 1.6, 0.3),
                         confidence=0.77)
    buf = encode_detection(m)
    assert len(buf) == DETECTION_MESSAGE_BYTES == 41
    back = decode_detection(buf)
    assert back == m
    with pytest.raises(DecodeError):
        decode_detection(buf[:-1])
    with pytest.raises(DecodeError):
        decode_detection(b"ZZZZ" + buf[4:])


# ---- selection ----


def test_select_threshold_strictly_greater():
    view = _view()
    insts = [_inst(1, 1, 3, 3, conf=0.3), _inst(2, 2, 4, 4, conf=0.5),
             _inst(0, 0, 2, 2, conf=0.8)]
    msgs = select_messages(view, insts, c_thre=0.5)
    assert [m.index for m in msgs] == [2]
    assert select_messages(view, insts, c_thre=0.9) == []


def test_select_crop_outward_rounding():
    view = _view()
    msgs = select_messages(view, [_inst(1.2, 2.7, 3.4, 4.1, conf=0.9)], 0.0)
    assert len(msgs) == 1
    m = msgs[0]
    # floor the mins, ceil the maxes: rows 2..5, cols 1..4
    assert crop_bounds(m.box, 8, 6) == (2, 5, 1, 4)
    np.testing.assert_array_equal(
        m.payload, view.data[:, 2:5, 1:4].astype(np.float32))
    assert (m.agent_id, m.view_id) == (1, 2)   # provenance of the detection


def test_select_drops_empty_clip():
    view = _view()
    # zero-area box and a box fully outside the map
    msgs = select_messages(view, [_inst(2.0, 3.0, 2.0, 3.0, conf=0.9),
                                  _inst(9.0, 7.0, 11.0, 9.0, conf=0.9)], 0.0)
    assert msgs == []


def test_fullmap_message_covers_everything():
    view = _view()
    m = fullmap_message(view, 1, 2)
    assert (m.agent_id, m.view_id) == (1, 2)
    assert m.payload.shape == view.shape
    feats, mask = reconstruct_view([m], view.shape)
    np.testing.assert_array_equal(feats, view.data.astype(np.float32))
    assert mask.all()


# ---- reconstruction ----


def test_reconstruct_empty():
    feats, mask = reconstruct_view([], (3, 6, 8))
    assert not feats.any()
    assert not mask.any()


def test_reconstruct_disjoint_crops():
    view = _view()
    insts = [_inst(0.0, 0.0, 2.0, 2.0, conf=0.6, obj_id=0),
             _inst(5.0, 3.0, 7.0, 5.0, conf=0.7, obj_id=1)]
    msgs = select_messages(view, insts, 0.0)
    feats, mask = reconstruct_view(msgs, view.shape)
    src = view.data.astype(np.float32)
    np.testing.assert_array_equal(feats[:, 0:2, 0:2], src[:, 0:2, 0:2])
    np.testing.assert_array_equal(feats[:, 3:5, 5:7], src[:, 3:5, 5:7])
    outside = ~mask
    assert outside.sum() == 6 * 8 - 8
    assert not feats[:, outside].any()


def test_reconstruct_overlap_confidence_ordered():
    lo = InstanceMessage(agent_id=0, view_id=0, index=0,
                         box=(0.0, 0.0, 3.0, 3.0), confidence=0.4,
                         payload=np.full((1, 3, 3), 5.0, dtype=np.float32))
    hi = InstanceMessage(agent_id=0, view_id=0, index=1,
                         box=(2.0, 2.0, 4.0, 4.0), confidence=0.9,
                         payload=np.full((1, 2, 2), 7.0, dtype=np.float32))
    for order in ([lo, hi], [hi, lo]):
        feats, _ = reconstruct_view(order, (1, 5, 5))
        assert feats[0, 2, 2] == 7.0   # overlap owned by higher conf
        assert feats[0, 0, 0] == 5.0
        assert feats[0, 3, 3] == 7.0


def test_reconstruct_rejects_mixed_provenance_and_bad_fit():
    a = InstanceMessage(agent_id=0, view_id=0, index=0,
                        box=(0.0, 0.0, 2.0, 2.0), confidence=0.5,
                        payload=np.zeros((1, 2, 2), dtype=np.float32))
    b = InstanceMessage(agent_id=1, view_id=0, index=0,
                        box=(0.0, 0.0, 2.0, 2.0), confidence=0.5,
                        payload=np.zeros((1, 2, 2), dtype=np.float32))
    with pytest.raises(ReconstructionError, match="provenance"):
        reconstruct_view([a, b], (1, 5, 5))
    wrong = InstanceMessage(agent_id=0, view_id=0, index=0,
                            box=(0.0, 0.0, 2.0, 2.0), confidence=0.5,
                            payload=np.zeros((1, 3, 3), dtype=np.float32))
    with pytest.raises(ReconstructionError, match="does not fit"):
        reconstruct_view([wrong], (1, 5, 5))


def test_exactness_over_wire_on_rendered_scene():
    """Cells covered by exactly one crop survive the wire bit for bit."""
    cfg = SceneConfig()
    scene = generate_scene(cfg, seed=11)
    enc = Mlp([cfg.feat_c, cfg.feat_c], np.random.default_rng(0))
    view = render_view_features(scene, 1, 0, enc)
    insts = detect_instances_2d(scene, 1, 0, mode="train")
    assert insts, "seed must give agent 1 view 0 something to share"
    msgs = select_messages(view, insts, c_thre=0.0)
    wire = [decode_message(encode_message(m)) for m in msgs]
    feats, mask = reconstruct_view(wire, view.shape)
    src32 = view.data.astype(np.float32)
    cover = np.zeros(mask.shape, dtype=int)
    for m in msgs:
        r0, r1, c0, c1 = crop_bounds(m.box, cover.shape[1], cover.shape[0])
        cover[r0:r1, c0:c1] += 1
    single = cover == 1
    assert single.any()
    np.testing.assert_array_equal(feats[:, single], src32[:, single])
    np.testing.assert_array_equal(mask, cover > 0)
    assert not feats[:, ~mask].any()


# ---- ledger ----


def test_ledger_totals_and_links():
    led = CommLedger()
    m = InstanceMessage(agent_id=1, view_id=0, index=0,
                        box=(0.0, 0.0, 2.0, 2.0), confidence=0.5,
                        payload=np.zeros((3, 2, 2), dtype=np.float32))
    led.count_instance_message(m, receiver=0)
    led.count_instance_message(m, receiver=0)
    d = DetectionMessage(agent_id=2, index=0,
                         box=(0, 0, 0, 1, 1, 1, 0), confidence=1.0)
    led.count_detection_message(d, receiver=0)
    assert led.total_bytes == 2 * m.n_bytes + DETECTION_MESSAGE_BYTES
    assert led.total_bytes == led.header_bytes + led.box_bytes + led.payload_bytes
    assert led.per_link == {(1, 0): 2 * m.n_bytes, (2, 0): 41}
    assert sum(led.per_link.values()) == led.total_bytes


def test_ledger_merge():
    a, b = CommLedger(), CommLedger()
    m = InstanceMessage(agent_id=1, view_id=0, index=0,
                        box=(0.0, 0.0, 1.0, 1.0), confidence=0.5,
                        payload=np.zeros((1, 1, 1), dtype=np.float32))
    a.count_instance_message(m, receiver=0)
    b.count_instance_message(m, receiver=0)
    b.count_detection_message(
        DetectionMessage(agent_id=3, index=0, box=(0,) * 7, confidence=0.0),
        receiver=0)
    merged = CommLedger.merge([a, b])
    assert merged.total_bytes == a.total_bytes + b.total_bytes
    assert merged.per_link[(1, 0)] == 2 * m.n_bytes


def test_comm_volume_log2():
    led = CommLedger(header_bytes=1024)
    assert comm_volume_log2(led) == 10.0
    assert comm_volume_log2(CommLedger(payload_bytes=1)) == 0.0
    with pytest.raises(ValueError, match="no bytes"):
        comm_volume_log2(CommLedger())


def test_bandwidth_monotone_in_threshold_and_mask_dominance():
    cfg = SceneConfig()
    scene = generate_scene(cfg, seed=11)
    enc = Mlp([cfg.feat_c, cfg.feat_c], np.random.default_rng(0))
    views = [render_view_features(scene, 1, k, enc) for k in range(cfg.n_cams)]
    dets = [detect_instances_2d(scene, 1, k, mode="train")
            for k in range(cfg.n_cams)]

    def total_at(c_thre):
        led = CommLedger()
        for v, ds in zip(views, dets):
            for m in select_messages(v, ds, c_thre):
                led.count_instance_message(m, receiver=0)
        return led.total_bytes

    totals = [total_at(t) for t in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(a >= b for a, b in zip(totals, totals[1:]))
    assert totals[-1] == 0   # nothing has confidence above 1.0

    led_full = CommLedger()
    for k, v in enumerate(views):
        led_full.count_instance_message(fullmap_message(v, 1, k), receiver=0)
    # background cells exist, so instance sharing must be strictly cheaper
    masks = [reconstruct_view(select_messages(v, ds, 0.0), v.shape)[1]
             for v, ds in zip(views, dets)]
    assert any((~m).any() for m in masks)
    assert totals[0] < led_full.total_bytes
