"""End-to-end pipeline assembly.

Wires the synthetic renderer, the instance-sharing channel, the BEV
aggregation cascade and the query decoder into one trainable model, and
provides the training step, the training loop and checkpoint
round-tripping.

Two data paths exist for collaborator features. Training keeps the
sender's differentiable feature map, multiplied by the mask, so gradients
reach the shared encoder; inference pushes real bytes through the wire
codec and uses the receiver's rebuilt map. Both take the mask from
``reconstruct_view`` on the sent stream and cut every shared crop with the
same ``crop_bounds``, so the two paths select identical cells. A missing
camera view is never rendered: each agent contributes a ``BevView`` only
for the views its rig has.
"""
from __future__ import annotations

import io
import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .cdqa import (HybridQueries, build_hybrid_queries, cone_encode,
                   ground_anchor, instance_gap_encode)
from .comms import (CommLedger, InstanceMessage, crop_bounds, decode_message,
                    encode_message, fullmap_message, reconstruct_view,
                    select_messages)
from .decoder import BoxCodec, DetrDecoder, LossWeights, Predictions, set_loss
from .geometry import (Pose, apply_pose, apply_pose_noise, camera_in_frame,
                       invert, normalize_angle, relative_pose)
from .ifa import BevGridSpec, BevView, IfaBlock, ifa_cascade
from .scene import (GtBox, Scene, agent_visibility, detect_instances_2d,
                    render_view_features)
from .tensor import Adam, Mlp, Tensor


class TrainingError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


class FingerprintError(CheckpointError):
    """Checkpoint was trained under a different experiment configuration
    or other pipeline flags."""


CHECKPOINT_VERSION = 1

# rng stream tags for the training schedule; scene generation has its own
TAG_INIT = 7
TAG_BATCH = 11
TAG_TRAIN_NOISE = 12


@dataclass
class ModelConfig:
    """Architecture hyperparameters; scene and schedule knobs live elsewhere."""
    feat_c: int = 32          # raw signature channels from the renderer
    c: int = 32               # working channel width after the encoder
    enc_hidden: int = 32
    grid_h: int = 32
    grid_w: int = 32
    resolution: float = 1.0   # m per BEV cell
    n_ref: int = 4
    z_min: float = -1.0
    z_max: float = 3.0
    n_da: int = 4
    n_blocks: int = 2
    n_q: int = 64
    n_dec_layers: int = 3
    dec_n_da: int = 4
    c_thre: float = 0.2
    vis_min: float = 0.05           # GT kept if some agent sees this fraction
    w_cls: float = 1.0
    w_box: float = 2.5

    def validate(self) -> None:
        if min(self.feat_c, self.c, self.enc_hidden) < 1:
            raise ValueError("channel widths must be positive")
        if min(self.n_blocks, self.n_q, self.n_dec_layers,
               self.n_da, self.dec_n_da) < 1:
            raise ValueError("block, query and layer counts must be positive")
        if not (0.0 <= self.c_thre <= 1.0):
            raise ValueError("c_thre must be in [0, 1]")
        # grid fields are validated by the spec constructor
        self.grid_spec()

    def grid_spec(self) -> BevGridSpec:
        return BevGridSpec(grid_h=self.grid_h, grid_w=self.grid_w,
                           resolution=self.resolution, n_ref=self.n_ref,
                           z_min=self.z_min, z_max=self.z_max)


@dataclass(frozen=True)
class PipelineFlags:
    """Which collaboration components run; the ablation axes."""
    ifa: bool = True       # feature-level collaboration into the BEV grid
    cdqa: bool = True      # instance-derived hybrid queries
    mask: bool = True      # foreground-only sharing (off = full feature maps)
    late_fuse: bool = False

    def __post_init__(self):
        if self.cdqa and not self.ifa:
            raise ValueError("query adaptation needs shared instances; "
                             "enable ifa or disable cdqa")


FLAGS_FULL = PipelineFlags()
FLAGS_SOLO = PipelineFlags(ifa=False, cdqa=False, mask=True)
# detections only cross the link; the model itself runs solo
FLAGS_LATE = PipelineFlags(ifa=False, cdqa=False, mask=True, late_fuse=True)


class PipelineModel:
    """All learnable state plus the fixed grid geometry."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.spec = cfg.grid_spec()
        self.codec = BoxCodec.from_grid(self.spec)
        self.weights = LossWeights(w_cls=cfg.w_cls, w_box=cfg.w_box)
        self.enc = Mlp([cfg.feat_c, cfg.enc_hidden, cfg.c], rng, name="enc")
        self.q0 = Tensor(rng.normal(0.0, 0.1, (cfg.c, cfg.grid_h, cfg.grid_w)),
                         requires_grad=True)
        self.blocks = [IfaBlock(cfg.c, cfg.n_da, rng, name=f"ifa{i}")
                       for i in range(cfg.n_blocks)]
        self.gap = Mlp([cfg.c, cfg.c, cfg.c], rng, name="gap")
        self.cone = Mlp([9, cfg.c, cfg.c], rng, name="cone")
        # unused draw, so every later parameter keeps its seeded init
        rng.normal(0.0, 0.1, cfg.c)
        self.qtable = Tensor(rng.normal(0.0, 0.1, (cfg.n_q, cfg.c)),
                             requires_grad=True)
        # fixed reference-point seeds: learned queries tile the field so
        # matching hands each object to a nearby query from step one
        side = math.ceil(math.sqrt(cfg.n_q))
        ticks = np.linspace(-0.8, 0.8, side)
        gy, gx = np.meshgrid(ticks, ticks, indexing="ij")
        self.anchor_grid = np.stack([gx.ravel(), gy.ravel()],
                                    axis=1)[:cfg.n_q]
        self.dec = DetrDecoder(cfg.c, n_layers=cfg.n_dec_layers,
                               n_da=cfg.dec_n_da, rng=rng, name="dec")

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for part in (self.enc.params(), self.gap.params(),
                     self.cone.params(), self.dec.params(),
                     *[b.params() for b in self.blocks]):
            for k, v in part.items():
                if k in out:
                    raise RuntimeError(f"duplicate parameter name {k}")
                out[k] = v
        out["q0"] = self.q0
        out["qtable"] = self.qtable
        return out


@dataclass
class SharedInstance:
    """One instance that crossed (or, in training, virtually crossed) a link."""
    message: InstanceMessage
    cam: object
    agent_pose_in_ego: Pose
    crop: Tensor


@dataclass
class ForwardResult:
    preds: Predictions
    queries: HybridQueries
    fbev: Tensor
    ledger: CommLedger
    views: list[BevView]
    shared: list[SharedInstance]
    believed: list[Pose]      # per-agent poses as used (noise applied)


def _believed_poses(scene: Scene, noise_sigma: float,
                    noise_rng: np.random.Generator | None,
                    ego: int) -> list[Pose]:
    """True ego pose; collaborator poses perturbed by localization noise."""
    if noise_sigma > 0.0 and noise_rng is None:
        raise ValueError("pose noise needs an explicit rng for determinism")
    out = []
    for j, rig in enumerate(scene.agents):
        if j == ego or noise_sigma <= 0.0:
            out.append(rig.pose)
        else:
            out.append(apply_pose_noise(rig.pose, noise_sigma, 0.0, noise_rng))
    return out


def _collab_view(model: PipelineModel, scene: Scene, j: int, k: int,
                 pose_in_ego: Pose, flags: PipelineFlags, wire: bool,
                 detector_mode: str, ledger: CommLedger, c_thre: float,
                 receiver: int):
    """Render, detect, share and rebuild one collaborator view.

    The sent stream is the instance crops, followed by the whole feature map
    when ``flags.mask`` is off; the crops alone feed query adaptation. The
    mask is the stream's rebuilt one on both paths; features and crops come
    from the sender map in training and from the rebuilt map on the wire,
    whose cells hold the payloads' f32 values.
    Returns (BevView | None, shared instance records).
    """
    cfg = scene.cfg
    if not scene.agents[j].view_valid[k]:
        return None, []
    fmap = render_view_features(scene, j, k, model.enc)
    cam = scene.agents[j].cams[k]
    insts = detect_instances_2d(scene, j, k, mode=detector_mode)
    msgs = select_messages(fmap, insts, c_thre)
    sent = msgs if flags.mask else msgs + [fullmap_message(fmap, j, k)]
    for m in sent:
        ledger.count_instance_message(m, receiver=receiver)
    if not sent:
        return None, []

    if wire:
        sent = [decode_message(encode_message(m)) for m in sent]
    rebuilt, mask_arr = reconstruct_view(sent, (model.cfg.c, cfg.feat_h,
                                                cfg.feat_w))
    src = feats = Tensor(rebuilt) if wire else fmap
    if flags.mask and not wire:
        feats = fmap * Tensor(mask_arr[None, :, :].astype(float))
    shared = []
    for m in sent[:len(msgs)]:
        r0, r1, c0, c1 = crop_bounds(m.box, cfg.feat_w, cfg.feat_h)
        shared.append(SharedInstance(message=m, cam=cam,
                                     agent_pose_in_ego=pose_in_ego,
                                     crop=src[:, r0:r1, c0:c1]))
    view = BevView(features=feats, cam=cam, agent_pose_in_ego=pose_in_ego,
                   agent_id=j, view_id=k, mask=mask_arr)
    return view, shared


def _adapt_queries(model: PipelineModel, shared: list[SharedInstance],
                   flags: PipelineFlags) -> HybridQueries:
    codec = model.codec
    encoded = []
    inst_anchors: list = []
    for rec in (shared if flags.cdqa else []):
        m = rec.message
        q = instance_gap_encode(rec.crop, model.gap)
        cam_pose = camera_in_frame(rec.cam, rec.agent_pose_in_ego)
        q = q + cone_encode(m.box, rec.cam, cam_pose, model.cone)
        ga = ground_anchor(m.box, rec.cam, cam_pose)
        if ga is None:
            inst_anchors.append(None)
        else:
            inst_anchors.append((
                float(np.clip(ga[0] / codec.x_scale, -1.0, 1.0)),
                float(np.clip(ga[1] / codec.y_scale, -1.0, 1.0))))
        encoded.append((q, float(m.confidence)))
    return build_hybrid_queries(encoded, model.qtable, inst_anchors,
                                model.anchor_grid)


def model_forward(model: PipelineModel, scene: Scene,
                  flags: PipelineFlags = FLAGS_FULL, *, wire: bool,
                  noise_sigma: float = 0.0,
                  noise_rng: np.random.Generator | None = None,
                  detector_mode: str = "train",
                  c_thre: float | None = None,
                  ego: int = 0) -> ForwardResult:
    """One full pass: render, share, aggregate, decode.

    ``wire=False`` keeps collaborator features differentiable (training);
    ``wire=True`` round-trips them through the byte codec (inference and
    bandwidth accounting). ``ego`` selects the receiving agent; everything
    is expressed in its frame.
    """
    if scene.cfg.feat_c != model.cfg.feat_c:
        raise ValueError(
            f"scene renders {scene.cfg.feat_c} channels but the model "
            f"expects {model.cfg.feat_c}")
    if c_thre is None:
        c_thre = model.cfg.c_thre
    if not (0 <= ego < len(scene.agents)):
        raise ValueError(f"no agent {ego} in a {len(scene.agents)}-agent scene")
    ledger = CommLedger()
    believed = _believed_poses(scene, noise_sigma, noise_rng, ego)
    ego_rig = scene.agents[ego]
    views: list[BevView] = []
    shared: list[SharedInstance] = []
    for k in range(scene.cfg.n_cams):
        if ego_rig.view_valid[k]:
            views.append(BevView(
                features=render_view_features(scene, ego, k, model.enc),
                cam=ego_rig.cams[k], agent_pose_in_ego=Pose(),
                agent_id=ego, view_id=k))
    if flags.ifa:
        for j in range(len(scene.agents)):
            if j == ego:
                continue
            pose_in_ego = relative_pose(ego_rig.pose, believed[j])
            for k in range(scene.cfg.n_cams):
                view, recs = _collab_view(model, scene, j, k, pose_in_ego,
                                          flags, wire, detector_mode, ledger,
                                          c_thre, ego)
                if view is not None:
                    views.append(view)
                shared.extend(recs)
    queries = _adapt_queries(model, shared, flags)
    fbev = ifa_cascade(model.q0, views, model.spec, model.blocks)
    preds = model.dec.forward(fbev, queries.q, model.spec, queries.anchors)
    return ForwardResult(preds=preds, queries=queries, fbev=fbev,
                         ledger=ledger, views=views, shared=shared,
                         believed=believed)


def ego_frame_targets(scene: Scene, spec: BevGridSpec,
                      vis_min: float = 0.05) -> list[GtBox]:
    """GT boxes inside the grid, seen by at least one agent of the scene.

    Boxes come back in the frame of agent 0 (``scene.ego``), the frame of
    ``model_forward(ego=0)``; every caller that builds targets uses ego 0.
    """
    ego = scene.ego.pose
    w2e = invert(ego)
    half_x = spec.grid_w // 2 * spec.resolution
    half_y = spec.grid_h // 2 * spec.resolution
    out = []
    for b in scene.boxes:
        vis = max(agent_visibility(scene, a, b.obj_id)
                  for a in range(len(scene.agents)))
        if vis < vis_min:
            continue
        p = apply_pose(w2e, np.array([[b.x, b.y, b.z]]))[0]
        if abs(p[0]) > half_x or abs(p[1]) > half_y:
            continue
        out.append(GtBox(obj_id=b.obj_id, x=float(p[0]), y=float(p[1]),
                         z=float(p[2]), w=b.w, l=b.l, h=b.h,
                         yaw=normalize_angle(b.yaw - ego.yaw),
                         cls=b.cls, occluded=b.occluded))
    return out


def train_step(scenes: list[Scene], model: PipelineModel, opt: Adam,
               flags: PipelineFlags = FLAGS_FULL, *,
               noise_sigma: float = 0.0,
               noise_rng: np.random.Generator | None = None,
               detector_mode: str = "train") -> float:
    """Forward, loss, backward, optimizer step over a scene batch.

    Scenes go through forward, loss and backward one at a time, in batch
    order, each loss scaled by ``1/len(scenes)``; parameter gradients add up
    in ``.grad`` across the backward calls. Each scene's graph is dropped
    before the next forward, so a step holds one graph and its memory does
    not grow with the batch. The returned batch loss is
    ``((l1 + l2) + ...) * (1/n)`` on the scene losses.
    """
    if not scenes:
        raise ValueError("empty scene batch")
    opt.zero_grad()
    scale = 1.0 / len(scenes)
    total = None
    for scene in scenes:
        fr = model_forward(model, scene, flags, wire=False,
                           noise_sigma=noise_sigma, noise_rng=noise_rng,
                           detector_mode=detector_mode)
        gts = ego_frame_targets(scene, model.spec, model.cfg.vis_min)
        loss = set_loss(fr.preds, gts, model.codec, model.weights)
        _check_finite(float(loss.data), model, len(scenes))
        total = loss.data if total is None else total + loss.data
        (loss * scale).backward()
        del fr, loss    # no graph survives into the next scene's forward
    value = float(total * scale)
    _check_finite(value, model, len(scenes))
    opt.step()
    return value


def _check_finite(value: float, model: PipelineModel, n: int) -> None:
    if np.isfinite(value):
        return
    stats = {k: float(np.abs(t.data).max())
             for k, t in sorted(model.params().items())}
    worst = sorted(stats, key=stats.get, reverse=True)[:5]
    raise TrainingError(
        "non-finite loss "
        f"{value} on batch of {n} scene(s); largest parameter "
        "magnitudes: " + ", ".join(f"{k}={stats[k]:.3g}" for k in worst))


# ---- checkpointing ----


def save_checkpoint(path, model: PipelineModel, opt: Adam | None = None, *,
                    fingerprint: str = "", step: int = 0,
                    flags: PipelineFlags = FLAGS_FULL) -> None:
    """Versioned flat archive of named f64 parameter (and Adam) arrays.

    ``flags`` are the pipeline flags the model was trained under. It is
    written beside ``path`` and moved over it only when whole.
    """
    arrays = {f"param.{k}": t.data for k, t in model.params().items()}
    if opt is not None:
        arrays.update({f"opt.{k}": a for k, a in opt.state_arrays().items()})
    meta = json.dumps({"version": CHECKPOINT_VERSION,
                       "fingerprint": fingerprint, "step": int(step),
                       "flags": asdict(flags)},
                      sort_keys=True)
    arrays["meta"] = np.frombuffer(meta.encode("utf-8"), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# what reading a damaged or foreign file raises: empty (EOFError), truncated
# or failing its CRC (BadZipFile), not an archive at all (ValueError)
_UNREADABLE = (OSError, EOFError, ValueError, zipfile.BadZipFile)


def load_checkpoint(path, model: PipelineModel, opt: Adam | None = None,
                    expect_fingerprint: str | None = None,
                    expect_flags: PipelineFlags | None = None) -> dict:
    """Restore parameters in place; returns the stored metadata.

    A fingerprint or training flags other than the expected ones raise
    ``FingerprintError``; ``None`` accepts any. A file that cannot be read
    as a checkpoint raises ``CheckpointError`` naming the path.
    """
    try:
        z = np.load(path)
    except _UNREADABLE as e:
        raise CheckpointError(f"{path} is unreadable: {e}") from None
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise CheckpointError(f"{path} holds one array, not an archive")

    def read(key: str) -> np.ndarray:
        try:
            return z[key]
        except _UNREADABLE as e:
            raise CheckpointError(f"{path}: cannot read {key}: {e}") from None

    with z:
        if "meta" not in z:
            raise CheckpointError(f"{path} has no metadata record")
        meta = json.loads(bytes(read("meta").tobytes()).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {meta.get('version')} unsupported "
                f"(expected {CHECKPOINT_VERSION})")
        if (expect_fingerprint is not None
                and meta.get("fingerprint") != expect_fingerprint):
            raise FingerprintError(
                f"checkpoint fingerprint {meta.get('fingerprint')!r} does "
                f"not match config fingerprint {expect_fingerprint!r}")
        if (expect_flags is not None
                and meta.get("flags") != asdict(expect_flags)):
            raise FingerprintError(
                f"checkpoint was trained with flags "
                f"{json.dumps(meta.get('flags'), sort_keys=True)}, not "
                f"{json.dumps(asdict(expect_flags), sort_keys=True)}")
        params = model.params()
        stored = {k[len("param."):] for k in z.files if k.startswith("param.")}
        missing = sorted(set(params) - stored)
        extra = sorted(stored - set(params))
        if missing or extra:
            raise CheckpointError(
                f"parameter set mismatch: missing {missing[:4]}, "
                f"unexpected {extra[:4]}")
        # read and check everything before writing anything, so a failed
        # load leaves the model and the optimizer as they were
        arrays = {k: read(f"param.{k}") for k in params}
        for k, t in params.items():
            if arrays[k].shape != t.data.shape:
                raise CheckpointError(
                    f"shape of {k} is {arrays[k].shape}, model wants {t.data.shape}")
        if opt is not None:
            keys = [k for k in z.files if k.startswith("opt.")]
            if not keys:
                raise CheckpointError("checkpoint carries no optimizer state")
            state = {k[len("opt."):]: read(k) for k in keys}
            try:
                opt.load_state_arrays(state)
            except (KeyError, ValueError, IndexError) as e:
                raise CheckpointError(f"{path}: bad optimizer state: {e}") from None
    for k, t in params.items():
        t.data = arrays[k].astype(np.float64).copy()
    return meta


# ---- training loop ----


def init_model(cfg: ModelConfig, seed: int) -> PipelineModel:
    """Fresh weights drawn from the run seed's init stream."""
    return PipelineModel(
        cfg, np.random.default_rng(np.random.SeedSequence([seed, TAG_INIT])))


def _read_loss_rows(path: Path) -> list[str]:
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[1:] if lines and lines[0] == "step,loss" else []


def train(model_cfg: ModelConfig, train_cfg, scenes: list[Scene],
          flags: PipelineFlags, ckpt: Path, loss_csv: Path, *,
          fingerprint: str, log) -> PipelineModel:
    """Train (or resume from ``ckpt``) one model over ``scenes``.

    ``train_cfg`` is a ``config.TrainConfig``. Writes one ``step,loss`` row
    per step to ``loss_csv`` and checkpoints every ``checkpoint_every``
    steps and at the end; ``log`` receives progress lines.
    """
    model = init_model(model_cfg, train_cfg.seed)
    opt = Adam(model.params(), lr=train_cfg.lr)
    start = 0
    kept: list[str] = []
    if ckpt.exists():
        meta = load_checkpoint(ckpt, model, opt, expect_fingerprint=fingerprint,
                               expect_flags=flags)
        start = int(meta.get("step", 0))
        kept = _read_loss_rows(loss_csv)
        if len(kept) < start:   # resuming would leave a gap in the log
            raise CheckpointError(f"cannot resume: {loss_csv} holds {len(kept)} "
                                  f"loss rows, but {ckpt} is at step {start}")
        log(f"resumed {ckpt.name} at step {start}")
    steps = train_cfg.steps
    log(f"training {ckpt.name}: steps {start}..{steps}, "
        f"{len(scenes)} scenes, flags {flags}")
    with open(loss_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,loss\n")
        for row in kept[:start]:
            fh.write(row + "\n")
        fh.flush()
        seed = train_cfg.seed
        batch = min(train_cfg.batch, len(scenes))
        for step in range(start, steps):
            # per-step streams make a resumed run equal a straight one
            brng = np.random.default_rng(
                np.random.SeedSequence([seed, TAG_BATCH, step]))
            idx = brng.choice(len(scenes), size=batch, replace=False)
            nrng = np.random.default_rng(
                np.random.SeedSequence([seed, TAG_TRAIN_NOISE, step]))
            loss = train_step([scenes[i] for i in idx], model, opt, flags,
                              noise_sigma=train_cfg.noise_sigma,
                              noise_rng=nrng, detector_mode="train")
            fh.write(f"{step},{loss:.17g}\n")
            fh.flush()
            done = step + 1
            if done % train_cfg.checkpoint_every == 0 and done < steps:
                save_checkpoint(ckpt, model, opt, fingerprint=fingerprint,
                                step=done, flags=flags)
            if done % 25 == 0 or done == steps:
                log(f"{ckpt.name} step {done}/{steps} loss {loss:.6f}")
    save_checkpoint(ckpt, model, opt, fingerprint=fingerprint,
                    step=max(steps, start), flags=flags)
    return model
