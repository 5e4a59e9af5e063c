"""Small scene and model configs shared by the unit and acceptance tests."""

import numpy as np

from viewfuse.model import ModelConfig, PipelineModel
from viewfuse.scene import SceneConfig


def small_scene_cfg(**kw) -> SceneConfig:
    base = dict(n_agents=2, feat_c=12, feat_h=8, feat_w=12, stride=10,
                focal_px=60.0, n_objects_min=5, n_objects_max=8,
                occluded_fraction=0.4, pixel_noise=0.05)
    base.update(kw)
    return SceneConfig(**base)


def small_model_cfg(**kw) -> ModelConfig:
    base = dict(feat_c=12, c=12, enc_hidden=12, grid_h=16, grid_w=16,
                resolution=1.9, n_q=24, n_blocks=2, n_dec_layers=2)
    base.update(kw)
    return ModelConfig(**base)


def small_model(seed: int = 7) -> PipelineModel:
    return PipelineModel(small_model_cfg(), np.random.default_rng(seed))
