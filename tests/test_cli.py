"""Command line contract: exit codes, file outputs, determinism."""

import ast
import csv
import json
import os
import platform
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from viewfuse import cli, comms
from viewfuse.cli import build_parser, main
from viewfuse.config import (ConfigError, ExperimentConfig, config_from_dict,
                             config_to_dict, fingerprint, load_config)
from viewfuse.eval import PIPELINES
from viewfuse.model import FLAGS_FULL, FingerprintError, PipelineFlags, train
from viewfuse.scene import scene_from_dict


def cfg_dict(out_dir, **over):
    d = {
        "scene": {"n_agents": 2, "feat_c": 12, "feat_h": 8, "feat_w": 12,
                  "stride": 10, "focal_px": 60.0, "n_objects_min": 5,
                  "n_objects_max": 8, "occluded_fraction": 0.4,
                  "pixel_noise": 0.05},
        "model": {"feat_c": 12, "c": 12, "enc_hidden": 12, "grid_h": 16,
                  "grid_w": 16, "resolution": 1.9, "n_q": 24, "n_blocks": 1,
                  "n_dec_layers": 1},
        "train": {"steps": 3, "batch": 2, "n_scenes": 5, "seed": 3},
        "eval": {"n_scenes": 2},
        "out_dir": str(out_dir),
    }
    for sec, kv in over.items():
        d[sec].update(kv) if isinstance(kv, dict) else d.update({sec: kv})
    return d


def write_cfg(tmp, name, d):
    p = tmp / name
    p.write_text(json.dumps(d))
    return p


@pytest.fixture(scope="session")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_trained")
    d = cfg_dict(tmp / "run")
    cp = write_cfg(tmp, "c.json", d)
    assert main(["train", "--config", str(cp)]) == 0
    return cp, tmp / "run"


# ---- config handling ----


def test_empty_config_is_the_default_experiment(tmp_path):
    p = write_cfg(tmp_path, "c.json", {})
    cfg = load_config(p)
    assert config_to_dict(cfg) == config_to_dict(ExperimentConfig())


def test_unknown_key_names_the_field(tmp_path, capsys):
    p = write_cfg(tmp_path, "c.json", {"model": {"n_quiries": 3}})
    assert main(["train", "--config", str(p)]) == 2
    assert "model.n_quiries" in capsys.readouterr().err


def test_unknown_section_suggests_the_close_one(tmp_path, capsys):
    p = write_cfg(tmp_path, "c.json", {"modle": {}})
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "modle" in err and "model" in err


def test_config_version_gate():
    with pytest.raises(ConfigError, match="version"):
        config_from_dict({"version": 99})


def test_type_errors_name_the_path():
    with pytest.raises(ConfigError, match="train.steps"):
        config_from_dict({"train": {"steps": "many"}})
    with pytest.raises(ConfigError, match="train.steps"):
        config_from_dict({"train": {"steps": True}})


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_name_the_path(literal):
    # Python's json reads these literals; no config field may hold them
    for path in ("train.lr", "train.noise_sigma", "eval.noise_sigma",
                 "scene.range_m", "scene.pixel_noise", "model.resolution"):
        sec, key = path.split(".")
        with pytest.raises(ConfigError, match=re.escape(f'"{path}"')):
            config_from_dict(json.loads(f'{{"{sec}": {{"{key}": {literal}}}}}'))


def test_fingerprint_stable_across_key_order(tmp_path):
    d = cfg_dict(tmp_path / "a")
    flipped = {k: d[k] for k in reversed(list(d))}
    flipped["model"] = {k: d["model"][k] for k in reversed(list(d["model"]))}
    f1 = fingerprint(config_from_dict(json.loads(json.dumps(d))))
    f2 = fingerprint(config_from_dict(json.loads(json.dumps(flipped))))
    assert f1 == f2


def test_fingerprint_ignores_schedule_length_and_eval(tmp_path):
    base = config_from_dict(cfg_dict(tmp_path / "a"))
    longer = config_from_dict(cfg_dict(tmp_path / "b", train={"steps": 99}))
    other_eval = config_from_dict(cfg_dict(tmp_path / "a",
                                           eval={"n_scenes": 7}))
    assert fingerprint(base) == fingerprint(longer) == fingerprint(other_eval)
    wider = config_from_dict(cfg_dict(tmp_path / "a", model={"c": 16}))
    assert fingerprint(wider) != fingerprint(base)


def test_config_keys_match_formats_doc():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    section = doc[doc.index("## Experiment config"):]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    d = config_to_dict(ExperimentConfig())
    assert set(example) == set(d)
    for name in ("train", "eval"):      # the sections the doc spells out
        assert set(example[name]) == set(d[name])


@pytest.mark.parametrize("section, named", [
    ({"train": {"seed": -1}}, "train: seed must be >= 0"),
    ({"train": {"scene_seed0": -1}}, "train: scene_seed0 must be >= 0"),
    ({"eval": {"scene_seed0": -1}}, "eval: scene_seed0 must be >= 0"),
    ({"eval": {"eval_seed": -1}}, "eval: eval_seed must be >= 0"),
    ({"scene": {"scene_retries": 0}}, "scene: scene_retries must be >= 1"),
    ({"scene": {"focal_px": 0.0}}, "scene: focal_px must be > 0"),
    # the send threshold is model.c_thre for every pipeline; a config.json
    # written while eval.det_thre existed holds it as null
    ({"eval": {"det_thre": None}}, "eval.det_thre"),
])
def test_config_values_outside_the_field_rules_exit_2(tmp_path, capsys,
                                                      section, named):
    p = write_cfg(tmp_path, "c.json", cfg_dict(tmp_path / "run", **section))
    assert main(["train", "--config", str(p)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_scene_the_generator_cannot_build_exits_2(tmp_path, capsys):
    p = write_cfg(tmp_path, "c.json", cfg_dict(
        tmp_path / "run", scene={"range_m": 5.0, "n_objects_min": 40,
                                 "n_objects_max": 40}))
    assert main(["gen-scenes", "--config", str(p), str(tmp_path / "s.jsonl"),
                 "--n", "1", "--seed0", "77"]) == 2
    err = capsys.readouterr().err
    assert "scene 77:" in err and "after 20 attempts" in err


def test_a_failed_gen_scenes_keeps_the_existing_corpus(tmp_path, capsys):
    good = write_cfg(tmp_path, "good.json", cfg_dict(tmp_path / "run"))
    bad = write_cfg(tmp_path, "bad.json", cfg_dict(
        tmp_path / "run", scene={"range_m": 5.0, "n_objects_min": 40,
                                 "n_objects_max": 40}))
    corpus = tmp_path / "corpus" / "s.jsonl"
    assert main(["gen-scenes", "--config", str(good), str(corpus),
                 "--n", "2", "--seed0", "77"]) == 0
    before = corpus.read_bytes()
    assert main(["gen-scenes", "--config", str(bad), str(corpus),
                 "--n", "1", "--seed0", "77"]) == 2
    assert "scene 77:" in capsys.readouterr().err
    assert corpus.read_bytes() == before
    assert os.listdir(corpus.parent) == ["s.jsonl"]


def test_an_out_dir_that_cannot_be_made_exits_2(trained, tmp_path, capsys):
    cp, _ = trained
    (tmp_path / "FILE").write_text("")
    out = tmp_path / "FILE" / "x"
    assert main(["train", "--config", str(cp), "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


def test_train_and_eval_seed_ranges_must_not_overlap(tmp_path):
    d = cfg_dict(tmp_path / "a", train={"scene_seed0": 100},
                 eval={"scene_seed0": 102})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(d)


# ---- train ----


def test_train_outputs(trained):
    _, run = trained
    assert (run / "checkpoint.npz").exists()
    lines = (run / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 4
    steps = [int(l.split(",")[0]) for l in lines[1:]]
    assert steps == [0, 1, 2]
    for l in lines[1:]:
        assert np.isfinite(float(l.split(",")[1]))
    # wall time lives only in the sidecar, which also says where set-up went
    log = (run / "run.log").read_text()
    assert log.count(":") >= 2
    assert re.search(r"generated 5 scenes \(seeds 1000\.\.1004\) in \d+\.\d\d s", log)
    assert (run / "config.json").exists()


def test_train_rerun_is_byte_identical(tmp_path):
    d1 = cfg_dict(tmp_path / "r1")
    d2 = cfg_dict(tmp_path / "r2")
    assert main(["train", "--config", str(write_cfg(tmp_path, "c1.json", d1))]) == 0
    assert main(["train", "--config", str(write_cfg(tmp_path, "c2.json", d2))]) == 0
    a = (tmp_path / "r1" / "loss.csv").read_bytes()
    b = (tmp_path / "r2" / "loss.csv").read_bytes()
    assert a == b


def test_resume_extends_to_the_same_bytes(tmp_path):
    # 3 steps then resume to 6 must equal a straight 6-step run
    d_short = cfg_dict(tmp_path / "resumed", train={"steps": 3})
    d_long = cfg_dict(tmp_path / "resumed", train={"steps": 6})
    d_ref = cfg_dict(tmp_path / "straight", train={"steps": 6})
    assert main(["train", "--config", str(write_cfg(tmp_path, "s.json", d_short))]) == 0
    assert main(["train", "--config", str(write_cfg(tmp_path, "l.json", d_long))]) == 0
    assert main(["train", "--config", str(write_cfg(tmp_path, "r.json", d_ref))]) == 0
    a = (tmp_path / "resumed" / "loss.csv").read_bytes()
    b = (tmp_path / "straight" / "loss.csv").read_bytes()
    assert a == b


def test_resume_from_a_short_loss_log_exits_2(tmp_path, capsys):
    # a 2-step run whose loss.csv lost its rows must not resume with a gap
    run = tmp_path / "run"
    d = cfg_dict(run, train={"steps": 2, "checkpoint_every": 2})
    assert main(["train", "--config", str(write_cfg(tmp_path, "s.json", d))]) == 0
    capsys.readouterr()
    (run / "loss.csv").write_text("step,loss\n")
    ckpt = (run / "checkpoint.npz").read_bytes()
    d["train"]["steps"] = 4
    assert main(["train", "--config", str(write_cfg(tmp_path, "l.json", d))]) == 2
    err = capsys.readouterr().err
    assert "checkpoint error" in err, err
    assert str(run / "loss.csv") in err and "0 loss rows" in err and "step 2" in err, err
    assert (run / "checkpoint.npz").read_bytes() == ckpt
    assert (run / "loss.csv").read_text() == "step,loss\n"


# ---- eval ----


def test_eval_writes_report_and_table(trained, tmp_path, capsys):
    cp, run = trained
    assert main(["eval", "--config", str(cp)]) == 0
    out = capsys.readouterr().out
    assert "AP@0.50" in out and "fused" in out
    assert (run / "report_fused.jsonl").exists()


def test_eval_twice_is_byte_identical(trained, capsys):
    cp, run = trained
    assert main(["eval", "--config", str(cp)]) == 0
    first = (run / "report_fused.jsonl").read_bytes()
    assert main(["eval", "--config", str(cp)]) == 0
    assert (run / "report_fused.jsonl").read_bytes() == first
    capsys.readouterr()


def test_report_schema(trained, capsys):
    cp, run = trained
    assert main(["eval", "--config", str(cp), "--pipeline", "late"]) == 0
    capsys.readouterr()
    lines = (run / "report_late.jsonl").read_text().splitlines()
    records = [json.loads(l) for l in lines]
    assert all(r["record"] == "scene" for r in records[:-1])
    summary = records[-1]
    assert summary["record"] == "summary"
    assert sorted(summary["ap"]) == ["0.30", "0.50", "0.70"]
    for key in ("label", "comm_log2", "total_bytes", "n_scenes", "n_gt",
                "fingerprint", "seed"):
        assert key in summary
    assert summary["fingerprint"] == fingerprint(load_config(cp))
    # detection exchange bills exactly one fixed-size record per message
    assert summary["total_bytes"] % comms.DETECTION_MESSAGE_BYTES == 0


def test_eval_exit_codes(trained, tmp_path, capsys):
    cp, run = trained
    d = cfg_dict(run, model={"c": 16})
    bad = write_cfg(tmp_path, "bad.json", d)
    assert main(["eval", "--config", str(bad),
                 "--checkpoint", str(run / "checkpoint.npz")]) == 4
    assert "fingerprint" in capsys.readouterr().err
    assert main(["eval", "--config", str(cp),
                 "--checkpoint", str(tmp_path / "nope.npz")]) == 2


def test_eval_without_a_checkpoint_creates_no_out_dir(trained, tmp_path,
                                                     capsys):
    cp, _ = trained
    new = tmp_path / "new"
    assert main(["eval", "--config", str(cp), "--out", str(new)]) == 2
    assert str(new / "checkpoint.npz") in capsys.readouterr().err
    assert not new.exists()


def test_unreadable_checkpoint_exits_2_naming_the_path(trained, tmp_path,
                                                       capsys):
    cp, run = trained
    good = (run / "checkpoint.npz").read_bytes()
    with zipfile.ZipFile(run / "checkpoint.npz") as zf:
        member = zf.read("param.q0.npy")
    flipped = bytearray(good)
    # the last byte of a stored parameter: its CRC fails only when read
    flipped[good.index(member) + len(member) - 1] ^= 0xFF
    cases = {"empty.npz": b"", "truncated.npz": good[:len(good) // 2],
             "flipped.npz": bytes(flipped), "text.npz": b"step,loss\n0,1.5\n",
             "array.npz": member}
    for name, blob in cases.items():
        p = tmp_path / name
        p.write_bytes(blob)
        assert main(["eval", "--config", str(cp),
                     "--checkpoint", str(p)]) == 2, name
        err = capsys.readouterr().err
        assert "checkpoint error" in err and str(p) in err, name


def test_eval_rejects_cdqa_without_ifa(capsys):
    # no named pipeline adapts queries without shared instances, and the
    # parser refuses any other name, listing the ones it knows
    assert all(f.ifa or not f.cdqa for f in PIPELINES.values())
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args(["eval", "--pipeline", "cdqa"])
    assert e.value.code == 2
    assert "ifa+cdqa" in capsys.readouterr().err


def _summary(path: Path) -> dict:
    return json.loads(path.read_text().splitlines()[-1])


def test_fullmap_flags_cost_more(trained, tmp_path, capsys):
    # full-map pricing is the fused model run by the pipeline without the mask
    cp, run = trained
    assert main(["eval", "--config", str(cp)]) == 0
    masked = _summary(run / "report_fused.jsonl")
    assert main(["eval", "--config", str(cp), "--pipeline", "ifa+cdqa",
                 "--checkpoint", str(run / "checkpoint.npz"),
                 "--out", str(tmp_path / "fm")]) == 0
    capsys.readouterr()
    full = _summary(tmp_path / "fm" / "report_ifa+cdqa.jsonl")
    assert full["label"] == "ifa+cdqa"
    assert full["total_bytes"] > masked["total_bytes"]


def test_pipeline_name_is_the_report_label(trained, tmp_path, capsys):
    # another pipeline's report never lands in report_fused.jsonl
    cp, run = trained
    out = ["--config", str(cp), "--checkpoint", str(run / "checkpoint.npz"),
           "--out", str(tmp_path)]
    assert main(["eval", *out]) == 0
    fused = (tmp_path / "report_fused.jsonl").read_bytes()
    assert main(["eval", *out, "--pipeline", "ifa"]) == 0
    capsys.readouterr()
    assert _summary(tmp_path / "report_ifa.jsonl")["label"] == "ifa"
    assert (tmp_path / "report_fused.jsonl").read_bytes() == fused


def test_eval_c_thre_is_the_sweep_point(trained, tmp_path, capsys):
    # eval --c-thre moves the share threshold of this evaluation only; the
    # checkpoint, trained at model.c_thre, still matches the config
    cp, run = trained

    def records(name, *extra):
        assert main(["eval", "--config", str(cp), "--out", str(tmp_path / name),
                     "--checkpoint", str(run / "checkpoint.npz"), *extra]) == 0
        capsys.readouterr()
        report, = (tmp_path / name).glob("report_*.jsonl")
        return [json.loads(line) for line in report.read_text().splitlines()]

    base = records("base")
    one = records("one", "--c-thre", "0.95")
    swept = records("sw", "--sweep", "c_thre", "0.95")
    assert one[:-1] == swept[:-1]
    assert one[-1]["fingerprint"] == fingerprint(load_config(cp))
    assert one[-1]["total_bytes"] < base[-1]["total_bytes"]


# ---- sweep ----


def test_sweep_emits_one_row_per_point(trained, capsys):
    cp, run = trained
    assert main(["eval", "--config", str(cp), "--sweep", "noise", "0:0.6:7"]) == 0
    out = capsys.readouterr().out
    assert out.count("fused:noise_sigma=") == 7
    rows = (run / "sweep_fused_noise_sigma.csv").read_text().splitlines()
    assert len(rows) == 8
    assert rows[0].startswith("noise_sigma,label,")


def test_sweep_value_list(trained, capsys):
    cp, run = trained
    assert main(["eval", "--config", str(cp), "--sweep", "c_thre",
                 "0.1,0.5"]) == 0
    capsys.readouterr()
    rows = (run / "sweep_fused_c_thre.csv").read_text().splitlines()
    assert len(rows) == 3


def test_sweep_runs_the_chosen_pipeline(trained, tmp_path, capsys):
    # a late sweep bills detection messages only, never feature crops
    cp, run = trained
    assert main(["eval", "--config", str(cp), "--pipeline", "late",
                 "--checkpoint", str(run / "checkpoint.npz"),
                 "--out", str(tmp_path), "--sweep", "noise", "0:0:2"]) == 0
    capsys.readouterr()
    with open(tmp_path / "sweep_late_noise_sigma.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    for row in rows:
        assert row["label"].startswith("late:noise_sigma=")
        n_bytes = int(row["total_bytes"])
        assert n_bytes > 0
        assert n_bytes % comms.DETECTION_MESSAGE_BYTES == 0


def test_late_sweep_prices_the_send_threshold(trained, tmp_path, capsys):
    # late fusion sends the detections above the one send threshold, so a
    # c_thre sweep across their confidences moves its bytes
    cp, run = trained
    assert main(["eval", "--config", str(cp), "--pipeline", "late",
                 "--checkpoint", str(run / "checkpoint.npz"),
                 "--out", str(tmp_path), "--sweep", "c_thre", "0,1"]) == 0
    capsys.readouterr()
    with open(tmp_path / "sweep_late_c_thre.csv", newline="") as f:
        sent = [int(row["total_bytes"]) for row in csv.DictReader(f)]
    assert sent[0] > 0
    assert sent[0] % comms.DETECTION_MESSAGE_BYTES == 0
    assert sent[1] == 0


def test_sweeps_of_two_pipelines_share_a_directory(trained, tmp_path, capsys):
    # file names and labels carry the pipeline, so one sweep never
    # overwrites another pipeline's table or reports
    cp, run = trained
    out = ["--config", str(cp), "--checkpoint", str(run / "checkpoint.npz"),
           "--out", str(tmp_path), "--sweep", "noise", "0,0.3"]
    assert main(["eval", *out]) == 0
    fused_csv = (tmp_path / "sweep_fused_noise_sigma.csv").read_bytes()
    fused_report = (tmp_path / "report_fused_noise_sigma_0.3.jsonl").read_bytes()
    assert main(["eval", *out, "--pipeline", "late"]) == 0
    capsys.readouterr()
    assert (tmp_path / "sweep_fused_noise_sigma.csv").read_bytes() == fused_csv
    assert (tmp_path / "report_fused_noise_sigma_0.3.jsonl").read_bytes() == fused_report
    with open(tmp_path / "sweep_late_noise_sigma.csv", newline="") as f:
        late = [row["label"] for row in csv.DictReader(f)]
    assert late == ["late:noise_sigma=0", "late:noise_sigma=0.3"]
    assert _summary(tmp_path / "report_late_noise_sigma_0.3.jsonl")["label"] == \
        "late:noise_sigma=0.3"
    assert sorted(p.name for p in tmp_path.glob("sweep_*.csv")) == [
        "sweep_fused_noise_sigma.csv", "sweep_late_noise_sigma.csv"]


def test_sweep_bad_axis(trained, capsys):
    cp, _ = trained
    assert main(["eval", "--config", str(cp), "--sweep", "banana", "0:1:2"]) == 2
    assert "banana" in capsys.readouterr().err


def test_sweep_agents_beyond_the_scene_roster(trained, capsys):
    cp, run = trained
    assert main(["eval", "--config", str(cp), "--sweep", "agents", "1,3"]) == 2
    err = capsys.readouterr().err
    assert "agents" in err and "1..2" in err
    assert not list(run.glob("sweep_*n_agents.csv"))


@pytest.mark.parametrize("argv, named", [
    (["eval", "--noise", "-0.5"], "--noise"),
    (["eval", "--noise", "nan"], "--noise"),
    (["eval", "--c-thre", "7"], "--c-thre"),
    (["eval", "--c-thre", "nan"], "--c-thre"),
    (["eval", "--c-thre", "-1"], "--c-thre"),
    (["eval", "--sweep", "c_thre", "0.5,2"], '"c_thre"'),
    (["eval", "--sweep", "noise", "0:-1:2"], '"noise"'),
    (["eval", "--sweep", "agents", "inf"], '"agents"'),
    (["eval", "--sweep", "agents", "1.5"], '"agents"'),
    (["gen-scenes", "scenes.jsonl", "--n", "-2"], "--n"),
    (["gen-scenes", "scenes.jsonl", "--seed0", "-5"], "--seed0"),
    (["train", "--seed", "-1"], "--seed"),
    (["show-config", "--seed", "-1"], "--seed"),
])
def test_values_outside_the_config_rules_exit_2(trained, tmp_path, capsys,
                                                argv, named):
    # a command-line value is held to the rule of the config field it
    # stands for, and a refusal names the option or the sweep axis before
    # anything is loaded or written
    cp, run = trained
    if argv[0] == "gen-scenes":
        argv = [argv[0], str(tmp_path / argv[1]), *argv[2:]]
    else:
        argv = [*argv, "--out", str(tmp_path / "out")]
    if argv[0] == "eval":
        argv += ["--checkpoint", str(run / "checkpoint.npz")]
    assert main([*argv, "--config", str(cp)]) == 2
    assert named in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ---- ablate ----


def test_ablate_missing_checkpoint_exit(trained, tmp_path, capsys):
    d = cfg_dict(tmp_path / "ab")
    cp = write_cfg(tmp_path, "c.json", d)
    assert main(["ablate", "--config", str(cp)]) == 5
    assert "train-missing" in capsys.readouterr().err


def test_ablate_refuses_a_ladder_checkpoint_trained_under_other_flags(
        trained, tmp_path, capsys):
    # the train run's full-flags checkpoint, swapped into the late row
    cp, run = trained
    ab = tmp_path / "ab"
    ab.mkdir()
    (ab / "checkpoint_late.npz").write_bytes((run / "checkpoint.npz").read_bytes())
    assert main(["ablate", "--config", str(cp), "--out", str(ab)]) == 4
    err = capsys.readouterr().err
    assert '"late_fuse": false' in err and '"late_fuse": true' in err


def test_resume_under_other_flags_is_refused(trained, tmp_path):
    cp, run = trained
    cfg = load_config(cp)
    ckpt = tmp_path / "checkpoint.npz"
    ckpt.write_bytes((run / "checkpoint.npz").read_bytes())
    (tmp_path / "loss.csv").write_bytes((run / "loss.csv").read_bytes())
    with pytest.raises(FingerprintError, match='"mask": false'):
        train(cfg.model, cfg.train, [], PipelineFlags(mask=False), ckpt,
              tmp_path / "loss.csv", fingerprint=fingerprint(cfg),
              log=lambda msg: None)
    # the same flags resume: the checkpoint is already at its last step
    train(cfg.model, cfg.train, [], FLAGS_FULL, ckpt, tmp_path / "loss.csv",
          fingerprint=fingerprint(cfg), log=lambda msg: None)


def test_ablate_ladder_csv(tmp_path, monkeypatch, capsys):
    generated = []
    real = cli.generate_scene

    def counting(cfg, seed):
        generated.append(seed)
        return real(cfg, seed)

    monkeypatch.setattr(cli, "generate_scene", counting)
    d = cfg_dict(tmp_path / "ab", train={"steps": 2})
    cp = write_cfg(tmp_path, "c.json", d)
    assert main(["ablate", "--config", str(cp), "--train-missing"]) == 0
    capsys.readouterr()
    # the four rows share one train corpus (5 scenes), then 2 eval scenes
    assert len(generated) == 7
    rows = list((tmp_path / "ab" / "ablation.csv").read_text().splitlines())
    assert rows[0] == "label,ap30,ap50,ap70,comm_log2,total_bytes"
    labels = [r.split(",")[0] for r in rows[1:]]
    assert labels == ["late", "ifa", "ifa+cdqa", "ifa+cdqa+mask"]
    by_label = {r.split(",")[0]: r.split(",") for r in rows[1:]}
    assert int(by_label["ifa+cdqa+mask"][5]) < int(by_label["ifa+cdqa"][5])
    # second invocation reuses the checkpoints and generates no train scene
    generated.clear()
    assert main(["ablate", "--config", str(cp)]) == 0
    capsys.readouterr()
    assert len(generated) == 2
    # one run.log line per scene set generated, with its time
    log = (tmp_path / "ab" / "run.log").read_text()
    sets = re.findall(r"generated (\d+) scenes \(seeds (\d+)\.\.(\d+)\) in "
                      r"\d+\.\d\d s", log)
    assert sets == [("5", "1000", "1004"), ("2", "900000", "900001"),
                    ("2", "900000", "900001")]


def test_ablate_full_row_is_the_train_run(trained, tmp_path, capsys):
    # train and the ladder's last row both run FLAGS_FULL with instance
    # sharing through the one training loop, so their files agree byte for byte
    cp, run = trained
    ab = tmp_path / "ab"
    assert main(["ablate", "--config", str(cp), "--out", str(ab),
                 "--train-missing"]) == 0
    capsys.readouterr()
    assert ((ab / "loss_ifa+cdqa+mask.csv").read_bytes()
            == (run / "loss.csv").read_bytes())
    assert ((ab / "checkpoint_ifa+cdqa+mask.npz").read_bytes()
            == (run / "checkpoint.npz").read_bytes())


# ---- scene corpus and message dumps ----


def test_gen_scenes_round_trip(trained, tmp_path, capsys):
    cp, _ = trained
    out = tmp_path / "scenes.jsonl"
    assert main(["gen-scenes", "--config", str(cp), str(out), "--n", "2",
                 "--seed0", "77"]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    scene = scene_from_dict(json.loads(lines[0]))
    assert scene.seed == 77
    assert len(scene.agents) == 2
    out2 = tmp_path / "scenes2.jsonl"
    assert main(["gen-scenes", "--config", str(cp), str(out2), "--n", "2",
                 "--seed0", "77"]) == 0
    capsys.readouterr()
    assert out2.read_bytes() == out.read_bytes()


def test_inspect_instance_message(tmp_path, capsys):
    m = comms.InstanceMessage(
        agent_id=1, view_id=2, index=3, box=(1.5, 2.0, 7.5, 6.0),
        confidence=0.625,
        payload=np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    p = tmp_path / "m.bin"
    p.write_bytes(comms.encode_message(m))
    assert main(["inspect-message", str(p)]) == 0
    out = capsys.readouterr().out
    for field in ("magic", "VFMS", "agent_id", "u_min", "crop_w", "payload"):
        assert field in out
    assert "0x0025" in out   # payload offset equals the header size


def test_inspect_instance_message_with_empty_payload(tmp_path, capsys):
    m = comms.InstanceMessage(
        agent_id=0, view_id=1, index=0, box=(0.0, 0.0, 1.0, 1.0),
        confidence=0.5, payload=np.zeros((0, 1, 1), dtype=np.float32))
    p = tmp_path / "m.bin"
    p.write_bytes(comms.encode_message(m))
    assert main(["inspect-message", str(p)]) == 0
    out = capsys.readouterr().out
    assert "0 f32" in out and " in [" not in out


def test_inspect_detection_message(tmp_path, capsys):
    d = comms.DetectionMessage(agent_id=0, index=1,
                               box=(1.0, -2.0, 0.75, 0.9, 1.8, 4.4, 1.5),
                               confidence=0.5)
    p = tmp_path / "m.bin"
    p.write_bytes(comms.encode_detection(d))
    assert main(["inspect-message", str(p)]) == 0
    out = capsys.readouterr().out
    assert "VFDT" in out and "yaw" in out and "confidence" in out


def test_inspect_rejects_unknown_magic(tmp_path, capsys):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"XXXXGARBAGE")
    assert main(["inspect-message", str(p)]) == 2
    assert "magic" in capsys.readouterr().err


def _cut_payload() -> bytes:
    m = comms.InstanceMessage(
        agent_id=0, view_id=0, index=0, box=(0.0, 0.0, 2.0, 2.0),
        confidence=0.5, payload=np.ones((1, 2, 2), dtype=np.float32))
    return comms.encode_message(m)[:-4]


@pytest.mark.parametrize("blob", [
    pytest.param(b"VFMS\x01\x00", id="truncated_header"),
    pytest.param(_cut_payload(), id="short_payload"),
    pytest.param(b"VFDT\x02", id="short_detection"),
])
def test_inspect_malformed_message_exits_2_naming_the_offset(tmp_path, capsys,
                                                             blob):
    p = tmp_path / "m.bin"
    p.write_bytes(blob)
    assert main(["inspect-message", str(p)]) == 2
    err = capsys.readouterr().err
    assert "decode error" in err and f"at byte {len(blob)}" in err


def test_inspect_unreadable_path_exits_2_naming_it(tmp_path, capsys):
    # a directory or a missing file is an unreadable message, not a crash
    for path in (tmp_path, tmp_path / "missing.bin"):
        assert main(["inspect-message", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {path}: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1


def test_show_config_prints_fingerprint(tmp_path, capsys):
    d = cfg_dict(tmp_path / "x")
    cp = write_cfg(tmp_path, "c.json", d)
    assert main(["show-config", "--config", str(cp)]) == 0
    got = capsys.readouterr()
    parsed = json.loads(got.out)
    assert parsed["model"]["c"] == 12
    assert fingerprint(config_from_dict(d)) in got.err


# ---- scripts ----


def _script_subcommands() -> dict[str, tuple[str, list[str]]]:
    """Subcommand literal and "--" string constants of every ``vf([...])``
    call in scripts/*.py."""
    found = {}
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    for path in sorted(scripts.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "vf"):
                continue
            arg = node.args[0]
            options = [n.value for n in ast.walk(arg)
                       if isinstance(n, ast.Constant)
                       and isinstance(n.value, str) and n.value.startswith("--")]
            while isinstance(arg, ast.BinOp):
                arg = arg.left
            where = f"{path.name}:{node.lineno}"
            assert (isinstance(arg, ast.List) and arg.elts
                    and isinstance(arg.elts[0], ast.Constant)), \
                f"{where}: vf() must start its argv with a literal subcommand"
            found[where] = (arg.elts[0].value, options)
    return found


def test_parser_rejects_options_that_change_no_output(capsys):
    parse = build_parser().parse_args
    for argv in (["gen-scenes", "s.jsonl", "--out", "x"],
                 ["gen-scenes", "s.jsonl", "--c-thre", "0.5"],
                 ["train", "--share-mode", "fullmap"],
                 ["eval", "--steps", "5"],
                 ["eval", "--baseline", "late"],
                 ["eval", "--flags", "ifa,cdqa"]):
        with pytest.raises(SystemExit) as e:
            parse(argv)
        assert e.value.code == 2, argv
    capsys.readouterr()
    assert parse(["gen-scenes", "s.jsonl", "--config", "c.json"]).config == "c.json"
    assert parse(["eval", "--seed", "4"]).seed == 4


def test_scripts_call_only_known_subcommands(capsys):
    calls = _script_subcommands()
    assert calls, "no vf([...]) calls found under scripts/"
    for where, (sub, options) in calls.items():
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args([sub, "--help"])
        usage = capsys.readouterr().out
        assert e.value.code == 0, f"{where}: unknown subcommand {sub!r}"
        for opt in options:
            assert re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", usage), \
                f"{where}: {sub} has no option {opt}"


def test_import_leaves_scipy_optimize_unloaded():
    # the matcher is in-repo: scipy.optimize would add ~27 MB of RSS and
    # ~0.2 s to every process that imports viewfuse
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, viewfuse.cli; "
            "print('viewfuse.decoder' in sys.modules, "
            "'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["True", "False"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap settings are glibc's mallopt options")
def test_import_keeps_freed_heap_under_glibc():
    # no trimming and a fixed mmap threshold (see tensor._keep_freed_heap)
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import viewfuse.eval, viewfuse.tensor; "
            "print(viewfuse.tensor.HEAP_SETTINGS)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "(1, 1)"
