"""Experiment configs, shape resolution, the runner, and the CLI."""

import argparse
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from cantorlab import (
    Circle,
    ConfigError,
    HolderFit,
    OutputCollisionError,
    Repeller,
    Segment,
    SinglePoint,
)
from cantorlab import lab, potential
from cantorlab.cli import _experiment_config, build_parser, main
from cantorlab.lab import (
    _KEY_TYPES,
    EXPERIMENT_NAMES,
    ExperimentConfig,
    parse_experiment_config,
    resolve_shape,
    run_experiment,
)
from cantorlab.shapes import PIECE_CAP

from test_geometry import IFS_TEXT

CONFIG_TEXT = """
# boundary Harnack fit on the collinear set
experiment = bhp
shape = middle-thirds
seed = 5

n_pairs = 4
pole_p = 2+1j
"""


# -- config parsing -----------------------------------------------------------


def test_parse_config_types_and_param_split():
    cfg = parse_experiment_config(CONFIG_TEXT)
    assert cfg.experiment == "bhp"
    assert cfg.shape == "middle-thirds"
    assert cfg.seed == 5
    assert cfg.out is None
    assert cfg.threads == 1
    assert cfg.params == {"n_pairs": 4, "pole_p": complex(2.0, 1.0)}
    assert "samples" not in cfg.params


@pytest.mark.parametrize(
    "experiment,key,value",
    [("regularity", "n_points", "5"), ("regularity", "n_pairs", "7"),
     ("curvature-profile", "pole_p", "2+1j"),
     # the walk keys, on experiments that never walk or never count walks
     ("regularity", "samples", "5"), ("regularity", "stop_tol", "0.5"),
     ("curvature-profile", "samples", "5"), ("lemma-L", "stop_tol", "0.5"),
     ("bhp", "samples", "40000"), ("bhp", "stop_tol", "1e-3")],
)
def test_config_refuses_a_key_its_experiment_does_not_read(tmp_path, capsys,
                                                           experiment, key, value):
    text = f"experiment = {experiment}\nshape = corner4\nseed = 1\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=f"does not read '{key}'"):
        parse_experiment_config(text)
    with pytest.raises(ConfigError, match=f"does not read '{key}'"):
        lab._config_from_keys({"experiment": experiment, "shape": "corner4", "seed": 1,
                               key: _KEY_TYPES[key](value)})
    conf = tmp_path / "unread.conf"
    conf.write_text(text)
    out = tmp_path / "unread"
    assert main(["--out", str(out), "run", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{key}'" in err
    assert not out.exists()


def test_walk_keys_are_read_and_hashed_where_the_experiment_walks():
    with pytest.raises(ConfigError, match="does not read 'samples'"):
        parse_experiment_config("experiment = regularity\nshape = corner4\nseed = 1\n"
                                "kmax = 3\nsamples = 5\nstop_tol = 0.5\n")
    dims = parse_experiment_config("experiment = dimension-gap\nshape = circle\nseed = 1\n"
                                   "stop_tol = 1e-3\n")
    assert dims.params == {"stop_tol": 1e-3} and dims.walk_config().stop_tol == 1e-3
    assert "stop_tol = 0.001\n" in dims.canonical_text()
    sampling = {"measure-scaling", "green-comparability", "cauchy", "dimension-gap"}
    for name, exp in lab._EXPERIMENTS.items():
        cfg = ExperimentConfig(experiment=name, shape="corner4", seed=1)
        walks = name in sampling
        assert ("samples" in exp.params) == walks, name
        assert ("stop_tol" in exp.params) == walks, name
        if walks:
            assert cfg.param("samples") == cfg.walk_config().samples == 100_000, name
        assert ("samples = 100000\n" in cfg.canonical_text()) == walks, name


def test_each_runner_names_exactly_its_table_keys():
    # a key listed but never read would be accepted and hashed for nothing; a
    # key read but not listed could never be set.  walk_config() reads stop_tol,
    # and samples where the row lists it
    params = set(_KEY_TYPES) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    for name, exp in lab._EXPERIMENTS.items():
        source = inspect.getsource(exp.run)
        quoted = set(re.findall(r'"(\w+)"', source))
        if "cfg.walk_config()" in source:
            quoted |= {"stop_tol"} | ({"samples"} & set(exp.params))
        assert quoted & params == set(exp.params), name


def test_param_defaults_come_from_the_experiment_table():
    cfg = ExperimentConfig(experiment="dimension-gap", shape="corner4", seed=1,
                           params={"n_boot": 50})
    assert cfg.param("n_boot") == 50
    assert cfg.param("kmax") == 6
    assert ExperimentConfig(experiment="regularity", shape="corner4", seed=1).param("kmax") == 8


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("experiment = cauchy\nshape = circle\n", "missing required key: seed"),
        ("experiment = cauchy\njust words\n", "line 2: expected 'key = value'"),
        ("experiment = cauchy\nwidget = 3\n", "line 2: unknown key 'widget'"),
        ("experiment = curvature-profile\nn_triples = 9\n",
         "line 2: unknown key 'n_triples'"),
        ("seed = 1\nseed = 2\n", "line 2: duplicate key 'seed'"),
        ("samples = abc\n", "bad value 'abc' for key 'samples' (expected int)"),
    ],
)
def test_parse_config_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_experiment_config(text)
    assert fragment in str(err.value)


def test_config_and_ifs_files_share_one_line_reader():
    text = "# comment\n\n  just words  # trailing\n"
    for parse in (parse_experiment_config, lab.parse_repeller_spec):
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert str(err.value) == "line 3: expected 'key = value', got 'just words  # trailing'"


def test_config_rejects_launch_radius():
    # walks launch on the shape's enclosing circle plus 2 stop_tol; the key is gone
    text = "experiment = cauchy\nshape = circle\nseed = 1\nlaunch_radius = 5.0\n"
    with pytest.raises(ConfigError, match="unknown key 'launch_radius'"):
        parse_experiment_config(text)


def test_unknown_experiment_is_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_experiment_config("experiment = warp\nshape = circle\nseed = 1\n")
    assert len(EXPERIMENT_NAMES) == 8


def test_config_rejects_threads_below_one(tmp_path, capsys):
    with pytest.raises(ConfigError, match="threads must be >= 1"):
        parse_experiment_config(
            "experiment = curvature-profile\nshape = corner4\nseed = 1\nthreads = 0\n"
        )
    out = tmp_path / "t0"
    argv = ["--out", str(out), "--threads", "0", "curvature", "corner4", "--kmax", "2"]
    assert main(argv) == 2
    assert "threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,keys,message",
    [
        (["sample", "corner4", "--samples", "0"], "seed = 1\nsamples = 0", "samples must be >= 1"),
        (["--seed", "-1", "sample", "corner4"], "seed = -1", "seed must be >= 0"),
        (["cauchy", "circle", "--stop-tol", "-1"], "seed = 1\nstop_tol = -1",
         "stop_tol must be positive and finite"),
        (["cauchy", "circle", "--stop-tol", "nan"], "seed = 1\nstop_tol = nan",
         "stop_tol must be positive and finite"),
        (["cauchy", "circle", "--stop-tol", "inf"], "seed = 1\nstop_tol = inf",
         "stop_tol must be positive and finite"),
    ],
    ids=["samples", "seed", "stop_tol-negative", "stop_tol-nan", "stop_tol-inf"],
)
def test_config_rejects_bad_samples_and_seed(tmp_path, capsys, monkeypatch, argv, keys,
                                             message):
    # refused while the config is built: no walk starts
    monkeypatch.setattr(lab, "sample_harmonic_measure", None)
    text = f"experiment = cauchy\nshape = circle\n{keys}\n"
    with pytest.raises(ConfigError, match=message):
        parse_experiment_config(text)
    conf = tmp_path / "bad.conf"
    conf.write_text(text)
    out = tmp_path / "bad"
    for args in (argv, ["run", str(conf)]):
        assert main(["--out", str(out), *args]) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


_COUNT_KEYS = [(name, key) for name, exp in lab._EXPERIMENTS.items()
               for key in exp.params if key.startswith("n_")]


@pytest.mark.parametrize("experiment,key", _COUNT_KEYS, ids=[f"{e}-{k}" for e, k in _COUNT_KEYS])
def test_count_keys_below_one_are_refused_before_any_walk_or_solve(tmp_path, capsys,
                                                                   monkeypatch, experiment, key):
    def called(*args, **kwargs):
        raise AssertionError("a walk or a solve started")

    monkeypatch.setattr(lab, "sample_harmonic_measure", called)
    monkeypatch.setattr(potential, "equilibrium_measure", called)
    out = tmp_path / "count"
    argv = ["--out", str(out), lab._EXPERIMENTS[experiment].command, "corner4",
            "--" + key.replace("_", "-"), "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {key} must be >= 1\n"
    assert not out.exists()


_RANGE_CASES = [
    ("measure-scaling", "r_lo", "0", "r_lo must be > 0, got 0.0"),
    ("measure-scaling", "r_hi", "-1", "r_hi must be finite and above r_lo (0.02), got -1.0"),
    ("measure-scaling", "r_lo", "0.3", "r_hi must be finite and above r_lo (0.3), got 0.25"),
    ("measure-scaling", "r_hi", "inf", "r_hi must be finite and above r_lo (0.02), got inf"),
    ("measure-scaling", "n_radii", "2", "n_radii must be >= 3"),
    ("green-comparability", "depth_lo", "0", "depth_lo must be > 0, got 0.0"),
    ("green-comparability", "depth_hi", "0.005",
     "depth_hi must be finite and above depth_lo (0.01), got 0.005"),
    ("green-comparability", "depth_hi", "0.05",
     "depth_hi must be at least 10 * depth_lo, got depth_lo 0.01 and depth_hi 0.05"),
]


@pytest.mark.parametrize("experiment,key,value,message", _RANGE_CASES,
                         ids=[f"{e}-{k}-{v}" for e, k, v, _ in _RANGE_CASES])
def test_range_keys_are_refused_before_any_walk(tmp_path, capsys, monkeypatch, experiment,
                                                key, value, message):
    """Ball radii, radius counts and depth bands are refused while the config
    is built, naming the key, where they once failed only after the walks."""
    def called(*args, **kwargs):
        raise AssertionError("a walk started")

    monkeypatch.setattr(lab, "sample_harmonic_measure", called)
    text = f"experiment = {experiment}\nshape = corner4\nseed = 1\n{key} = {value}\n"
    with pytest.raises(ConfigError) as err:
        parse_experiment_config(text)
    assert str(err.value) == message
    out = tmp_path / "range"
    argv = ["--out", str(out), lab._EXPERIMENTS[experiment].command, "corner4",
            "--" + key.replace("_", "-"), value]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["regularity", "corner4", "--kmax", "0"], "kmax must be >= 1"),
        (["regularity", "corner4", "--a", "0.5"], "scale base a must exceed 1"),
        (["lemma-l", "middle-thirds", "--delta", "2"], "delta must lie in (0, 1)"),
        (["build", "corner4", "--depth", "-1"], "generation must be >= 0"),
        # the exact shapes refuse a negative depth with the repeller's message
        (["build", "circle", "--depth", "-1"], "generation must be >= 0"),
        (["build", "segment", "--depth", "-1"], "generation must be >= 0"),
        # the piece cap: 2^21 pieces, refused before any is built, and 2^21
        # atoms at stop_tol 2e-6, refused before any walk
        (["build", "circle", "--depth", "21"], f"cap {PIECE_CAP}"),
        (["green", "circle", "--stop-tol", "2e-6", "--samples", "100"], f"cap {PIECE_CAP}"),
        (["green", "circle", "--stop-tol", "1e-320", "--samples", "100"], f"cap {PIECE_CAP}"),
    ],
    ids=["kmax", "a", "delta", "depth", "depth-circle", "depth-segment", "build-cap",
         "stop_tol-cap", "stop_tol-subnormal"],
)
def test_cli_reports_out_of_range_keys_without_writing(tmp_path, capsys, argv, message):
    out = tmp_path / "range"
    assert main(["--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_regularity_past_the_piece_cap_renews_without_building(tmp_path, capsys):
    """corner4 at kmax 9 covers its last level with generation 11, more than
    PIECE_CAP pieces, but renewal clusters only generations 2 and 3: the run
    is accepted, and past the separation scale each level has four times the
    components of the one before."""
    out = tmp_path / "reg"
    assert main(["--out", str(out), "regularity", "corner4", "--kmax", "9"]) == 0
    assert "-> PASS" in capsys.readouterr().out
    rows = (out / "regularity.csv").read_text().splitlines()[2:]
    counts = [int(row.split(",")[1]) for row in rows]
    assert len(counts) == 10 and counts[:2] == [1, 1]
    assert all(m1 == 4 * m0 for m0, m1 in zip(counts[1:], counts[2:]))


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma-l", "middle-thirds", "--a", "inf"],
        ["regularity", "corner4", "--a", "nan"],
        ["regularity", "corner4", "--a", "1e300", "--kmax", "2"],
    ],
    ids=["lemma-l-inf", "regularity-nan", "regularity-underflow"],
)
def test_cli_refuses_a_scale_base_in_one_line(tmp_path, capsys, argv):
    out = tmp_path / "scale"
    assert main(["--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scale base a must exceed 1") and err.count("\n") == 1
    assert not out.exists()


_CORNER_BRANCHES = "branch = 0.25,0,0,0\nbranch = 0.25,0,0.75,0\nbranch = 0.25,0,0,0.75\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (_CORNER_BRANCHES + "branch = 0.25,0,0.75,0.75\nroot = 0.5,0.5,nan\n", "root radius"),
        (_CORNER_BRANCHES + "branch = 0.25,0,nan,0.75\nroot = 0.5,0.5,1\n", "translation"),
        (_CORNER_BRANCHES + "branch = 0.25,0,0.75,0.75\nroot = 0.5,inf,1\n", "root center"),
        (_CORNER_BRANCHES + "branch = 0.25,inf,0.75,0.75\nroot = 0.5,0.5,1\n", "rotation"),
    ],
    ids=["root-radius-nan", "translation-nan", "root-center-inf", "rotation-inf"],
)
def test_non_finite_ifs_numbers_are_refused_in_one_line(tmp_path, capsys, text, message):
    # a NaN gap fails no < test: the translation file built 16 atoms and
    # graded regularity with "diam <= nan*a^-k"
    path = tmp_path / "bad.ifs"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        resolve_shape(str(path))
    for argv in (["build", str(path), "--depth", "2"],
                 ["--out", str(tmp_path / "out"), "regularity", str(path), "--kmax", "3"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


#: sha256 of regularity.csv and lemma_l.csv at seed 1: the covering diameters
#: and the renewal shells, bit for bit
TABLE_SHA256 = [
    ("regularity", "corner4", {}, "regularity.csv",
     "12191d2d61a9327ff393dc9327d75a2723c3afbc8952bf2bcd0cdb957b4afb9d"),
    ("regularity", "middle-thirds", {}, "regularity.csv",
     "5b760e31cd2e1030c26bcff6e0ae560cc687298fd2a298f2488d51ce18278c1f"),
    # a = 2.5 is no power of 1/s, so the renewal levels divide by the scales
    ("regularity", "middle-alpha:0.2", {"a": 2.5}, "regularity.csv",
     "58163c959561936c54841d9a30c6e41bbafaa3012c5552ad80c520aaf0bdc7c9"),
    ("lemma-L", "middle-thirds", {"kmax": 7}, "lemma_l.csv",
     "67eaf326268e37d6cfecb6588911a81102d7be24d59dbd9ef85a4a11f0cf9923"),
    ("lemma-L", "corner4", {"delta": 0.5}, "lemma_l.csv",
     "2e88ab1470c91080b9f0caf0d382f34dacb75300f8c762e8479046c2af50916a"),
    ("lemma-L", "circle", {"delta": 0.5, "kmax": 4}, "lemma_l.csv",
     "e0e02c7d8bf4ef32232d3a27cd1f3ed871359fc9710750b302a69581e4022e50"),
    # the shells' divide path: child radii r / s_i, which clustering does not see
    ("lemma-L", "middle-alpha:0.2", {"a": 2.5, "kmax": 6}, "lemma_l.csv",
     "234324cae483145ac895ba1fe098615a9ca997ff3b5c4e6b12706c187ef31889"),
]


@pytest.mark.parametrize("experiment, shape, params, name, digest", TABLE_SHA256,
                         ids=[f"{e}-{s}" for e, s, *_ in TABLE_SHA256])
def test_covering_and_shell_tables_keep_their_bytes(tmp_path, experiment, shape, params,
                                                    name, digest):
    out = tmp_path / "table"
    run_experiment(ExperimentConfig(experiment=experiment, shape=shape, seed=1, out=str(out),
                                    params=params))
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_config_hash_ignores_threads_and_out():
    a = ExperimentConfig(experiment="cauchy", shape="circle", seed=3,
                         threads=1, out="x")
    b = ExperimentConfig(experiment="cauchy", shape="circle", seed=3,
                         threads=8, out="y")
    c = ExperimentConfig(experiment="cauchy", shape="circle", seed=4)
    assert a.canonical_text() == b.canonical_text()
    assert a.canonical_text() != c.canonical_text()
    assert "threads" not in a.canonical_text()


#: (experiment, config lines beyond experiment/shape/seed, canonical text):
#: each experiment at its defaults, and with the walk keys set that it reads
_PINNED_CANONICAL = [
    ("regularity", "",
     "experiment = 'regularity'\nseed = 1\nshape = 'corner4'\n"),
    ("measure-scaling", "",
     "experiment = 'measure-scaling'\nsamples = 100000\nseed = 1\nshape = 'corner4'\n"),
    ("measure-scaling", "samples = 500\nstop_tol = 1e-3",
     "experiment = 'measure-scaling'\nsamples = 500\nseed = 1\nshape = 'corner4'\n"
     "stop_tol = 0.001\n"),
    ("green-comparability", "",
     "experiment = 'green-comparability'\nsamples = 100000\nseed = 1\nshape = 'corner4'\n"),
    ("green-comparability", "samples = 500\nstop_tol = 1e-3",
     "experiment = 'green-comparability'\nsamples = 500\nseed = 1\nshape = 'corner4'\n"
     "stop_tol = 0.001\n"),
    ("bhp", "",
     "experiment = 'bhp'\nseed = 1\nshape = 'corner4'\n"),
    ("curvature-profile", "",
     "experiment = 'curvature-profile'\nseed = 1\nshape = 'corner4'\n"),
    ("cauchy", "",
     "experiment = 'cauchy'\nsamples = 100000\nseed = 1\nshape = 'corner4'\n"),
    ("cauchy", "samples = 500\nstop_tol = 1e-3",
     "experiment = 'cauchy'\nsamples = 500\nseed = 1\nshape = 'corner4'\nstop_tol = 0.001\n"),
    ("dimension-gap", "",
     "experiment = 'dimension-gap'\nsamples = 100000\nseed = 1\nshape = 'corner4'\n"),
    ("dimension-gap", "samples = 500\nstop_tol = 1e-3",
     "experiment = 'dimension-gap'\nsamples = 500\nseed = 1\nshape = 'corner4'\n"
     "stop_tol = 0.001\n"),
    ("lemma-L", "",
     "experiment = 'lemma-L'\nseed = 1\nshape = 'corner4'\n"),
]


def test_canonical_text_is_pinned_for_every_experiment():
    # the config hash of a run is the sha256 of this text: a change to it
    # breaks the link between new and recorded manifests
    assert {experiment for experiment, _, _ in _PINNED_CANONICAL} == set(EXPERIMENT_NAMES)
    for experiment, lines, text in _PINNED_CANONICAL:
        cfg = parse_experiment_config(
            f"experiment = {experiment}\nshape = corner4\nseed = 1\n{lines}\n")
        assert cfg.canonical_text() == text, (experiment, lines)


# -- shape resolution --------------------------------------------------------------


def test_resolve_reference_shapes():
    assert isinstance(resolve_shape("circle"), Circle)
    assert isinstance(resolve_shape("segment"), Segment)
    assert isinstance(resolve_shape("point"), SinglePoint)


def test_resolve_presets():
    assert resolve_shape("middle-thirds").fan == 2
    assert resolve_shape("corner4").fan == 4
    assert resolve_shape("middle-alpha:0.25").fan == 2


def test_resolve_ifs_file(tmp_path):
    path = tmp_path / "thirds.ifs"
    path.write_text(IFS_TEXT)
    rep = resolve_shape(str(path))
    assert isinstance(rep, Repeller)
    assert rep.name == "thirds.ifs"
    assert rep.fan == 2


def test_resolve_unknown_shape():
    with pytest.raises(ConfigError, match="neither a preset"):
        resolve_shape("dodecahedron")


# -- runner ---------------------------------------------------------------------------


def test_run_requires_output_directory():
    cfg = ExperimentConfig(experiment="cauchy", shape="circle", seed=1)
    with pytest.raises(ConfigError, match="output directory"):
        run_experiment(cfg)


def test_cauchy_doubling_shares_no_walk_with_the_first_run(tmp_path, monkeypatch):
    # on shared streams the 2n walks would contain the n walks, so every atom
    # count of the doubled run would be at least the first run's
    measures, real = [], lab.sample_harmonic_measure

    def sample(*args, **kw):
        measures.append(real(*args, **kw))
        return measures[-1]

    monkeypatch.setattr(lab, "sample_harmonic_measure", sample)
    run_experiment(ExperimentConfig(experiment="cauchy", shape="circle", seed=1,
                                    out=str(tmp_path), params={"samples": 4096, "n_eval": 3}))
    first, doubled = measures
    counts = [dict(zip(map(bytes, em.codes), np.rint(em.weights * em.samples)))
              for em in (first, doubled)]
    assert doubled.samples == 2 * first.samples
    assert any(n > counts[1].get(code, 0) for code, n in counts[0].items())


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_curvature_run_end_to_end(tmp_path):
    out = tmp_path / "run1"
    cfg = ExperimentConfig(
        experiment="curvature-profile",
        shape="middle-thirds",
        seed=5,
        out=str(out),
        params={"kmax": 4},
    )
    manifest = run_experiment(cfg)
    files = read_tree(out)
    assert set(files) == {*manifest.files, "manifest.json"}
    assert "summary.txt" in manifest.files
    for name, digest in manifest.files.items():
        assert hashlib.sha256(files[name]).hexdigest() == digest
    expected_hash = hashlib.sha256(cfg.canonical_text().encode()).hexdigest()
    assert manifest.config_hash == expected_hash
    summary = files["summary.txt"].decode()
    assert "REFUTING" in summary
    assert files["curvature.csv"].decode().splitlines()[1] == "k,value,triples"
    parsed = json.loads(files["manifest.json"])
    assert parsed["seed"] == 5
    assert parsed["config_hash"] == expected_hash
    assert parsed["wall_clock"] >= 0.0

    with pytest.raises(OutputCollisionError, match="--force"):
        run_experiment(cfg)
    rerun = run_experiment(cfg, force=True)
    again = read_tree(out)
    assert rerun.files == manifest.files
    for name in manifest.files:
        assert again[name] == files[name]


@pytest.mark.parametrize("held", ["manifest.json", "summary.txt"])
def test_used_output_directory_is_refused_before_the_run(tmp_path, monkeypatch, held):
    exp = lab._EXPERIMENTS["curvature-profile"]
    calls = []

    def run(shape, cfg):
        calls.append(cfg)
        return exp.run(shape, cfg)

    monkeypatch.setitem(lab._EXPERIMENTS, "curvature-profile", exp._replace(run=run))
    out = tmp_path / "used"
    out.mkdir()
    (out / held).write_text("old\n")
    cfg = ExperimentConfig(experiment="curvature-profile", shape="corner4", seed=1,
                           out=str(out), params={"kmax": 3})
    with pytest.raises(OutputCollisionError, match=f"{held} \\(pass --force"):
        run_experiment(cfg)
    assert calls == []
    manifest = run_experiment(cfg, force=True)
    assert len(calls) == 1
    assert (out / held).read_text() != "old\n"
    assert set(os.listdir(out)) == {*manifest.files, "manifest.json"}


def test_curvature_profile_on_corners_passes_at_kmax_6(tmp_path):
    # every generation is an exact sum, so the increments after k = 3 (2.998,
    # 3.019, 3.024) stay above half the k = 3 one and grade PASS
    out = tmp_path / "c6"
    run_experiment(ExperimentConfig(experiment="curvature-profile", shape="corner4",
                                    seed=1, out=str(out), params={"kmax": 6}))
    verdict = (out / "summary.txt").read_text().splitlines()[-1]
    assert verdict.endswith("-> PASS (increments positive and non-vanishing)")


@pytest.mark.parametrize(
    "shape, params, first_renewal",
    [
        ("middle-thirds", {"kmax": 7}, 3),
        # refused by the shell cell cap after 6.4 s and 1.9 GB when every
        # shell was a quadrature; shells 2..6 now renew from shell 1
        ("corner4", {"delta": 0.5, "a": 4.0, "kmax": 6}, 2),
    ],
)
def test_lemma_l_rows_past_the_separation_scale_are_renewal_ratios(tmp_path, shape, params,
                                                                   first_renewal):
    out = tmp_path / "lemma"
    run_experiment(ExperimentConfig(experiment="lemma-L", shape=shape, seed=1, out=str(out),
                                    params=params))
    rows = [ln.split(",") for ln in (out / "lemma_l.csv").read_text().splitlines()[2:]]
    assert [int(r[0]) for r in rows] == list(range(params["kmax"] + 1))
    rep = resolve_shape(shape)
    delta = params.get("delta", math.log(2.0) / math.log(3.0))
    power = (1.0 - delta) * (2.0 + delta)
    renewal = rep.fan * rep.max_scale ** (2.0 - power)
    for k, s_k, ratio in rows[first_renewal:]:
        assert float(ratio) == pytest.approx(renewal, rel=1e-12)
    assert float(rows[first_renewal - 1][2]) != pytest.approx(renewal, rel=1e-6)


def test_dimension_run_reports_gap(tmp_path):
    out = tmp_path / "dim"
    cfg = ExperimentConfig(
        experiment="dimension-gap",
        shape="corner4",
        seed=1,
        out=str(out),
        params={"samples": 20_000},
    )
    manifest = run_experiment(cfg)
    summary = (out / "summary.txt").read_text()
    assert "dimension" in summary
    assert any(name.endswith(".csv") for name in manifest.files)


@pytest.mark.parametrize(
    "epsilon,grade", [(1.6, "INCONCLUSIVE"), (1.0, "PASS"), (0.4, "PASS"), (0.0, "REFUTING")]
)
def test_bhp_grades_the_claimed_exponent_range(tmp_path, monkeypatch, epsilon, grade):
    fit = HolderFit(epsilon=epsilon, c=1.0, n_pairs=2,
                    separations=(0.1, 0.2), deviations=(0.01, 0.02))
    monkeypatch.setattr(lab, "bhp_holder_fit", lambda *args, **kwargs: fit)
    out = tmp_path / "bhp"
    run_experiment(ExperimentConfig(experiment="bhp", shape="corner4", seed=3,
                                    out=str(out)))
    verdict = (out / "summary.txt").read_text().splitlines()[-1]
    assert verdict.startswith("BHP: holder exponent eps in (0, 1] -> ")
    assert verdict.endswith(f"-> {grade}")


@pytest.mark.parametrize("shape", ["corner4", "middle-thirds", "circle", "segment"])
def test_bhp_at_its_defaults_runs_on_every_shape(tmp_path, capsys, shape):
    # with 16 pairs, 2.7 per separation bucket, segment, middle-thirds and
    # the circle refused with fewer than 3 populated buckets
    files = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        assert main(["--seed", "3", "--threads", str(threads), "--out", str(out),
                     "bhp", shape]) == 0
        files.append({name: (out / name).read_bytes() for name in ("bhp.csv", "summary.txt")})
    assert files[0] == files[1]
    assert len(files[0]["bhp.csv"].splitlines()) == 2 + 64
    assert "64 pairs" in capsys.readouterr().out


# -- command line -----------------------------------------------------------------------


def test_cli_build_writes_atoms(tmp_path, capsys):
    out = tmp_path / "atoms"
    assert main(["--out", str(out), "build", "corner4", "--depth", "2"]) == 0
    text = (out / "atoms.csv").read_text()
    assert text.splitlines()[1] == "code,x,y,radius"
    assert len(text.splitlines()) == 2 + 16
    captured = capsys.readouterr().out
    assert "similarity dimension 1.000000" in captured
    assert main(["--out", str(out), "build", "corner4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--force" in err
    assert main(["--out", str(out), "--force", "build", "corner4"]) == 0


#: sha256 of atoms.csv for each shape at depth 3, as the build command has
#: always written it
ATOMS_SHA256 = {
    "corner4": "13e5579d974575cb9dc5ee1ab12e4b29456eac58e16398bfa401f2b3029c4edd",
    "circle": "56d663188ffce76c197c61b1174eb081dc71849340137a273aa4ddd9446999f6",
    "segment": "70c9ce1b47f81c0796fc61dca78bf6744b39bd1621110ef15365f1092fec5b22",
    "middle-thirds": "ec220131ae8b8fb1b3b2d23718d140b8208e9721143007b315377caba7655280",
}


@pytest.mark.parametrize("shape", sorted(ATOMS_SHA256))
def test_cli_build_writes_the_csv_only_with_out(tmp_path, capsys, monkeypatch, shape):
    out = tmp_path / "atoms"
    assert main(["--out", str(out), "build", shape, "--depth", "3"]) == 0
    digest = hashlib.sha256((out / "atoms.csv").read_bytes()).hexdigest()
    assert digest == ATOMS_SHA256[shape]
    assert f"(sha256 {digest[:16]})" in capsys.readouterr().out
    # without --out only the summary line is printed, and nothing is written
    bare = tmp_path / "bare"
    bare.mkdir()
    monkeypatch.chdir(bare)
    assert main(["build", shape, "--depth", "3"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1 and "atoms at depth 3" in printed[0]
    assert not any(bare.iterdir())


def test_cli_build_writes_one_point_piece_with_a_full_code(tmp_path):
    """The point's one piece of generation 3 has the code 000 of its word table."""
    out = tmp_path / "point"
    assert main(["--out", str(out), "build", "point", "--depth", "3"]) == 0
    assert (out / "atoms.csv").read_text().splitlines()[2:] == ["000,0.0,0.0,0.0"]


def test_cli_refuses_codes_past_ten_branches(tmp_path, capsys, monkeypatch):
    """With 11 branches one digit per letter would write 1010 for both the
    words 1.0.10 and 10.1.0: build and sample refuse, the sampler unrun."""
    spec = tmp_path / "eleven.ifs"
    spec.write_text("root = 0.5, 0, 0.75\n"
                    + "".join(f"branch = 0.05, 0, {0.095 * k!r}, 0\n" for k in range(11)))
    sampled = []
    monkeypatch.setattr(lab, "sample_harmonic_measure", lambda *args: sampled.append(args))
    for argv in (["build", str(spec), "--depth", "3"], ["sample", str(spec), "--samples", "100"]):
        out = tmp_path / argv[0]
        assert main(["--out", str(out), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error:") and "at most 10 branches, got 11" in captured.err
        assert not out.exists()
    assert sampled == []


def test_csv_cells_are_plain_numbers(tmp_path):
    runs = {"cauchy": {"n_eval": 3}, "measure-scaling": {"n_centers": 4, "r_lo": 0.1}}
    for experiment, params in runs.items():
        run_experiment(ExperimentConfig(experiment=experiment, shape="corner4", seed=1,
                                        out=str(tmp_path / experiment),
                                        params={"samples": 5_000, **params}))
    assert main(["--out", str(tmp_path / "build"), "build", "corner4", "--depth", "2"]) == 0
    for path in ("cauchy/cauchy.csv", "measure-scaling/scaling.csv", "build/atoms.csv"):
        rows = (tmp_path / path).read_text().splitlines()[2:]
        assert rows
        for row in rows:
            for cell in row.split(","):
                assert math.isfinite(float(cell)), (path, row)


def test_cli_run_subcommand_and_overrides(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "experiment = curvature-profile\nshape = middle-thirds\n"
        f"seed = 5\nkmax = 3\nout = {tmp_path / 'ignored'}\n"
    )
    out = tmp_path / "cli-run"
    assert main(["--out", str(out), "run", str(conf)]) == 0
    assert (out / "manifest.json").exists()
    assert not (tmp_path / "ignored").exists()
    stdout = capsys.readouterr().out
    assert "wrote 3 files" in stdout
    assert "config " in stdout


def test_cli_default_valued_flags_override_config(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "experiment = curvature-profile\nshape = middle-thirds\n"
        "seed = 5\nthreads = 2\nkmax = 3\n"
    )
    out = tmp_path / "seed0"
    assert main(["--out", str(out), "--seed", "0", "--threads", "1", "run", str(conf)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 0


def test_cli_surfaces_lab_errors(tmp_path, capsys):
    assert main(["curvature", "nosuchshape"]) == 2
    assert "no output directory" in capsys.readouterr().err
    assert main(["--out", str(tmp_path / "x"), "curvature", "nosuchshape"]) == 2
    assert "neither a preset" in capsys.readouterr().err


def test_cli_experiment_subcommand(tmp_path, capsys):
    out = tmp_path / "lemma"
    code = main(
        ["--out", str(out), "lemma-l", "middle-thirds", "--kmax", "6", "--a", "3.0"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "lemma-L" in stdout
    table = (out / "lemma_l.csv").read_text()
    assert table.splitlines()[1] == "k,s_k,ratio"



#: a value of each key type to pass on the command line
_FLAG_VALUES = {int: "3", float: "0.5", complex: "2+1j", str: "x"}
# lower ends of ranges, whose defaulted upper ends 0.25 and 0.1 refuse 0.5
_FLAG_VALUES_BY_KEY = {"r_lo": "0.125", "depth_lo": "0.0078125"}


def test_cli_help_shows_the_table_defaults():
    parser = build_parser()
    (subs,) = [a.choices for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    lemma = {a.dest: a.help for a in subs["lemma-l"]._actions}
    assert lemma["kmax"] == "default 6" and lemma["rtol"] == "default 0.02"
    assert lemma["delta"] == lemma["a"] == "default: from the shape"
    sample = {a.dest: a.help for a in subs["sample"]._actions}
    assert sample["samples"] == "default 100000"
    assert sample["r_hi"] == "default 0.25"
    assert "default 64" in subs["bhp"].format_help()


def test_cli_flags_follow_the_config_key_table():
    parser = build_parser()
    (subs,) = [a.choices for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    assert set(subs) == {"build", "run", "sample", "green", "curvature", "cauchy",
                         "dimension", "regularity", "lemma-l", "bhp"}
    core = {f.name for f in dataclasses.fields(ExperimentConfig)}
    global_flags = [a for a in parser._actions
                    if a.option_strings and a.dest not in ("help", "force")]
    experiments = set()
    for command, sub in subs.items():
        if command in ("build", "run"):
            continue
        flags = [a for a in sub._actions if a.option_strings and a.dest != "help"]
        assert flags, command
        experiment = sub.get_default("experiment")
        assert {a.dest for a in flags} == set(lab._EXPERIMENTS[experiment].params), command
        for action in global_flags + flags:
            key = action.dest
            assert key in _KEY_TYPES, (command, key)
            key_type = _KEY_TYPES[key]
            assert (action.type or str) is key_type, (command, key)
            raw = _FLAG_VALUES_BY_KEY.get(key, _FLAG_VALUES[key_type])
            flag = [action.option_strings[0], raw]
            argv = ([*flag, command, "corner4"] if action in global_flags
                    else [command, "corner4", *flag])
            cfg = _experiment_config(parser.parse_args(argv))
            got = getattr(cfg, key) if key in core else cfg.params[key]
            assert type(got) is key_type and got == key_type(raw), (command, key)
            experiments.add(cfg.experiment)
    assert experiments == set(EXPERIMENT_NAMES)


_NO_SCIPY_RUN = """
import sys
import cantorlab
print(sorted(m for m in sys.modules if m in ("concurrent.futures", "logging")))
from cantorlab.lab import ExperimentConfig, run_experiment
for name, shape, params in (("cauchy", "corner4", {"samples": 4000}),
                            ("regularity", "corner4", {"kmax": 4}),
                            ("measure-scaling", "corner4", {"samples": 40000}),
                            ("green-comparability", "circle", {"samples": 20000}),
                            ("bhp", "corner4", {})):
    run_experiment(ExperimentConfig(experiment=name, shape=shape, seed=1, threads=2,
                                    out=f"{sys.argv[1]}/{name}", params=params))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_import_and_preset_runs_load_no_scipy(tmp_path):
    """The import, a cauchy, a regularity, a measure-scaling and a bhp run on
    corner4 and a green-comparability run on the circle load no scipy module
    and not numpy.ma, in a fresh interpreter: only fields of rotated maps need
    scipy, the equilibrium solve is numpy's, and order statistics go through
    potential.quantile, not np.quantile.  The import loads neither concurrent.futures nor logging:
    the sampler starts plain threads.  measure-scaling walks 40k: at 20k the
    smallest balls of seeds 1-12 hold 42-73 atoms and 5 seeds, seed 1 among
    them, fall under the 50-atom guard; at 40k they hold 69-103."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "[]"
    assert run.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "cauchy" / "cauchy.csv").exists()
    assert (tmp_path / "regularity" / "regularity.csv").exists()
    assert (tmp_path / "measure-scaling" / "scaling.csv").exists()
    assert (tmp_path / "green-comparability" / "summary.txt").exists()
    assert (tmp_path / "bhp" / "bhp.csv").exists()


def _load_tracer():
    """perfbench's span recorder, loaded by file path (perfbench is no package)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_records_the_layer_spans_and_changes_no_output(tmp_path):
    """The benchmark's traced pass sets field on each resolved shape with
    object.__setattr__, reassigns each field's query and rebinds the layer
    entry points lab calls.  A repeller run that builds a field and a sampled
    run on an exact shape must leave their spans and write the files an
    untraced run writes: a slotted shape, a field property or a renamed hook
    would break this."""
    import cantorlab

    tracer = _load_tracer()
    runs = (("lemma-L", "middle-thirds", {"kmax": 2}),
            ("green-comparability", "circle", {"samples": 4000}))

    def configs(root):
        return [ExperimentConfig(experiment=name, shape=shape, seed=1, threads=2,
                                 out=str(root / name), params=params)
                for name, shape, params in runs]

    recorder = tracer.Tracer()
    with recorder.installed(cantorlab) as traced_run:
        for cfg in configs(tmp_path / "traced"):
            traced_run(cfg)
    for cfg in configs(tmp_path / "plain"):
        run_experiment(cfg)
    assert lab.resolve_shape is resolve_shape
    work = {}
    for span in recorder.spans:
        work[span[tracer.NAME]] = work.get(span[tracer.NAME], 0) + span[tracer.COUNT]
    for layer in ("geometry", "shapes"):
        assert work[f"{layer}.field_build"] > 0 and work[f"{layer}.field_query"] > 0, layer
    assert work["potential.sample_harmonic_measure"] == 4000
    for name, _, _ in runs:
        traced, plain = read_tree(tmp_path / "traced" / name), read_tree(tmp_path / "plain" / name)
        assert set(traced) == set(plain)
        for file in plain:
            if file == "manifest.json":
                manifests = [json.loads(t[file]) for t in (traced, plain)]
                for m in manifests:
                    del m["wall_clock"]
                assert manifests[0] == manifests[1]
            else:
                assert traced[file] == plain[file], (name, file)
