"""Experiment configs, shape resolution, the runner, and the CLI."""

import hashlib
import json
import os

import pytest

from cantorlab import (
    Circle,
    ConfigError,
    OutputCollisionError,
    Repeller,
    Segment,
    SinglePoint,
)
from cantorlab.cli import main
from cantorlab.lab import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    parse_experiment_config,
    resolve_shape,
    run_experiment,
)

from test_geometry import IFS_TEXT

CONFIG_TEXT = """
# curvature growth on the collinear set
experiment = curvature-profile
shape = middle-thirds
seed = 5

samples = 40000
kmax = 4
stop_tol = 1e-3
pole_p = 2+1j
"""


# -- config parsing -----------------------------------------------------------


def test_parse_config_types_and_param_split():
    cfg = parse_experiment_config(CONFIG_TEXT)
    assert cfg.experiment == "curvature-profile"
    assert cfg.shape == "middle-thirds"
    assert cfg.seed == 5
    assert cfg.samples == 40000
    assert cfg.stop_tol == 1e-3
    assert cfg.out is None
    assert cfg.threads == 1
    assert cfg.params == {"kmax": 4, "pole_p": complex(2.0, 1.0)}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("experiment = cauchy\nshape = circle\n", "missing required key: seed"),
        ("experiment = cauchy\njust words\n", "line 2: expected 'key = value'"),
        ("experiment = cauchy\nwidget = 3\n", "line 2: unknown key 'widget'"),
        ("seed = 1\nseed = 2\n", "line 2: duplicate key 'seed'"),
        ("samples = abc\n", "bad value 'abc' for key 'samples' (expected int)"),
    ],
)
def test_parse_config_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_experiment_config(text)
    assert fragment in str(err.value)


def test_unknown_experiment_is_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_experiment_config("experiment = warp\nshape = circle\nseed = 1\n")
    assert len(EXPERIMENT_NAMES) == 8


def test_config_hash_ignores_threads_and_out():
    a = ExperimentConfig(experiment="cauchy", shape="circle", seed=3,
                         threads=1, out="x")
    b = ExperimentConfig(experiment="cauchy", shape="circle", seed=3,
                         threads=8, out="y")
    c = ExperimentConfig(experiment="cauchy", shape="circle", seed=4)
    assert a.canonical_text() == b.canonical_text()
    assert a.canonical_text() != c.canonical_text()
    assert "threads" not in a.canonical_text()


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


def test_dimension_run_reports_gap(tmp_path):
    out = tmp_path / "dim"
    cfg = ExperimentConfig(
        experiment="dimension-gap",
        shape="corner4",
        seed=1,
        samples=20_000,
        out=str(out),
    )
    manifest = run_experiment(cfg)
    summary = (out / "summary.txt").read_text()
    assert "dimension" in summary
    assert any(name.endswith(".csv") for name in manifest.files)


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
