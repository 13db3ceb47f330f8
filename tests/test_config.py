import re
from pathlib import Path

import numpy as np
import pytest

from textloop.cli import main
from textloop.config import DEFAULTS, ConfigError, PipelineConfig, load_config
from textloop.loop_closure import DetectorParams


def test_defaults_load_without_file():
    config = load_config(None, environ={})
    assert config["detect"]["s_min"] == 10.0
    assert config["icp"]["min_fitness"] == 0.6
    assert config["graph"]["huber_delta"] is None
    params = config.detector_params()
    assert params == DetectorParams()


def test_file_values_override_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[detect]\ns_min = 12.5\n\n[icp]\nmin_fitness = 0.7\n")
    config = load_config(str(path), environ={})
    params = config.detector_params()
    assert params.s_min == 12.5
    assert params.icp.min_fitness == 0.7
    # untouched keys keep their defaults
    assert params.cooldown_frames == DEFAULTS["detect"]["cooldown_frames"]


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        PipelineConfig({"detected": {"s_min": 1.0}})


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[detect]\nsmin = 1.0\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(str(path), environ={})


def test_type_mismatches_rejected():
    with pytest.raises(ConfigError, match="expects a number"):
        PipelineConfig({"detect": {"s_min": "plenty"}})
    with pytest.raises(ConfigError, match="expects an integer"):
        PipelineConfig({"detect": {"cooldown_frames": 2.5}})
    with pytest.raises(ConfigError, match="expects a number"):
        PipelineConfig({"detect": {"max_offset": True}})


def test_integer_widens_to_float():
    config = PipelineConfig({"detect": {"s_min": 12}})
    assert config["detect"]["s_min"] == 12.0
    assert isinstance(config["detect"]["s_min"], float)


def test_list_length_enforced():
    with pytest.raises(ConfigError, match="list of 9"):
        PipelineConfig({"rig": {"rotation": [1.0, 0.0, 0.0]}})


def test_env_overrides_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[detect]\ns_min = 12.5\n")
    env = {"TEXTLOOP_DETECT__S_MIN": "15", "TEXTLOOP_GRAPH__HUBER_DELTA": "0.5", "HOME": "/root"}
    config = load_config(str(path), environ=env)
    assert config["detect"]["s_min"] == 15.0
    assert config["graph"]["huber_delta"] == 0.5


def test_missing_file_is_an_error():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.ini", environ={})


def test_pattern_survives_ini_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[detect]\nid_pattern = [A-Z]\\d-P\\d{3}\n")
    config = load_config(str(path), environ={})
    assert config["detect"]["id_pattern"] == r"[A-Z]\d-P\d{3}"
    assert config.extraction_params().id_pattern == r"[A-Z]\d-P\d{3}"


def test_noise_model_built_from_sim_section():
    config = PipelineConfig(
        {"sim": {"odom_sigma_t": 0.005, "odom_sigma_r": 0.001, "detect_prob": 0.8}}
    )
    noise = config.noise_model()
    np.testing.assert_allclose(noise.odom_sigma, [0.005] * 3 + [0.001] * 3)
    assert noise.detect_prob == 0.8
    assert noise.max_range == 8.0


def test_readme_table_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {}
    for section, keys in re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", readme, re.MULTILINE):
        names = re.findall(r"`([^`]*)`", keys)
        documented[section] = sorted(n.strip() for name in names for n in name.split(","))
    assert documented == {section: sorted(keys) for section, keys in DEFAULTS.items()}


@pytest.mark.parametrize(
    "text, detail",
    [
        ("[detect\ns_min = 12.5\n", "line 1: '[detect' is not under a [section] header"),
        ("s_min = 12.5\n", "line 1: 's_min = 12.5' is not under a [section] header"),
        ("[detect]\ns_min = 1\ns_min = 2\n", "line 3: key 's_min' repeats in section [detect]"),
        ("[detect]\ns_min = 1\n[detect]\nwindow = 1\n", "line 3: section [detect] repeats"),
        ("[detect]\ns_min = 1\nwindow\n", "line 3: cannot parse 'window\\n'"),
    ],
    ids=["unclosed-header", "no-header", "repeated-key", "repeated-section", "no-value"],
)
def test_malformed_ini_exits_2_with_one_error_line(text, detail, tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}, {detail}")):
        load_config(str(path), environ={})
    commands = [
        ["simulate", "--out", str(tmp_path / "run")],
        ["detect", "--log", str(tmp_path / "log.jsonl"), "--out", str(tmp_path / "loops")],
    ]
    for argv in commands:
        assert main(argv + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}, {detail}\n"


def test_ransac_min_points_below_three_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"\[ransac\] min_points must be at least 3, got 2"):
        PipelineConfig({"ransac": {"min_points": 2}})
    assert PipelineConfig({"ransac": {"min_points": 3}}).extraction_params().ransac.min_points == 3
    path = tmp_path / "run.ini"
    path.write_text("[ransac]\nmin_points = 0\n")
    argv = ["detect", "--log", str(tmp_path / "log.jsonl"), "--out", str(tmp_path / "loops")]
    assert main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: [ransac] min_points must be at least 3, got 0\n"


@pytest.mark.parametrize("rate", [30, 20, 0, -10])
def test_sim_rate_outside_frame_interval_exits_2(rate, tmp_path, capsys):
    # at 20 Hz an image 0.05 s after its frame already lands past the next
    # frame for some frames (test_simulator pins that), so 20 is rejected too
    message = (
        "[sim] rate must lie strictly between 0 and 20 Hz, so that each image, "
        f"0.05 s after its frame, comes before the next; got {float(rate)}"
    )
    with pytest.raises(ConfigError, match=re.escape(message)):
        PipelineConfig({"sim": {"rate": rate}})
    path = tmp_path / "run.ini"
    path.write_text(f"[sim]\nrate = {rate}\n")
    assert main(["simulate", "--out", str(tmp_path / "run"), "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("detect_prob", "2", "[sim] detect_prob must lie in [0, 1], got 2.0"),
        ("detect_prob", "-0.5", "[sim] detect_prob must lie in [0, 1], got -0.5"),
        ("misread_prob", "1.5", "[sim] misread_prob must lie in [0, 1], got 1.5"),
        ("misread_prob", "NaN", "[sim] misread_prob must lie in [0, 1], got nan"),
        ("odom_sigma_t", "-1", "[sim] odom_sigma_t must be non-negative, got -1.0"),
        ("odom_sigma_r", "-0.01", "[sim] odom_sigma_r must be non-negative, got -0.01"),
        ("bbox_jitter", "-2", "[sim] bbox_jitter must be non-negative, got -2.0"),
        ("cloud_sigma", "NaN", "[sim] cloud_sigma must be non-negative, got nan"),
        ("max_range", "NaN", "[sim] max_range must be non-negative, got nan"),
        ("max_range", "-1", "[sim] max_range must be non-negative, got -1.0"),
        ("max_incidence", "NaN", "[sim] max_incidence must be non-negative, got nan"),
        ("max_incidence", "-0.1", "[sim] max_incidence must be non-negative, got -0.1"),
        ("rate", "null", "[sim] rate expects a number, got None"),
        ("detect_prob", "null", "[sim] detect_prob expects a number, got None"),
        ("laps", "0", "[sim] laps must be at least 1, got 0"),
        ("laps", "-1", "[sim] laps must be at least 1, got -1"),
        ("seed", "-1", "[sim] seed must be non-negative, got -1"),
    ],
)
def test_sim_noise_outside_its_range_exits_2(key, value, message, tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(f"[sim]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path), environ={})
    commands = [
        ["simulate", "--out", str(tmp_path / "run")],
        ["detect", "--log", str(tmp_path / "log.jsonl"), "--out", str(tmp_path / "loops")],
    ]
    for argv in commands:
        assert main(argv + ["--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_sim_rate_just_below_twenty_hz_exits_2_when_a_stamp_leaves_its_interval(
    tmp_path, capsys
):
    # passes PipelineConfig's bound, but on a 1-lap corridor the rounding of
    # k / rate + 0.05 puts one image stamp past its next frame
    rate = float(np.nextafter(20.0, 0.0))
    path = tmp_path / "run.ini"
    path.write_text(f"[sim]\nscenario = corridor\nlaps = 1\nrate = {rate!r}\n")
    argv = ["simulate", "--out", str(tmp_path / "run"), "--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: [sim] rate {rate!r} puts an image")
    assert "interpolation factor 1.0000000000000022 outside [0, 1]" in err


def test_sim_rate_below_twenty_hz_accepted():
    assert PipelineConfig({"sim": {"rate": 19.5}})["sim"]["rate"] == 19.5


@pytest.mark.parametrize(
    "section, key, value, detail",
    [
        ("edges", "odom_sigma_t", "0", "must be positive and finite, got 0.0"),
        ("edges", "odom_sigma_r", "-0.01", "must be positive and finite, got -0.01"),
        ("edges", "loop_sigma_t", "NaN", "must be positive and finite, got nan"),
        ("edges", "loop_sigma_r", "Infinity", "must be positive and finite, got inf"),
        ("edges", "unrefined_scale", "0", "must be positive and finite, got 0.0"),
        ("graph", "huber_delta", "x", "expects null or a number, got 'x'"),
        ("graph", "huber_delta", "true", "expects null or a number, got True"),
        ("graph", "huber_delta", "0", "must be null or positive and finite, got 0.0"),
        ("graph", "huber_delta", "-1.5", "must be null or positive and finite, got -1.5"),
        ("graph", "huber_delta", "NaN", "must be null or positive and finite, got nan"),
    ],
)
def test_pose_graph_weights_outside_their_range_exit_2(
    section, key, value, detail, tmp_path, capsys
):
    # before, odom_sigma_t = 0 divided by zero and huber_delta = "x" failed
    # on a str product inside optimize, each with a traceback and exit 1
    message = f"[{section}] {key} {detail}"
    path = tmp_path / "run.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path), environ={})
    commands = [
        ["detect", "--log", str(tmp_path / "log.jsonl"), "--out", str(tmp_path / "loops")],
        ["optimize", "--log", str(tmp_path / "log.jsonl"), "--loops", str(tmp_path / "loops"),
         "--out", str(tmp_path / "traj.jsonl")],
    ]
    for argv in commands:
        assert main(argv + ["--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "key, value, detail",
    [
        ("tolerance", "0", "must be positive and finite, got 0.0"),
        ("tolerance", "-1e-6", "must be positive and finite, got -1e-06"),
        ("tolerance", "NaN", "must be positive and finite, got nan"),
        ("tolerance", "Infinity", "must be positive and finite, got inf"),
        ("max_correspondence", "0", "must be positive and finite, got 0.0"),
        ("max_correspondence", "-0.5", "must be positive and finite, got -0.5"),
        ("max_correspondence", "NaN", "must be positive and finite, got nan"),
        ("max_correspondence", "Infinity", "must be positive and finite, got inf"),
        ("min_fitness", "2", "must lie in [0, 1], got 2.0"),
        ("min_fitness", "-0.1", "must lie in [0, 1], got -0.1"),
        ("min_fitness", "NaN", "must lie in [0, 1], got nan"),
        ("max_rms", "-0.15", "must be non-negative, got -0.15"),
        ("max_rms", "NaN", "must be non-negative, got nan"),
        ("max_iterations", "0", "must be at least 1, got 0"),
        ("max_iterations", "-3", "must be at least 1, got -3"),
    ],
)
def test_icp_values_outside_their_range_exit_2(key, value, detail, tmp_path, capsys):
    # before, tolerance = 0, max_correspondence = NaN and min_fitness = 2 each
    # made detect exit 0 with no constraints
    message = f"[icp] {key} {detail}"
    path = tmp_path / "run.ini"
    path.write_text(f"[icp]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path), environ={})
    argv = ["detect", "--log", str(tmp_path / "log.jsonl"), "--out", str(tmp_path / "loops")]
    assert main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "key, value", [("min_fitness", 0), ("min_fitness", 1), ("max_rms", 0), ("max_iterations", 1)]
)
def test_icp_range_ends_accepted(key, value):
    assert PipelineConfig({"icp": {key: value}})["icp"][key] == value


@pytest.mark.parametrize("value, expected", [("null", None), ("2", 2.0), ("0.25", 0.25)])
def test_huber_delta_is_null_or_a_positive_number(value, expected, tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(f"[graph]\nhuber_delta = {value}\n")
    huber = load_config(str(path), environ={})["graph"]["huber_delta"]
    assert huber == expected and type(huber) is type(expected)


@pytest.mark.parametrize(
    "section, key, value, detail",
    [
        ("detect", "s_min", "NaN", "must be non-negative and finite, got nan"),
        ("detect", "s_min", "-1", "must be non-negative and finite, got -1.0"),
        ("detect", "cooldown_frames", "-5", "must be non-negative, got -5"),
        ("detect", "min_consistent", "0", "must be at least 1, got 0"),
        ("detect", "r_merge", "-1", "must be non-negative and finite, got -1.0"),
        ("detect", "d_ltem", "-1", "must be non-negative and finite, got -1.0"),
        ("detect", "d_ltem", "Infinity", "must be non-negative and finite, got inf"),
        ("detect", "window", "-1", "must be non-negative and finite, got -1.0"),
        ("detect", "max_offset", "-1", "must be non-negative and finite, got -1.0"),
        ("detect", "min_confidence", "2", "must lie in [0, 1], got 2.0"),
        ("detect", "min_confidence", "NaN", "must lie in [0, 1], got nan"),
        ("detect", "epsilon", "-1", "must be positive and finite, got -1.0"),
        ("detect", "epsilon", "0", "must be positive and finite, got 0.0"),
        ("detect", "id_pattern", "[A-Z", "'[A-Z' is not a regular expression "
         "(unterminated character set at position 0)"),
        ("ransac", "iterations", "0", "must be at least 1, got 0"),
        ("ransac", "inlier_threshold", "-1", "must be positive and finite, got -1.0"),
        ("ransac", "min_inlier_ratio", "2", "must lie in [0, 1], got 2.0"),
        ("ransac", "seed", "-1", "must be non-negative, got -1"),
        ("graph", "max_iterations", "-1", "must be non-negative, got -1"),
        ("graph", "lambda_init", "NaN", "must be positive and finite, got nan"),
        ("graph", "tolerance", "-1", "must be non-negative, got -1.0"),
        ("eval", "tau", "0", "must be positive and finite, got 0.0"),
        ("eval", "min_travel", "NaN", "must be non-negative and finite, got nan"),
    ],
)
def test_gate_values_outside_their_range_exit_2(section, key, value, detail, tmp_path, capsys):
    # before, s_min = NaN gave detect 73 constraints instead of 31, most of the
    # others exit 0 with other constraints or none, and epsilon = -1 and seed =
    # -1 failed on a log line that was fine
    message = f"[{section}] {key} {detail}"
    path = tmp_path / "run.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path), environ={})
    argv = ["detect", "--log", str(tmp_path / "log.jsonl"), "--out", str(tmp_path / "loops")]
    assert main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("detect", "min_confidence", 0),
        ("detect", "min_confidence", 1),
        ("detect", "window", 0),
        ("detect", "d_ltem", 0),
        ("detect", "r_merge", 0),
        ("detect", "min_consistent", 1),
        ("detect", "s_min", 0),
        ("detect", "max_offset", 0),
        ("detect", "cooldown_frames", 0),
        ("ransac", "iterations", 1),
        ("ransac", "min_inlier_ratio", 0),
        ("ransac", "min_inlier_ratio", 1),
        ("ransac", "seed", 0),
        ("graph", "max_iterations", 0),
        ("graph", "tolerance", 0),
        ("eval", "min_travel", 0),
    ],
)
def test_gate_range_ends_accepted(section, key, value):
    assert PipelineConfig({section: {key: value}})[section][key] == value


_YAW_30 = [0.8660254, -0.5, 0.0, 0.5, 0.8660254, 0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("translation", "[NaN,0,0]",
         "expects a list of 3 finite numbers (expected a finite number, got nan)"),
        ("translation", "[0,0]", "expects a list of 3 finite numbers (expected a list of 3 "
         "numbers, got [0, 0])"),
        ("rotation", "[true,0,0,0,1,0,0,0,1]",
         "expects a list of 9 finite numbers (expected a number, got True)"),
        ("rotation", "[1,0,0,0,1,0,0,0,2]", "must be orthonormal with determinant 1, within "
         "1e-06; got [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]"),
        ("rotation", "[1,0,0,0,1,0,0,0,-1]", "must be orthonormal with determinant 1, within "
         "1e-06; got [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0]"),
        ("fx", "NaN", "must be positive and finite, got nan"),
        ("fy", "0", "must be positive and finite, got 0.0"),
        ("cx", "Infinity", "must be finite, got inf"),
        ("cy", "1" + "0" * 400, f"expects a number (1{'0' * 400} is out of float range)"),
    ],
)
def test_rig_values_outside_their_range_exit_2(key, value, message, tmp_path, capsys, monkeypatch):
    # before, a NaN translation made simulate write a NaN token into the calib
    # record (detect then gave 0 constraints), and a 401-digit integer raised
    # OverflowError with exit 1
    monkeypatch.setenv(f"TEXTLOOP_RIG__{key.upper()}", value)
    with pytest.raises(ConfigError, match=re.escape(f"[rig] {key} {message}")):
        load_config(None)
    assert main(["simulate", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: [rig] {key} {message}\n"
    assert not (tmp_path / "run").exists()


def test_rig_rotation_within_tolerance_accepted():
    config = PipelineConfig({"rig": {"rotation": _YAW_30}})
    np.testing.assert_allclose(config.rig().camera_in_lidar.rotation.ravel(), _YAW_30)


@pytest.mark.parametrize(
    "key, value, sigma",
    [
        ("odom_sigma_t", "1e308", "1e+308"),
        ("odom_sigma_r", "1e-160", "1e-160"),
        ("loop_sigma_t", "1e200", "1e+200"),
        ("unrefined_scale", "1e200", "1e+199"),
    ],
)
def test_edge_weight_out_of_float_range_exits_2(key, value, sigma, tmp_path, capsys):
    # before, a sigma of 1e308 raised OverflowError in optimize (exit 1), and
    # one of 1e-160 gave the edge an infinite weight
    named = "loop_sigma_t" if key == "unrefined_scale" else key
    message = f"[edges] {named} gives the edge weight 1 / {sigma}^2, out of float range"
    path = tmp_path / "run.ini"
    path.write_text(f"[edges]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path), environ={})
    argv = ["optimize", "--log", str(tmp_path / "log.jsonl"), "--loops", str(tmp_path / "loops"),
            "--out", str(tmp_path / "traj.jsonl")]
    assert main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
