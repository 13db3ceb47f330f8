"""Run configuration: INI file -> typed pipeline parameters.

Every key has a default, so all commands run with no config file at all.
Values are parsed as JSON fragments (numbers, lists, null); anything
that fails to parse as JSON is kept as a plain string, which keeps regex
patterns and scenario names quote-free in the file.  Environment variables
named TEXTLOOP_<SECTION>__<KEY> override both defaults and file values.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .association import AssociationParams
from .entities import CalibratedRig, ExtractionParams, RansacParams
from .geometry import CameraIntrinsics, Pose
from .logio import json_array, json_float, json_int
from .loop_closure import DetectorParams, IcpParams
from .simulator import CAMERA_OFFSET, NoiseModel

ENV_PREFIX = "TEXTLOOP_"

DEFAULTS: dict[str, dict] = {
    # forward camera: optical z along the vehicle x, y down; the wide field of
    # view (about 85 degrees horizontal) keeps wall signs in frame near broadside
    "rig": {
        "fx": 350.0,
        "fy": 350.0,
        "cx": 320.0,
        "cy": 240.0,
        "rotation": [0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, -1.0, 0.0],
        "translation": [0.08, 0.0, -0.06],
    },
    "detect": {
        "min_confidence": 0.85,
        "window": 1.0,
        "id_pattern": r"[A-Z]\d-R\d{2}",
        "epsilon": 0.5,
        "d_ltem": 10.0,
        "r_merge": 1.0,
        "min_consistent": 3,
        "s_min": 10.0,
        "max_offset": 1.5,
        "cooldown_frames": 10,
    },
    "ransac": {
        "iterations": 100,
        "inlier_threshold": 0.02,
        "min_points": 20,
        "min_inlier_ratio": 0.5,
        "seed": 0,
    },
    "icp": {
        "max_iterations": 50,
        "tolerance": 1e-6,
        "max_correspondence": 0.5,
        "min_fitness": 0.6,
        "max_rms": 0.15,
        "min_points": 50,
    },
    "edges": {
        "odom_sigma_t": 0.02,
        "odom_sigma_r": 0.005,
        "loop_sigma_t": 0.1,
        "loop_sigma_r": 0.05,
        "unrefined_scale": 2.0,
    },
    "graph": {
        "max_iterations": 100,
        "lambda_init": 1e-6,
        "huber_delta": None,
        "tolerance": 1e-12,
    },
    "eval": {
        "tau": 1.0,
        "min_travel": 10.0,
    },
    "sim": {
        "scenario": "corridor",
        "seed": 0,
        "laps": 2,
        "rate": 10.0,
        "odom_sigma_t": 0.0,
        "odom_sigma_r": 0.0,
        "detect_prob": 1.0,
        "max_range": 8.0,
        "max_incidence": 1.3,
        "misread_prob": 0.0,
        "bbox_jitter": 0.0,
        "cloud_sigma": 0.0,
    },
}


class ConfigError(ValueError):
    pass


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except ValueError:  # a JSONDecodeError, or an integer past sys.get_int_max_str_digits()
        return raw


def _coerce(section: str, key: str, value, default):
    """Fit a parsed value to the default's type; reject structural mismatches."""
    if isinstance(default, str):
        return value if isinstance(value, str) else str(value)
    if isinstance(default, list):
        try:
            return json_array(value, (len(default),)).tolist()
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"[{section}] {key} expects a list of {len(default)} finite numbers ({exc})"
            ) from exc
    if isinstance(default, int):
        expects, decode = "an integer", json_int
    elif default is not None:
        expects, decode = "a number", json_float
    elif value is None:
        # the one null default, [graph] huber_delta, is an optional number
        return None
    else:
        expects, decode = "null or a number", json_float
    try:
        return decode(value)
    except TypeError as exc:
        raise ConfigError(f"[{section}] {key} expects {expects}, got {value!r}") from exc
    except ValueError as exc:  # an integer past float range
        raise ConfigError(f"[{section}] {key} expects {expects} ({exc})") from exc


# The range of each bounded key, as the phrase of its error and a test that
# `not` turns into a rejection, so that NaN fails every test.
_POSITIVE = ("must be positive and finite", lambda x: 0.0 < x < math.inf)
_NON_NEGATIVE = ("must be non-negative", lambda x: x >= 0.0)
_NON_NEGATIVE_FINITE = ("must be non-negative and finite", lambda x: 0.0 <= x < math.inf)
_UNIT = ("must lie in [0, 1]", lambda x: 0.0 <= x <= 1.0)
_AT_LEAST_1 = ("must be at least 1", lambda x: x >= 1)
_BOUNDS: dict[str, dict[str, tuple]] = {
    "rig": {
        "fx": _POSITIVE,
        "fy": _POSITIVE,
        "cx": ("must be finite", math.isfinite),
        "cy": ("must be finite", math.isfinite),
    },
    # outside these ranges a gate passes everything or nothing, and detect
    # would exit 0 with other constraints or none
    "detect": {
        "min_confidence": _UNIT,
        "window": _NON_NEGATIVE_FINITE,
        "epsilon": _POSITIVE,
        "d_ltem": _NON_NEGATIVE_FINITE,
        "r_merge": _NON_NEGATIVE_FINITE,
        "min_consistent": _AT_LEAST_1,
        "s_min": _NON_NEGATIVE_FINITE,
        "max_offset": _NON_NEGATIVE_FINITE,
        "cooldown_frames": _NON_NEGATIVE,
    },
    "ransac": {
        "iterations": _AT_LEAST_1,
        "inlier_threshold": _POSITIVE,
        # a plane hypothesis is the plane through 3 sampled points
        "min_points": ("must be at least 3", lambda x: x >= 3),
        "min_inlier_ratio": _UNIT,
        "seed": _NON_NEGATIVE,
    },
    # outside these ranges ICP never converges or never accepts
    "icp": {
        "max_iterations": _AT_LEAST_1,
        "tolerance": _POSITIVE,
        "max_correspondence": _POSITIVE,
        "min_fitness": _UNIT,
        "max_rms": _NON_NEGATIVE,
    },
    # the pose graph divides by the sigmas and scales them
    "edges": dict.fromkeys(
        ("odom_sigma_t", "odom_sigma_r", "loop_sigma_t", "loop_sigma_r", "unrefined_scale"),
        _POSITIVE,
    ),
    "graph": {
        "max_iterations": _NON_NEGATIVE,
        "lambda_init": _POSITIVE,
        "huber_delta": (
            "must be null or positive and finite",
            lambda x: x is None or 0.0 < x < math.inf,
        ),
        "tolerance": _NON_NEGATIVE,
    },
    "eval": {"tau": _POSITIVE, "min_travel": _NON_NEGATIVE_FINITE},
    # the simulator's own bounds
    "sim": {
        "seed": _NON_NEGATIVE,
        "laps": _AT_LEAST_1,
        "detect_prob": _UNIT,
        "misread_prob": _UNIT,
        **dict.fromkeys(
            (
                "odom_sigma_t", "odom_sigma_r", "bbox_jitter", "cloud_sigma",
                "max_range", "max_incidence",
            ),
            _NON_NEGATIVE,
        ),
    },
}
# largest entry of |R R^T - I| and |det R - 1| accepted for [rig] rotation
ROTATION_TOLERANCE = 1e-6


@dataclass
class PipelineConfig:
    """All tunables for simulate/detect/optimize/evaluate, one value per key."""

    values: dict[str, dict] = field(default_factory=dict)

    def __post_init__(self):
        merged = {s: dict(kv) for s, kv in DEFAULTS.items()}
        for section, kv in self.values.items():
            if section not in merged:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in kv.items():
                if key not in merged[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                merged[section][key] = _coerce(section, key, value, DEFAULTS[section][key])
        for section, bounds in _BOUNDS.items():
            for key, (phrase, holds) in bounds.items():
                value = merged[section][key]
                if not holds(value):
                    raise ConfigError(f"[{section}] {key} {phrase}, got {value}")
        # an edge weighs 1 / sigma^2, a loop sigma times unrefined_scale too;
        # neither sigma^2 nor its inverse may leave the float range
        edges = merged["edges"]
        for key in ("odom_sigma_t", "odom_sigma_r", "loop_sigma_t", "loop_sigma_r"):
            scale = edges["unrefined_scale"] if key.startswith("loop") else 1.0
            for sigma in (edges[key], edges[key] * scale):
                square = sigma * sigma
                if not (0.0 < square < math.inf and 1.0 / square < math.inf):
                    raise ConfigError(
                        f"[edges] {key} gives the edge weight 1 / {sigma}^2, out of float range"
                    )
        # each image is stamped CAMERA_OFFSET after its frame and must come
        # before the next one; at 1 / CAMERA_OFFSET (20 Hz) rounding already
        # puts some stamps past it
        rate = merged["sim"]["rate"]
        if not 0.0 < rate < 1.0 / CAMERA_OFFSET:
            raise ConfigError(
                f"[sim] rate must lie strictly between 0 and {1.0 / CAMERA_OFFSET:g} Hz, so that "
                f"each image, {CAMERA_OFFSET} s after its frame, comes before the next; got {rate}"
            )
        rotation = np.array(merged["rig"]["rotation"]).reshape(3, 3)
        error = max(
            np.abs(rotation @ rotation.T - np.eye(3)).max(), abs(np.linalg.det(rotation) - 1.0)
        )
        if not error <= ROTATION_TOLERANCE:
            raise ConfigError(
                f"[rig] rotation must be orthonormal with determinant 1, within "
                f"{ROTATION_TOLERANCE:g}; got {merged['rig']['rotation']}"
            )
        pattern = merged["detect"]["id_pattern"]
        try:
            re.compile(pattern)
        except re.error as exc:
            raise ConfigError(
                f"[detect] id_pattern {pattern!r} is not a regular expression ({exc})"
            ) from exc
        self.values = merged

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    # builders for the module-level parameter types

    def rig(self) -> CalibratedRig:
        r = self.values["rig"]
        rotation = np.array(r["rotation"], dtype=float).reshape(3, 3)
        return CalibratedRig(
            intrinsics=CameraIntrinsics(r["fx"], r["fy"], r["cx"], r["cy"]),
            camera_in_lidar=Pose(rotation, np.array(r["translation"], dtype=float)),
        )

    def extraction_params(self) -> ExtractionParams:
        d, r = self.values["detect"], self.values["ransac"]
        return ExtractionParams(
            min_confidence=d["min_confidence"],
            window=d["window"],
            id_pattern=d["id_pattern"],
            ransac=RansacParams(
                iterations=r["iterations"],
                inlier_threshold=r["inlier_threshold"],
                min_points=r["min_points"],
                min_inlier_ratio=r["min_inlier_ratio"],
            ),
            ransac_seed=r["seed"],
        )

    def detector_params(self) -> DetectorParams:
        d, e, i = self.values["detect"], self.values["edges"], self.values["icp"]
        return DetectorParams(
            s_min=d["s_min"],
            max_offset=d["max_offset"],
            cooldown_frames=d["cooldown_frames"],
            loop_sigma_t=e["loop_sigma_t"],
            loop_sigma_r=e["loop_sigma_r"],
            unrefined_scale=e["unrefined_scale"],
            association=AssociationParams(
                epsilon=d["epsilon"],
                d_ltem=d["d_ltem"],
                r_merge=d["r_merge"],
                min_consistent=d["min_consistent"],
            ),
            icp=IcpParams(
                max_iterations=i["max_iterations"],
                tolerance=i["tolerance"],
                max_correspondence=i["max_correspondence"],
                min_fitness=i["min_fitness"],
                max_rms=i["max_rms"],
                min_points=i["min_points"],
            ),
        )

    def noise_model(self) -> NoiseModel:
        s = self.values["sim"]
        sigma = [s["odom_sigma_t"]] * 3 + [s["odom_sigma_r"]] * 3
        return NoiseModel(
            odom_sigma=np.array(sigma),
            detect_prob=s["detect_prob"],
            max_range=s["max_range"],
            max_incidence=s["max_incidence"],
            misread_prob=s["misread_prob"],
            bbox_jitter=s["bbox_jitter"],
            cloud_sigma=s["cloud_sigma"],
        )


def _env_overrides(environ=None) -> dict[str, dict]:
    env = os.environ if environ is None else environ
    out: dict[str, dict] = {}
    for name, raw in env.items():
        if not name.startswith(ENV_PREFIX) or "__" not in name:
            continue
        section, _, key = name[len(ENV_PREFIX) :].partition("__")
        out.setdefault(section.lower(), {})[key.lower()] = _parse_value(raw)
    return out


def _syntax_error(exc: configparser.Error) -> str:
    """The line and the fault of a malformed INI file, on one line."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: {exc.line.strip()!r} is not under a [section] header"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: key {exc.option!r} repeats in section [{exc.section}]"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section [{exc.section}] repeats"
    if isinstance(exc, configparser.ParsingError):
        lineno, line = exc.errors[0]
        return f"line {lineno}: cannot parse {line}"
    return " ".join(str(exc).split())


def load_config(path: str | None = None, environ=None) -> PipelineConfig:
    """Defaults <- INI file (if given) <- TEXTLOOP_SECTION__KEY env vars."""
    values: dict[str, dict] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}, {_syntax_error(exc)}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            values[section] = {k: _parse_value(v) for k, v in parser.items(section)}
    for section, kv in _env_overrides(environ).items():
        values.setdefault(section, {}).update(kv)
    return PipelineConfig(values)
