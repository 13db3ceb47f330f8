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
from dataclasses import dataclass, field

import numpy as np

from .association import AssociationParams
from .entities import CalibratedRig, ExtractionParams, RansacParams
from .geometry import CameraIntrinsics, Pose
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
    except json.JSONDecodeError:
        return raw


def _coerce(section: str, key: str, value, default):
    """Fit a parsed value to the default's type; reject structural mismatches."""
    if default is None:
        # the one null default, [graph] huber_delta, is an optional number
        if value is None:
            return None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(f"[{section}] {key} expects null or a number, got {value!r}")
    if isinstance(default, int):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"[{section}] {key} expects an integer, got {value!r}")
    if isinstance(default, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(f"[{section}] {key} expects a number, got {value!r}")
    if isinstance(default, list):
        if isinstance(value, list) and len(value) == len(default):
            return [float(x) for x in value]
        raise ConfigError(f"[{section}] {key} expects a list of {len(default)} numbers")
    if isinstance(default, str):
        if isinstance(value, str):
            return value
        return str(value)
    raise ConfigError(f"[{section}] {key} has unsupported default type")


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
        # a plane hypothesis is the plane through 3 sampled points
        if merged["ransac"]["min_points"] < 3:
            raise ConfigError(
                f"[ransac] min_points must be at least 3, got {merged['ransac']['min_points']}"
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
        # NoiseModel's own bounds, named by key; `not` also rejects NaN
        sim = merged["sim"]
        for key in ("detect_prob", "misread_prob"):
            if not 0.0 <= sim[key] <= 1.0:
                raise ConfigError(f"[sim] {key} must lie in [0, 1], got {sim[key]}")
        for key in (
            "odom_sigma_t", "odom_sigma_r", "bbox_jitter", "cloud_sigma",
            "max_range", "max_incidence",
        ):
            if not sim[key] >= 0.0:
                raise ConfigError(f"[sim] {key} must be non-negative, got {sim[key]}")
        # the pose graph divides by the sigmas and scales them
        edges = merged["edges"]
        for key in (
            "odom_sigma_t", "odom_sigma_r", "loop_sigma_t", "loop_sigma_r", "unrefined_scale",
        ):
            if not 0.0 < edges[key] < math.inf:
                raise ConfigError(f"[edges] {key} must be positive and finite, got {edges[key]}")
        # outside these ranges ICP never converges or never accepts, and
        # detect would exit 0 with no constraints
        icp = merged["icp"]
        for key in ("tolerance", "max_correspondence"):
            if not 0.0 < icp[key] < math.inf:
                raise ConfigError(f"[icp] {key} must be positive and finite, got {icp[key]}")
        if not 0.0 <= icp["min_fitness"] <= 1.0:
            raise ConfigError(f"[icp] min_fitness must lie in [0, 1], got {icp['min_fitness']}")
        if not icp["max_rms"] >= 0.0:
            raise ConfigError(f"[icp] max_rms must be non-negative, got {icp['max_rms']}")
        if icp["max_iterations"] < 1:
            raise ConfigError(
                f"[icp] max_iterations must be at least 1, got {icp['max_iterations']}"
            )
        huber = merged["graph"]["huber_delta"]
        if huber is not None and not 0.0 < huber < math.inf:
            raise ConfigError(
                f"[graph] huber_delta must be null or positive and finite, got {huber}"
            )
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
