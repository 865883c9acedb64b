"""Scenario configuration: strict JSON parsing and preset resolution.

One scenario per file.  Unknown keys are rejected at every level so a typo
cannot silently change an experiment.
"""

import json
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .profiles import PiecewiseProfile, read_profile
from .solver import check_profile_admissible
from .systems import AdmissibilityError, augmented_born_infeld, born_infeld


class ConfigError(ValueError):
    """Malformed scenario configuration."""


_TOP_KEYS = {
    "name", "model", "profile", "times", "grid", "oracle", "boxes",
    "amplitudes", "perturbation", "decay_times", "tolerances", "output",
    "shape_samples", "plateau_factors",
}
_MODEL_KEYS = {"name", "a"}
_PROFILE_KEYS = {"breakpoints", "values", "file"}
_GRID_KEYS = {"x_min", "x_max", "points"}
_ORACLE_KEYS = {"t_final", "cells", "x_min", "x_max", "cfl"}
_PERT_KEYS = {"component", "center", "half_width"}
_TOL_KEYS = {"quadrature", "inversion", "verify"}


def _check_keys(block, allowed, where):
    if not isinstance(block, dict):
        raise ConfigError("%s must be an object" % where)
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(
            "unknown key(s) %s in %s (allowed: %s)"
            % (sorted(unknown), where, sorted(allowed))
        )


def _check_required(block, required, where):
    missing = [k for k in required if k not in block]
    if missing:
        raise ConfigError("%s requires key(s) %s" % (where, missing))


def _nonnegative_times(values, where):
    times = [float(t) for t in values]
    for t in times:
        if not t >= 0.0:
            raise ConfigError("%s must be >= 0, got %r" % (where, t))
    return times


@dataclass
class ScenarioConfig:
    """Parsed scenario: a system, a profile and the command-specific blocks."""

    name: str
    system: object
    profile: PiecewiseProfile
    times: list = field(default_factory=list)
    grid: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    boxes: list = field(default_factory=list)
    amplitudes: list = field(default_factory=list)
    perturbation: dict = field(default_factory=dict)
    decay_times: list = field(default_factory=list)
    quad_tol: float = 1e-10
    inv_tol: float = 1e-12
    verify_tol: float = 1e-8
    output: str = "out"
    shape_samples: int = 200
    plateau_factors: tuple = (1.1, 2.0)


def preset_path(name):
    """Filesystem path of a shipped scenario preset."""
    return resources.files("richwave").joinpath("scenarios", name + ".json")


def preset_names():
    root = resources.files("richwave").joinpath("scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_config(path_or_name):
    """Load a scenario from a JSON file path or a shipped preset name."""
    path = str(path_or_name)
    if not os.path.exists(path):
        candidate = preset_path(path)
        if candidate.is_file():
            path = str(candidate)
        else:
            raise ConfigError(
                "no such config file or preset: %r (presets: %s)"
                % (path_or_name, ", ".join(preset_names()))
            )
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid JSON in %s: %s" % (path, exc)) from exc
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config(raw, base_dir="."):
    _check_keys(raw, _TOP_KEYS, "scenario")
    if "model" not in raw or "profile" not in raw:
        raise ConfigError("scenario requires 'model' and 'profile'")

    _check_keys(raw["model"], _MODEL_KEYS, "model")
    model_name = raw["model"].get("name")
    a = float(raw["model"].get("a", 1.0))
    if model_name == "bi":
        system = born_infeld(a)
    elif model_name == "abi":
        system = augmented_born_infeld(a)
    else:
        raise ConfigError("model.name must be 'bi' or 'abi', got %r" % model_name)

    _check_keys(raw["profile"], _PROFILE_KEYS, "profile")
    prof_block = raw["profile"]
    if "file" in prof_block:
        if "breakpoints" in prof_block or "values" in prof_block:
            raise ConfigError("profile: give either 'file' or inline data, not both")
        profile = read_profile(os.path.join(base_dir, prof_block["file"]))
    else:
        if "breakpoints" not in prof_block or "values" not in prof_block:
            raise ConfigError("profile needs 'breakpoints' and 'values' (or 'file')")
        profile = PiecewiseProfile(
            np.asarray(prof_block["breakpoints"], dtype=float),
            np.asarray(prof_block["values"], dtype=float),
        )
    if profile.n != system.n:
        raise ConfigError(
            "profile has %d components but model %s needs %d"
            % (profile.n, model_name, system.n)
        )
    try:
        check_profile_admissible(system, profile)
    except AdmissibilityError as exc:
        raise ConfigError("profile: %s" % exc) from exc

    cfg = ScenarioConfig(
        name=str(raw.get("name", "scenario")),
        system=system,
        profile=profile,
    )
    if "grid" in raw:
        _check_keys(raw["grid"], _GRID_KEYS, "grid")
        _check_required(raw["grid"], sorted(_GRID_KEYS), "grid")
        cfg.grid = {
            "x_min": float(raw["grid"]["x_min"]),
            "x_max": float(raw["grid"]["x_max"]),
            "points": int(raw["grid"]["points"]),
        }
        if cfg.grid["points"] < 2:
            raise ConfigError("grid.points must be >= 2")
        if not cfg.grid["x_min"] < cfg.grid["x_max"]:
            raise ConfigError("grid needs x_min < x_max")
    if "oracle" in raw:
        _check_keys(raw["oracle"], _ORACLE_KEYS, "oracle")
        blk = raw["oracle"]
        _check_required(blk, ("t_final", "cells"), "oracle")
        cfg.oracle = {
            "t_final": float(blk["t_final"]),
            "cells": [int(c) for c in blk["cells"]],
            "x_min": float(blk["x_min"]) if "x_min" in blk else None,
            "x_max": float(blk["x_max"]) if "x_max" in blk else None,
            "cfl": float(blk.get("cfl", 0.9)),
        }
    if "perturbation" in raw:
        _check_keys(raw["perturbation"], _PERT_KEYS, "perturbation")
        blk = raw["perturbation"]
        _check_required(blk, sorted(_PERT_KEYS), "perturbation")
        cfg.perturbation = {
            "component": int(blk["component"]),
            "center": float(blk["center"]),
            "half_width": float(blk["half_width"]),
        }
    if "tolerances" in raw:
        _check_keys(raw["tolerances"], _TOL_KEYS, "tolerances")
        blk = raw["tolerances"]
        cfg.quad_tol = float(blk.get("quadrature", cfg.quad_tol))
        cfg.inv_tol = float(blk.get("inversion", cfg.inv_tol))
        cfg.verify_tol = float(blk.get("verify", cfg.verify_tol))
    cfg.times = _nonnegative_times(raw.get("times", []), "times")
    cfg.decay_times = _nonnegative_times(raw.get("decay_times", []), "decay_times")
    cfg.amplitudes = [float(v) for v in raw.get("amplitudes", [])]
    for box in raw.get("boxes", []):
        if len(box) != 4:
            raise ConfigError("each box must be [t1, t2, A, B]")
        t1, t2, lo, hi = (float(v) for v in box)
        if not (0.0 <= t1 < t2 and lo < hi):
            raise ConfigError("box %s needs 0 <= t1 < t2 and A < B" % (list(box),))
        cfg.boxes.append((t1, t2, lo, hi))
    cfg.output = str(raw.get("output", cfg.output))
    cfg.shape_samples = int(raw.get("shape_samples", cfg.shape_samples))
    if "plateau_factors" in raw:
        cfg.plateau_factors = tuple(float(v) for v in raw["plateau_factors"])
    return cfg
