import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from richwave import cli
from richwave.asymptotics import ShapeFloorError
from richwave.cheb import TabulationError
from richwave.cli import main
from richwave.config import (
    ConfigError,
    load_config,
    parse_config,
    preset_names,
    preset_path,
)
from richwave.fv import BlowUpError
from richwave.maps import InversionError
from richwave.plateau import NotDecomposedError
from richwave.quadrature import QuadratureError
from richwave.systems import AdmissibilityError

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "bi-two-ramp")
# L1 experiment outputs, kept apart from GOLDEN: perfbench requires every
# file there to be written by ``solve``.
GOLDEN_L1 = os.path.join(os.path.dirname(__file__), "golden", "l1")


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def numeric(rows, cols=None):
    out = []
    for row in rows:
        out.append([float(v) for k, v in enumerate(row) if cols is None or k in cols])
    return np.asarray(out)


def test_preset_catalog_complete():
    assert preset_names() == [
        "abi-middle",
        "bi-simple-wave",
        "bi-two-ramp",
        "constant",
        "stability-sweep",
    ]
    for name in preset_names():
        cfg = load_config(name)
        assert cfg.profile.n == cfg.system.n


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        parse_config({"model": {"name": "bi"}, "profile": {}, "typo": 1})
    with pytest.raises(ConfigError):
        parse_config(
            {"model": {"name": "bi", "extra": 2},
             "profile": {"breakpoints": [0, 1], "values": [[1, -1], [1, -1]]}}
        )
    with pytest.raises(ConfigError):
        parse_config({"model": {"name": "nope"}, "profile": {}})
    with pytest.raises(ConfigError):
        parse_config({"model": {"name": "bi"}})


def test_profile_component_count_checked():
    with pytest.raises(ConfigError):
        parse_config(
            {"model": {"name": "abi"},
             "profile": {"breakpoints": [0, 1], "values": [[1, -1], [1, -1]]}}
        )


def test_missing_config_mentions_presets(capsys):
    code = main(["solve", "--config", "does-not-exist"])
    assert code == 2
    assert "preset" in capsys.readouterr().err


_BI_RAMP = {"breakpoints": [-1.0, 0.0, 1.0], "values": [[1, -1], [1.5, -1], [1, -1]]}


@pytest.mark.parametrize(
    "cfg",
    [
        {"model": {"name": "bi"}, "profile": _BI_RAMP, "times": [1.0],
         "grid": {"x_min": -2.0, "points": 5}},
        {"model": {"name": "bi"}, "profile": _BI_RAMP, "times": [-1.0],
         "grid": {"x_min": -2.0, "x_max": 2.0, "points": 5}},
        {"model": {"name": "bi"},
         "profile": {"breakpoints": [-1.0, 0.0, 1.0],
                     "values": [[1, -1], [-2, 1], [1, -1]]},
         "times": [1.0], "grid": {"x_min": -2.0, "x_max": 2.0, "points": 5}},
        {"model": {"name": "bi"}, "profile": _BI_RAMP, "times": [1.0],
         "grid": {"x_min": -2.0, "x_max": 2.0, "points": None}},
        # admissible at t = 0, but translation brings mu = 0.4 next to
        # lam = 0.5: the gap closes along the evolution
        {"model": {"name": "bi"},
         "profile": {"breakpoints": [-1.0, 0.0, 1.0],
                     "values": [[1, -1], [1, 0.5], [0.4, -1]]},
         "times": [1.0], "grid": {"x_min": -2.0, "x_max": 2.0, "points": 5}},
    ],
    ids=["grid-without-x_max", "negative-time", "inadmissible-profile", "null-points",
         "bi-gap-closes"],
)
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not (out / "failures.json").exists()


@pytest.mark.parametrize(
    "oracle",
    [
        {"t_final": 1.0, "cells": [0, 10]},
        {"t_final": 1.0, "cells": []},
        {"t_final": 1.0, "cells": [10, 20], "cfl": 5.0},
        {"t_final": 1.0, "cells": [10, 20], "cfl": -1.0},
    ],
    ids=["zero-cells", "no-cells", "cfl-above-one", "negative-cfl"],
)
def test_bad_oracle_block_exits_2_without_traceback(tmp_path, capsys, oracle):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"model": {"name": "bi"}, "profile": _BI_RAMP, "oracle": oracle})
    )
    out = tmp_path / "o"
    assert main(["oracle", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not (out / "failures.json").exists()


@pytest.mark.parametrize(
    "extra",
    [
        {"grid": {"x_min": 1.0, "x_max": 1.0, "points": 5}},
        {"grid": {"x_min": -1.0, "x_max": 1.0, "points": 1}},
        {"decay_times": [0.0, -2.0]},
        {"boxes": [[1.0, 1.0, -1.0, 1.0]]},
        {"boxes": [[-1.0, 1.0, -1.0, 1.0]]},
        {"boxes": [[0.0, 1.0, 1.0, -1.0]]},
        {"oracle": {"cells": [100]}},
        {"perturbation": {"component": 0, "center": 0.0}},
    ],
)
def test_out_of_range_blocks_rejected(extra):
    with pytest.raises(ConfigError):
        parse_config(dict({"model": {"name": "bi"}, "profile": _BI_RAMP}, **extra))


@pytest.mark.parametrize(
    "command, extra",
    [
        ("stability", {"perturbation": {"component": 5, "center": 0.05,
                                        "half_width": 0.3}}),
        ("stability", {"perturbation": {"component": -1, "center": 0.05,
                                        "half_width": 0.3}}),
        ("stability", {"perturbation": {"component": 0, "center": 0.05,
                                        "half_width": -0.3}}),
        ("asymptotics", {"shape_samples": 0}),
        ("solve", {"tolerances": {"quadrature": 0.0}}),
        ("solve", {"tolerances": {"quadrature": float("nan")}}),
        ("solve", {"tolerances": {"inversion": -1e-12}}),
        ("validate", {"tolerances": {"verify": float("inf")}}),
        ("plateau", {"plateau_factors": [1.0]}),
        ("plateau", {"plateau_factors": [0.5]}),
        ("plateau", {"plateau_factors": [-1.0]}),
    ],
    ids=["component-too-large", "component-negative", "negative-half-width",
         "zero-shape-samples", "zero-quadrature-tol", "nan-quadrature-tol",
         "negative-inversion-tol", "infinite-verify-tol", "plateau-factor-one",
         "plateau-factor-half", "plateau-factor-negative"],
)
def test_values_that_would_crash_or_hang_exit_2(tmp_path, capsys, command, extra):
    # each of these ended in a traceback, or (zero or NaN tolerance) never
    # returned, before parse_config checked the ranges
    cfg = dict(json.loads(preset_path("bi-two-ramp").read_text()), **extra)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not (out / "failures.json").exists()


@pytest.mark.parametrize(
    "command, path, literal",
    [
        ("oracle", ("oracle", "t_final"), "Infinity"),
        ("solve", ("boxes", 0, 3), "Infinity"),
        ("solve", ("grid", "points"), "Infinity"),
        ("solve", ("grid", "x_max"), "NaN"),
        ("solve", ("grid", "x_max"), "Infinity"),
        ("oracle", ("oracle", "x_max"), "NaN"),
        ("oracle", ("oracle", "x_max"), "1e400"),
        ("validate", ("model", "a"), "NaN"),
        ("validate", ("model", "a"), "-Infinity"),
    ],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, command, path, literal):
    # Python's json reads NaN, Infinity and 1e400 as floats: an infinite
    # oracle t_final or box edge never returned, the others exited 1 or with
    # a traceback
    cfg = json.loads(preset_path("bi-two-ramp").read_text())
    block = cfg
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg).replace('"@"', literal))
    out = tmp_path / "o"
    assert main([command, "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "richwave: config error: non-finite number %s\n" % literal
    assert not (out / "failures.json").exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_bad_tol_option_exits_2(tmp_path, capsys, tol):
    # the rule of the config's tolerances: nan and -1 gave spurious
    # failures, inf passed every check
    out = tmp_path / "o"
    assert main(["plateau", "--config", "bi-two-ramp", "--out", str(out), "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith("richwave: config error: --tol must be finite and > 0")
    assert not out.exists()


def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["solve", "--config", "bi-two-ramp", "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("richwave: cannot create the output directory: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "error",
    [
        InversionError("Z(t,.) inversion stalled"),
        QuadratureError("X(t=1, z=0.5): depth exceeded", interval=(0.25, 0.5)),
        TabulationError("segment did not converge"),
        ShapeFloorError("shape map for component 0 is not invertible"),
        BlowUpError("non-finite state after step at t = 0.5"),
        MemoryError("Unable to allocate 745. GiB for an array"),
        NotDecomposedError("verification requires t past the settling time"),
        TypeError("unsupported operand type(s)"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_numerical_failure_reported_in_failures_json(tmp_path, capsys, monkeypatch,
                                                     error):
    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "solve", failing_solve)
    out = tmp_path / "o"
    assert main(["solve", "--config", "constant", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads((out / "failures.json").read_text())
    assert payload["command"] == "solve"
    assert payload["failures"] == ["solve: %s: %s" % (type(error).__name__, error)]


def _limit_address_space():
    # applied in the child only: numpy's allocation of 10^11 doubles fails
    # at once instead of touching the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "command, block, key, value",
    [
        ("solve", "grid", "points", 10**11),
        ("oracle", "oracle", "cells", [10**11]),
        ("asymptotics", None, "shape_samples", 10**11),
    ],
    ids=["grid-points", "oracle-cells", "shape-samples"],
)
def test_out_of_memory_reported_in_failures_json(tmp_path, command, block, key, value):
    cfg = json.loads(preset_path("bi-two-ramp").read_text())
    (cfg[block] if block else cfg)[key] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "richwave.cli", command, "--config", str(path),
         "--out", str(out)],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads((out / "failures.json").read_text())
    assert payload["command"] == command
    assert any("MemoryError" in f for f in payload["failures"])


def test_every_preset_and_command_keeps_the_exit_contract(tmp_path, capsys):
    for preset in preset_names():
        for command in sorted(cli._COMMANDS):
            out = tmp_path / preset / command
            code = main([command, "--config", preset, "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 2), (preset, command, err)
            assert "Traceback" not in err
            assert (out / "failures.json").exists() == (code == 1)


@pytest.mark.parametrize(
    "error",
    [AdmissibilityError("state (2, 3) is not admissible"),
     ValueError("density is not positive along the profile")],
    ids=lambda e: type(e).__name__,
)
def test_value_error_inside_a_command_exits_2_without_traceback(tmp_path, capsys,
                                                                monkeypatch, error):
    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "solve", failing_solve)
    out = tmp_path / "o"
    assert main(["solve", "--config", "constant", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "richwave: %s\n" % error
    assert not (out / "failures.json").exists()


def test_asymptotics_without_full_gap_condition_exits_2(tmp_path, capsys):
    # the solution exists (the mu dip sits left of the lam bump), but
    # inf mu0 = 0.5 < sup lam0 = 0.7 defeats the model shape maps
    cfg = {
        "model": {"name": "bi"},
        "profile": {
            "breakpoints": [-1.0, -0.5, 0.0, 0.5, 1.0],
            "values": [[1, -1], [0.5, -1], [1, -1], [1, 0.7], [1, -1]],
        },
    }
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["asymptotics", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "gap condition" in err
    assert "Traceback" not in err
    assert not (out / "failures.json").exists()


@pytest.mark.parametrize(
    "extra",
    [{"decay_times": [4.0, 2.0]}, {"times": [0.0, 8.0, 2.0], "decay_times": []}],
    ids=["decay-times", "times-fallback"],
)
def test_asymptotics_with_unordered_times_exits_2(tmp_path, capsys, extra):
    cfg = dict(json.loads(preset_path("bi-two-ramp").read_text()), **extra)
    path = tmp_path / "unordered.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["asymptotics", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "strictly increasing" in err
    assert "Traceback" not in err
    assert not (out / "failures.json").exists()


def test_solve_constant_rows_are_tail_state(tmp_path):
    out = str(tmp_path / "o")
    assert main(["solve", "--config", "constant", "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "solution_t1.csv"))
    assert header == ["x", "w1", "w2"]
    vals = numeric(rows)
    assert np.allclose(vals[:, 1], 1.0, atol=1e-12)
    assert np.allclose(vals[:, 2], -1.0, atol=1e-12)
    _, res_rows = read_csv(os.path.join(out, "residuals.csv"))
    assert all(row[-1] == "true" for row in res_rows)
    assert not os.path.exists(os.path.join(out, "failures.json"))


def test_solve_simple_wave_is_shifted_initial(tmp_path):
    out = str(tmp_path / "o")
    assert main(["solve", "--config", "bi-simple-wave", "--out", out]) == 0
    cfg = load_config("bi-simple-wave")
    header, rows = read_csv(os.path.join(out, "solution_t2.csv"))
    vals = numeric(rows)
    want = cfg.profile.component(0, vals[:, 0] + 2.0)
    assert np.max(np.abs(vals[:, 1] - want)) < 1e-9


def assert_csv_matches(got_path, want_path):
    got_header, got_rows = read_csv(got_path)
    want_header, want_rows = read_csv(want_path)
    assert got_header == want_header
    assert len(got_rows) == len(want_rows)
    for g, w in zip(got_rows, want_rows):
        for gv, wv in zip(g, w):
            try:
                assert float(gv) == pytest.approx(float(wv), abs=1e-8)
            except ValueError:
                assert gv == wv


def test_solve_matches_golden_files(tmp_path):
    out = str(tmp_path / "o")
    assert main(["solve", "--config", "bi-two-ramp", "--out", out]) == 0
    for name in sorted(os.listdir(GOLDEN)):
        assert_csv_matches(os.path.join(out, name), os.path.join(GOLDEN, name))


@pytest.mark.parametrize(
    "preset, command, name",
    [
        ("bi-two-ramp", "asymptotics", "decay.csv"),
        ("bi-two-ramp", "stability", "stability.csv"),
        ("abi-middle", "asymptotics", "decay.csv"),
    ],
)
def test_l1_outputs_match_golden_files(tmp_path, preset, command, name):
    out = str(tmp_path / "o")
    assert main([command, "--config", preset, "--out", out]) == 0
    assert_csv_matches(
        os.path.join(out, name), os.path.join(GOLDEN_L1, "%s-%s" % (preset, name))
    )


def test_deterministic_output(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["solve", "--config", "constant", "--out", out1]) == 0
    assert main(["solve", "--config", "constant", "--out", out2]) == 0
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2
        assert b"\r" not in b1


def test_validate_command(tmp_path):
    out = str(tmp_path / "o")
    assert main(["validate", "--config", "abi-middle", "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "validate.csv"))
    assert header == ["check", "passed", "worst", "detail"]
    assert all(row[1] == "true" for row in rows)


def test_plateau_command(tmp_path):
    out = str(tmp_path / "o")
    assert main(["plateau", "--config", "bi-two-ramp", "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "crossing_times.csv"))
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(6.8673278851636077, rel=1e-12)
    _, verdicts = read_csv(os.path.join(out, "verdicts.csv"))
    assert all(row[-1] == "true" for row in verdicts)


def test_oracle_command(tmp_path):
    out = str(tmp_path / "o")
    assert main(["oracle", "--config", "bi-simple-wave", "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "oracle.csv"))
    assert [row[0] for row in rows] == ["400", "800", "1600"]
    errs = [float(row[1]) for row in rows]
    assert errs[0] > errs[1] > errs[2]


def test_oracle_command_handles_exact_scheme(tmp_path):
    # the upwind scheme reproduces constant data exactly: no rate to check,
    # and certainly no crash or spurious failure
    out = str(tmp_path / "o")
    assert main(["oracle", "--config", "constant", "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "oracle.csv"))
    assert all(float(row[1]) < 1e-13 for row in rows)


def test_failure_exit_code_and_machine_readable_list(tmp_path):
    # constant data, and a lone simple wave whose space sides integrate the
    # same translated profile, can have exactly-zero residuals: use two
    # interacting ramps, whose residuals carry quadrature error
    out = str(tmp_path / "o")
    code = main(
        ["solve", "--config", "bi-two-ramp", "--out", out, "--tol", "1e-30"]
    )
    assert code == 1
    with open(os.path.join(out, "failures.json")) as fh:
        payload = json.load(fh)
    assert payload["command"] == "solve"
    assert payload["failures"]


def test_stability_command(tmp_path):
    out = str(tmp_path / "o")
    cfg = {
        "model": {"name": "bi", "a": 1.0},
        "profile": {
            "breakpoints": [-1.0, -0.7, -0.35, 0.45, 0.7, 1.0],
            "values": [
                [1.0, -1.0], [0.3, -1.0], [0.14, -0.02],
                [0.1, -0.04], [0.75, -0.45], [1.0, -1.0],
            ],
        },
        "times": [0.0, 1.0, 5.0],
        "amplitudes": [0.1, 0.05],
        "perturbation": {"component": 0, "center": 0.05, "half_width": 0.3},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    assert main(["stability", "--config", str(path), "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "stability.csv"))
    assert header == ["amplitude", "R0", "t", "R_t", "R_t_over_R0"]
    assert len(rows) == 6
    by_amp = {}
    for row in rows:
        by_amp.setdefault(row[0], []).append(row)
    # R_{t=0} = R0 exactly: identical strings in the deterministic output
    for amp_rows in by_amp.values():
        assert amp_rows[0][1] == amp_rows[0][3]


def test_asymptotics_command_on_simple_wave(tmp_path):
    out = str(tmp_path / "o")
    assert main(["asymptotics", "--config", "bi-simple-wave", "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "crosscheck.csv"))
    assert all(row[-1] == "true" for row in rows)
    _, decay_rows = read_csv(os.path.join(out, "decay.csv"))
    vals = numeric(decay_rows)
    assert float(np.max(vals[:, 1:])) < 1e-8
