import json
import os

import numpy as np
import pytest

from richwave.cli import main
from richwave.config import ConfigError, load_config, parse_config, preset_names

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "bi-two-ramp")


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
    ],
    ids=["grid-without-x_max", "negative-time", "inadmissible-profile", "null-points"],
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


def test_solve_matches_golden_files(tmp_path):
    out = str(tmp_path / "o")
    assert main(["solve", "--config", "bi-two-ramp", "--out", out]) == 0
    for name in sorted(os.listdir(GOLDEN)):
        got_header, got_rows = read_csv(os.path.join(out, name))
        want_header, want_rows = read_csv(os.path.join(GOLDEN, name))
        assert got_header == want_header
        assert len(got_rows) == len(want_rows)
        for g, w in zip(got_rows, want_rows):
            for gv, wv in zip(g, w):
                try:
                    assert float(gv) == pytest.approx(float(wv), abs=1e-8)
                except ValueError:
                    assert gv == wv


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
    # constant data has exactly-zero residuals, so use a moving wave
    out = str(tmp_path / "o")
    code = main(
        ["solve", "--config", "bi-simple-wave", "--out", out, "--tol", "1e-30"]
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
