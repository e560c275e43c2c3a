"""Command-line interface: settings precedence, config files, CSV and SVG
outputs, exit codes and rerun determinism."""

import csv
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from chaocav import cli
from chaocav.svg import _PALETTE, _heat_rgb

VERIFY_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify.txt"
FLOAT_RE = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def run(tmp_path, argv):
    out = tmp_path / "out.csv"
    code = cli.main(argv + ["--out", str(out)])
    return code, out


# ---------------------------------------------------------------- parsing

def test_parse_complex_accepts_both_forms():
    assert cli.parse_complex("0.5") == complex(0.5)
    assert cli.parse_complex("0.5,-0.25") == complex(0.5, -0.25)
    assert cli.parse_complex("1,0") == complex(1.0)
    assert cli.parse_complex(" 2 ") == complex(2.0)


@pytest.mark.parametrize("bad", ["abc", "1,2,3", "", "1;2"])
def test_parse_complex_rejects_garbage(bad):
    with pytest.raises(cli.ConfigError):
        cli.parse_complex(bad)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "\n"
        "steps = 10          # trailing comment\n"
        "gamma = 0.1 0.5\n"
        "c00 = 1,0\n"
        "svg = off\n")
    settings = cli.parse_config_file(cfg)
    assert settings == {"steps": 10, "gammas": (0.1, 0.5),
                        "c00": complex(1.0), "svg": False}


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("velocity = 3\n")
    with pytest.raises(cli.ConfigError, match=r":1: unknown key"):
        cli.parse_config_file(cfg)


def test_every_config_key_sets_a_default():
    # a knob removed from the parsers must not leave a dead default behind
    assert {target for target, _ in cli._CONFIG_PARSERS.values()} == set(cli.DEFAULTS)


def test_config_file_malformed_number(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 5\ngamma = fast\n")
    with pytest.raises(cli.ConfigError, match=r":2:"):
        cli.parse_config_file(cfg)


def test_config_file_missing_equals(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps 5\n")
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.parse_config_file(cfg)


def test_config_file_unreadable():
    with pytest.raises(cli.ConfigError, match="cannot read"):
        cli.parse_config_file("/no/such/file.cfg")


# ---------------------------------------------------------------- precedence

def test_flags_beat_config_beats_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 10\nt_max = 2.0\ngamma = 0.3\n")
    code, out = run(tmp_path, ["entanglement", "--config", str(cfg),
                               "--steps", "7", "--alpha-field", "2"])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 7  # flag wins over config
    assert rows[-1][0] == pytest.approx(2.0)  # config wins over the default 10
    assert all(r[1] == pytest.approx(0.3) for r in rows)


def test_preset_must_match_command(tmp_path, capsys):
    code = cli.main(["fidelity", "--fig", "1a", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "belongs to the entanglement command" in capsys.readouterr().err


def test_preset_fills_grid(tmp_path):
    code, out = run(tmp_path, ["entanglement", "--fig", "1a", "--steps", "4",
                               "--t-max", "1.0", "--alpha-field", "1.0"])
    assert code == 0
    _, rows = read_csv(out)
    gammas = sorted({r[1] for r in rows})
    assert gammas == pytest.approx([0.1, 0.5, 0.9])  # preset gammas survive overrides
    assert len(rows) == 12


# ---------------------------------------------------------------- CSV outputs

def test_entanglement_csv_layout(tmp_path):
    code, out = run(tmp_path, ["entanglement", "--gamma", "0.3", "--steps", "5",
                               "--t-max", "1.0", "--alpha-field", "2"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == "t,gamma,alpha_field,doe,pre_norm_trace".split(",")
    assert len(rows) == 5
    ts = [r[0] for r in rows]
    assert ts == pytest.approx(list(np.linspace(0.0, 1.0, 5)))
    assert all(r[2] == pytest.approx(2.0) for r in rows)
    assert all(0.0 <= r[3] <= 1.0 for r in rows)
    assert all(0.0 < r[4] <= 1.0 + 1e-12 for r in rows)
    raw = out.read_text().splitlines()[1:]
    for line in raw:
        for fieldtext in line.split(","):
            assert FLOAT_RE.match(fieldtext), fieldtext
    assert b"\r" not in out.read_bytes()


def test_fidelity_csv_layout(tmp_path):
    code, out = run(tmp_path, ["fidelity", "--gamma", "0.4", "--steps", "4",
                               "--t-max", "1.0", "--alpha-field", "2"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ("t,gamma,alpha_field,doe,pre_norm_trace,fidelity,"
                      "kappa1,kappa2_re,kappa2_im,kappa4,weight").split(",")
    for r in rows:
        assert 0.0 <= r[5] <= 1.0 + 1e-12
        assert r[6] >= 0.0 and r[9] >= 0.0
        assert r[10] == pytest.approx(r[6] + r[9])


def test_rerun_writes_identical_bytes(tmp_path):
    argv = ["fidelity", "--gamma", "0.25", "--steps", "6", "--t-max", "2.0",
            "--alpha-field", "3"]
    _, first = run(tmp_path, argv)
    data1 = first.read_bytes()
    _, second = run(tmp_path, argv)
    assert second.read_bytes() == data1


def test_default_output_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["entanglement", "--gamma", "0.2", "--steps", "3",
                     "--t-max", "1.0", "--alpha-field", "1"])
    assert code == 0
    assert Path("chaocav_entanglement.csv").exists()
    assert "wrote chaocav_entanglement.csv" in capsys.readouterr().out


def test_mean_field_convention_rescales_alpha(tmp_path):
    code, out = run(tmp_path, ["entanglement", "--gamma", "0.2", "--steps", "3",
                               "--t-max", "1.0", "--alpha-field", "25",
                               "--field-convention", "mean"])
    assert code == 0
    _, rows = read_csv(out)
    assert all(r[2] == pytest.approx(5.0) for r in rows)


def test_init_flag_changes_preparation(tmp_path):
    code, out = run(tmp_path, ["entanglement", "--gamma", "0.2", "--steps", "3",
                               "--t-max", "1.0", "--alpha-field", "2",
                               "--init", "0.6", "0", "0", "0,0.8"])
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0][3] == pytest.approx(2.0 * 0.6 * 0.8, abs=1e-9)


def test_beta_u_defaults_to_norm_completion(tmp_path):
    # an |ee> channel hands Bob exactly the |beta_u|^2 overlap at t = 0
    code, out = run(tmp_path, ["fidelity", "--gamma", "0.0", "--steps", "2",
                               "--t-max", "1.0", "--alpha-field", "2",
                               "--init", "0", "0", "0", "1",
                               "--alpha-u", "0.6"])
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0][5] == pytest.approx(0.64, abs=1e-9)


# ---------------------------------------------------------------- contour grids

def contour_gammas(tmp_path, extra):
    code, out = run(tmp_path, ["contour", "--steps", "3", "--t-max", "1.0",
                               "--alpha-field", "1"] + extra)
    assert code == 0
    _, rows = read_csv(out)
    return sorted({r[1] for r in rows})


def test_contour_single_gamma_becomes_zero_anchored_range(tmp_path):
    got = contour_gammas(tmp_path, ["--gamma", "0.8", "--gamma-steps", "5"])
    assert got == pytest.approx(list(np.linspace(0.0, 0.8, 5)))


def test_contour_two_gammas_become_bounds(tmp_path):
    got = contour_gammas(tmp_path, ["--gamma", "0.2", "0.4", "--gamma-steps", "5"])
    assert got == pytest.approx(list(np.linspace(0.2, 0.4, 5)))


def test_contour_explicit_gamma_list_kept(tmp_path):
    got = contour_gammas(tmp_path, ["--gamma", "0.1", "0.2", "0.7"])
    assert got == pytest.approx([0.1, 0.2, 0.7])


def test_contour_rejects_decreasing_list(tmp_path, capsys):
    code, _ = run(tmp_path, ["contour", "--steps", "3", "--t-max", "1.0",
                             "--alpha-field", "1", "--gamma", "0.5", "0.2", "0.7"])
    assert code == 2
    assert "increasing" in capsys.readouterr().err


# ---------------------------------------------------------------- SVG outputs

def test_line_chart_svg_is_self_contained(tmp_path):
    code, out = run(tmp_path, ["entanglement", "--gamma", "0.1", "0.5",
                               "--steps", "16", "--t-max", "3.0",
                               "--alpha-field", "2", "--svg"])
    assert code == 0
    svg_path = out.with_suffix(".svg")
    text = svg_path.read_text()
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    assert "gamma=0.1" in text and "gamma=0.5" in text
    for banned in ("href", "url(", "<script", "@import"):
        assert banned not in text


def test_contour_svg_has_cells_and_iso_line(tmp_path):
    code, out = run(tmp_path, ["contour", "--gamma", "1.0", "--gamma-steps", "6",
                               "--steps", "10", "--t-max", "3.0",
                               "--alpha-field", "5", "--svg"])
    assert code == 0
    text = out.with_suffix(".svg").read_text()
    ET.fromstring(text)
    assert text.count("<rect") > 40  # heat cells plus the colorbar
    # white segments draw the 0.95 iso line; one more marks it on the colorbar
    assert text.count('stroke="white"') > 1


def heat_rgb_reference(u):
    # One value at a time: clamp, find the segment, round each channel.
    u = min(1.0, max(0.0, float(u)))
    for (u0, c0), (u1, c1) in zip(_PALETTE, _PALETTE[1:]):
        if u <= u1:
            w = (u - u0) / (u1 - u0)
            return [round(a + w * (b - a)) for a, b in zip(c0, c1)]
    return list(_PALETTE[-1][1])


def test_heat_colours_hit_the_palette_knots_and_clamp():
    knots = np.array([u for u, _ in _PALETTE])
    colours = np.array([rgb for _, rgb in _PALETTE])
    assert np.array_equal(_heat_rgb(knots), colours)
    ends = _heat_rgb(np.array([-0.5, np.nan, 1.0 + 1e-9, 7.0]))
    assert np.array_equal(ends, colours[[0, 0, -1, -1]])


def test_heat_colours_match_the_scalar_rule():
    # The grid holds 25 channels that land exactly on .5, rounded half to even.
    us = np.linspace(-0.1, 1.1, 24001)
    assert _heat_rgb(us).tolist() == [heat_rgb_reference(u) for u in us]


# ---------------------------------------------------------------- exit codes

def test_unnormalized_init_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, ["entanglement", "--gamma", "0.2", "--steps", "3",
                             "--t-max", "1.0", "--alpha-field", "1",
                             "--init", "1", "1", "0", "0"])
    assert code == 2
    assert "norm" in capsys.readouterr().err


def test_negative_gamma_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, ["entanglement", "--gamma", "-0.5", "--steps", "3",
                             "--t-max", "1.0", "--alpha-field", "1"])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, ["entanglement", "--config", "/no/such.cfg"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_variant_in_config_exits_2(tmp_path, capsys):
    # the closed form has no variants left, so the key itself is unknown
    cfg = tmp_path / "run.cfg"
    for value in ("experimental", "verbatim"):
        cfg.write_text(f"variant = {value}\n")
        code, _ = run(tmp_path, ["entanglement", "--config", str(cfg)])
        assert code == 2
        assert "unknown key 'variant'" in capsys.readouterr().err


def test_variant_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, ["entanglement", "--variant", "verbatim"])
    assert exc.value.code == 2


def test_g0_flag_is_gone(tmp_path, capsys):
    # the scalar channel sees the coupling only through q(t, gamma)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, ["entanglement", "--g0", "2"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g0 = 1\n")
    code, _ = run(tmp_path, ["entanglement", "--config", str(cfg)])
    assert code == 2
    assert "unknown key 'g0'" in capsys.readouterr().err


def test_seed_config_key_is_gone(tmp_path, capsys):
    # sweeps draw no random numbers; verify takes its seed from the flag only
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    code, _ = run(tmp_path, ["entanglement", "--config", str(cfg)])
    assert code == 2
    assert "unknown key 'seed'" in capsys.readouterr().err


def test_alpha_u_above_one_without_beta_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, ["fidelity", "--gamma", "0.2", "--steps", "3",
                             "--t-max", "1.0", "--alpha-field", "1",
                             "--alpha-u", "1.2"])
    assert code == 2
    assert "exceeds 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("fidelity", ["--alpha-u", "nan"]),
    ("fidelity", ["--beta-u", "nan"]),
    ("contour", ["--alpha-u", "nan"]),
])
def test_nan_unknown_qubit_exits_2(tmp_path, capsys, command, flags):
    code, out = run(tmp_path, [command, "--gamma", "0.2", "--steps", "3"] + flags)
    assert code == 2
    assert "unknown qubit has norm nan" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exits_3(tmp_path, capsys):
    code = cli.main(["entanglement", "--gamma", "0.2", "--steps", "3",
                     "--t-max", "1.0", "--alpha-field", "1",
                     "--out", str(tmp_path / "missing_dir" / "x.csv")])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err


def test_steps_below_two_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, ["entanglement", "--gamma", "0.2", "--steps", "1",
                             "--t-max", "1.0", "--alpha-field", "1"])
    assert code == 2
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--gamma", "nan"], "gamma values must be finite"),
    (["--omega", "inf"], "--omega must be finite"),
    (["--t-max", "inf"], "--t-max must be finite"),
    (["--alpha-field", "inf"], "--alpha-field must be finite"),
    (["--alpha-field", "nan"], "--alpha-field must be finite"),
    # finite on its own, but omega * t at t_max = 10 overflows
    (["--omega", "1e308"], "--omega times --t-max must be finite"),
    (["--init", "nan", "0", "0", "0"], "initial amplitudes have norm nan"),
])
def test_non_finite_inputs_exit_2(tmp_path, capsys, flags, named):
    code, out = run(tmp_path, ["entanglement", "--gamma", "0.2", "--steps", "3"] + flags)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_svg_chart_path_equal_to_csv_path_exits_2(tmp_path, capsys):
    # the chart goes to the CSV path with a .svg suffix, which here is the CSV itself
    out = tmp_path / "chart.svg"
    code = cli.main(["entanglement", "--gamma", "0.2", "--steps", "3",
                     "--alpha-field", "1", "--out", str(out), "--svg"])
    assert code == 2
    captured = capsys.readouterr()
    assert "overwrite the CSV" in captured.err
    assert "wrote" not in captured.out
    assert not out.exists()


# ---------------------------------------------------------------- verify

def test_verify_rejects_negative_seed_before_any_work(monkeypatch, capsys):
    def refuse(seed):
        raise AssertionError("verification ran")

    monkeypatch.setattr(cli, "run_verification", refuse)
    code = cli.main(["verify", "--seed", "-1"])
    assert code == 2
    assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err


def test_verify_command_reports_and_exits_zero(capsys):
    code = cli.main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert sum(line.startswith("[PASS]") for line in lines) >= 12
    assert not any(line.startswith("[FAIL]") for line in lines)
    assert "passed, 0 failed" in out
    # Every row as stored in the benchmark reference, in order and to the
    # printed digit. mc_short_time's detail predates its current gate, so
    # that row is held to its status and name only.
    want = [line for line in VERIFY_REFERENCE.read_text().splitlines() if line.startswith("[")]
    assert len(lines) == len(want)
    for got, ref in zip(lines, want):
        if ref.startswith("[PASS] mc_short_time:"):
            got, ref = got.split(":", 1)[0], ref.split(":", 1)[0]
        assert got == ref
