"""Command-line interface: flags, settings precedence, CSV and SVG outputs,
exit codes and rerun determinism."""

import argparse
import csv
import errno
import os
import re
import stat
import subprocess
import sys
import threading
import types
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape
from pathlib import Path

import numpy as np
import pytest

from chaocav import cli
from chaocav.svg import _PALETTE, _heat_rgb, escape, render_line_chart

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
    with pytest.raises(ValueError):
        cli.parse_complex(bad)


def parse(argv):
    return vars(cli.parse_settings(argv))


def test_every_config_key_sets_a_default():
    # the parser holds each setting's default; a preset is flags of its own
    # command and may set only settings that have one, so it cannot leave a
    # value nothing reads
    for name, (command, flags) in cli.PRESETS.items():
        defaults = parse([command])
        preset = vars(cli.build_parser().parse_args([command, *flags]))
        changed = {key for key, value in preset.items() if value != defaults[key]}
        assert changed and all(defaults[key] is not None for key in changed), name


# Each flag that sets a setting, with the parsed values it must produce.
# --init and --alpha-u stay text until _finalize reads them with parse_complex.
FLAG_CASES = [
    (["--gamma", "0.1", "0.7"], {"gamma": [0.1, 0.7]}),
    (["--alpha-field", "2.5"], {"alpha_field": 2.5}),
    (["--t-max", "3.5"], {"t_max": 3.5}),
    (["--steps", "7"], {"steps": 7}),
    (["--gamma-steps", "9"], {"gamma_steps": 9}),
    (["--init", "0.6", "0,0.8", "0", "0"], {"init": ["0.6", "0,0.8", "0", "0"]}),
    (["--alpha-u", "0.6,0.1"], {"alpha_u": "0.6,0.1"}),
    (["--omega", "2.5"], {"omega_rabi": 2.5}),
    (["--eps-trunc", "1e-9"], {"eps_trunc": 1e-9}),
    (["--out", "run.csv"], {"out": "run.csv"}),
    (["--svg"], {"svg": True}),
]


@pytest.mark.parametrize("flags, keys", FLAG_CASES,
                         ids=[flags[0] for flags, _ in FLAG_CASES])
def test_flag_sets_its_settings_key(flags, keys):
    # each flag's dest is its key; the flag changes those keys alone, to
    # values of the type _finalize reads
    defaults = parse(["contour"])
    settings = parse(["contour"] + flags)
    assert settings == {**defaults, **keys}
    assert settings != defaults
    assert [type(settings[key]) for key in keys] == [type(value) for value in keys.values()]


SWEEP_FLAGS = {"--fig", "--gamma", "--alpha-field", "--t-max", "--steps", "--init",
               "--omega", "--eps-trunc", "--out", "--svg", "--seed"}
QUBIT_FLAGS = {"--alpha-u"}


def test_option_surface_is_pinned():
    # every settable value is one more configuration to test and measure:
    # a new flag or key must be added here on purpose
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {opt for a in sp._actions for opt in a.option_strings
                    if opt.startswith("--") and opt != "--help"}
             for name, sp in commands.items()}
    assert flags == {"entanglement": SWEEP_FLAGS,
                     "fidelity": SWEEP_FLAGS | QUBIT_FLAGS,
                     "contour": SWEEP_FLAGS | QUBIT_FLAGS | {"--gamma-steps"},
                     "verify": {"--seed"}}
    # each setting is one flag's dest, and the parser holds its default
    defaults = parse(["contour"])
    assert set(defaults) == {"command", "fig", "seed", "gamma", "alpha_field", "t_max",
                             "steps", "gamma_steps", "init", "alpha_u", "omega_rabi",
                             "eps_trunc", "out", "svg"}
    assert {key for key, value in defaults.items() if value is None} == {"fig", "seed", "out"}


def test_every_settings_flag_has_a_case():
    # contour has every sweep flag; each dest other than the flags that set
    # no setting has a case above
    dests = set(parse(["contour"]))
    cased = {key for _, keys in FLAG_CASES for key in keys}
    assert cased == dests - {"command", "fig", "seed"}


# ---------------------------------------------------------------- precedence

FIG2 = parse(["fidelity", *cli.PRESETS["2"][1]])


def test_preset_beats_default():
    # the preset's flags replace their defaults; every other key keeps its default
    settings = parse(["fidelity", "--fig", "2"])
    assert settings == {**FIG2, "fig": "2"}
    assert settings["t_max"] == 3.0 != parse(["fidelity"])["t_max"]


def test_flag_beats_preset(tmp_path):
    # the preset's flags are read first, so a given flag wins wherever it stands
    for argv in (["fidelity", "--fig", "2", "--steps", "4", "--alpha-field", "1"],
                 ["fidelity", "--steps", "4", "--alpha-field", "1", "--fig", "2"]):
        settings = parse(argv)
        assert settings == {**FIG2, "fig": "2", "steps": 4, "alpha_field": 1.0}
        code, out = run(tmp_path, argv)
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 5 * 4  # the flag's steps for each of the preset's gammas
        assert rows[-1][0] == pytest.approx(3.0)  # the preset's t_max, not the default 10
        assert all(r[2] == 1.0 for r in rows)  # the flag's field, not the preset's 5


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_preset_is_its_flags(tmp_path, name):
    command, flags = cli.PRESETS[name]
    outputs = []
    for argv, stem in (([command, *flags], "flags"), ([command, "--fig", name], "fig")):
        out = tmp_path / f"{stem}.csv"
        assert cli.main([*argv, "--svg", "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), out.with_suffix(".svg").read_bytes()))
    assert outputs[0] == outputs[1]


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
    # the dark antisymmetric pair has fidelity 0, which rounds to -5.6e-17
    # at t = 10; the sweep clamps it to 0
    code, out = run(tmp_path, ["fidelity", "--init", "0", "0.70710678118654752",
                               "-0.70710678118654752", "0", "--alpha-field", "0",
                               "--gamma", "1e300", "--steps", "3"])
    assert code == 0
    assert [line.split(",")[5] for line in out.read_text().splitlines()[1:]] == [
        "0.000000000000e+00"] * 3


def test_unreachable_branch_writes_nan_fidelity(tmp_path, capsys):
    # |ge> with alpha_u = 0 leaves the phi_plus branch empty at t = 0
    code, out = run(tmp_path, ["fidelity", "--init", "0", "1", "0", "0", "--alpha-u", "0",
                               "--gamma", "0", "--steps", "3"])
    assert code == 0
    assert capsys.readouterr().err == ""
    first = out.read_text().splitlines()[1].split(",")
    assert first[0] == "0.000000000000e+00"
    assert first[5] == "nan"
    assert first[10] == "0.000000000000e+00"  # weight
    _, rows = read_csv(out)
    assert all(r[10] > 1e-15 and not np.isnan(r[5]) for r in rows[1:])


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


def test_empty_out_exits_2(tmp_path, monkeypatch, capsys):
    # only a missing --out takes the default name
    monkeypatch.chdir(tmp_path)
    code = cli.main(["entanglement", "--gamma", "0.2", "--steps", "3", "--out", ""])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: --out must name a file" in captured.err
    assert "wrote" not in captured.out
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("out", [".", "..", "./", "sub/", "sub/."])
@pytest.mark.parametrize("svg", [False, True], ids=["csv", "svg"])
def test_out_without_a_file_name_exits_2(tmp_path, monkeypatch, capsys, out, svg):
    # a path with no file-name part names no CSV and no chart beside it
    monkeypatch.chdir(tmp_path)
    argv = ["entanglement", "--gamma", "0.2", "--steps", "3", "--out", out]
    code = cli.main(argv + ["--svg"] * svg)
    assert code == 2
    captured = capsys.readouterr()
    assert f"error: --out must name a file, got {out!r}" in captured.err
    assert "wrote" not in captured.out
    assert not any(tmp_path.iterdir())


def test_negative_zero_alpha_prints_as_zero(tmp_path):
    # the column prints the built field's alpha, and coherent_weights
    # stores a zero amplitude as 0.0
    code, out = run(tmp_path, ["entanglement", "--alpha-field", "-0", "--steps", "3"])
    assert code == 0
    cells = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
    assert cells == ["0.000000000000e+00"] * 3


@pytest.mark.parametrize("t_max", ["0", "-1"])
def test_non_positive_t_max_exits_2(tmp_path, capsys, t_max):
    # every time grid starts at the t = 0 preparation
    code, out = run(tmp_path, ["entanglement", "--t-max", t_max])
    assert code == 2
    assert "--t-max must be > 0" in capsys.readouterr().err
    assert not out.exists()


def test_init_flag_changes_preparation(tmp_path):
    code, out = run(tmp_path, ["entanglement", "--gamma", "0.2", "--steps", "3",
                               "--t-max", "1.0", "--alpha-field", "2",
                               "--init", "0.6", "0", "0", "0,0.8"])
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0][3] == pytest.approx(2.0 * 0.6 * 0.8, abs=1e-9)


GRID = ["--gamma", "0.2", "--steps", "3", "--t-max", "1.0", "--alpha-field", "1"]


@pytest.mark.parametrize("argv, key, value", [
    (["fidelity", "--init", "0.6", "0", "0", "-0.1,0.7937253933193772"],
     "init", ["0.6", "0", "0", "-0.1,0.7937253933193772"]),
    (["fidelity", "--alpha-u", "-0.6,0.8"], "alpha_u", "-0.6,0.8"),
    (["entanglement", "--omega", "-1e3"], "omega_rabi", -1000.0),
], ids=["init", "alpha-u", "omega"])
def test_negative_values_in_the_documented_forms_parse(tmp_path, argv, key, value):
    # argparse's own rule takes only -5 and -.5 as negative numbers
    assert parse(argv)[key] == value
    code, out = run(tmp_path, argv + GRID)
    assert code == 0 and out.exists()


def test_an_option_after_a_short_init_is_still_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, ["fidelity", "--init", "0.6", "0", "0", "--alpha-u", "1"])
    assert exc.value.code == 2
    assert "expected 4 argument" in capsys.readouterr().err


def test_omega_is_inert_on_x_preparations(tmp_path):
    # with c01 = c10 = 0, as in every preset, exp(-i omega t) cancels from
    # the state; what is left is eigensolver rounding in doe and fidelity
    tables = []
    for omega in ("0", "1", "3.7"):
        out = tmp_path / f"omega_{omega}.csv"
        assert cli.main(["fidelity", "--fig", "2", "--omega", omega, "--out", str(out)]) == 0
        tables.append(np.array(read_csv(out)[1]))
    for other in tables[1:]:
        assert np.max(np.abs(other - tables[0])) <= 1e-12


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


@pytest.mark.parametrize("argv", [
    # doe spans 0.9999999999999996..1.0
    ["entanglement", "--gamma", "0", "--steps", "50", "--svg"],
    # the gamma axis spans 0.5..0.5000000000000001
    ["contour", "--gamma", "0.5", "0.5000000000000001", "--gamma-steps", "2", "--steps", "3",
     "--svg"],
])
def test_chart_of_a_span_a_few_ulps_wide_finishes(tmp_path, argv):
    # Adding the tick step to a value can leave it unchanged there, so a
    # tick loop that waits for the value to pass the span never ends. A
    # subprocess with a timeout turns such a hang into a failure.
    out = tmp_path / "out.csv"
    code = "import sys; from chaocav.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)], capture_output=True,
                   check=True, timeout=60, cwd=Path(cli.__file__).parents[1])
    ET.parse(out.with_suffix(".svg"))


def test_line_chart_breaks_at_nan_and_dots_lone_points():
    y = np.array([0.1, 0.2, np.nan, 0.3, np.nan, np.nan, 0.4, 0.5, 0.6])
    text = render_line_chart([("s", np.arange(9.0), y)])
    ET.fromstring(text)
    polylines = re.findall(r'<polyline points="([^"]*)"', text)
    assert [len(p.split()) for p in polylines] == [2, 3]
    dots = re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', text)
    assert len(dots) == 1
    # the lone point sits between the two runs, at the pixel the runs use
    first = [float(v) for v in polylines[0].split()[-1].split(",")]
    last = [float(v) for v in polylines[1].split()[0].split(",")]
    cx, cy = (float(v) for v in dots[0])
    assert abs(cx - (first[0] + 2.0 * (last[0] - first[0]) / 5.0)) <= 0.01
    assert abs(cy - (first[1] + (last[1] - first[1]) / 2.0)) <= 0.01


def test_escape_matches_saxutils():
    text = "a&b<c>d\"e'f"
    assert escape(text) == sax_escape(text) == "a&amp;b&lt;c&gt;d\"e'f"


def test_cli_import_skips_the_network_modules():
    # xml.sax.saxutils would pull the first four in; html.escape does not.
    # numpy.polynomial takes about 4 ms to import and no sweep needs it:
    # the Monte Carlo oracle imports leggauss only when it runs.
    code = ("import sys, chaocav.cli; print(sorted({'urllib.request', 'http.client', "
            "'email', 'ssl', 'numpy.polynomial'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=Path(cli.__file__).parents[1])
    assert proc.stdout.strip() == "[]"


def test_package_root_exports_the_production_api():
    # the oracle's and the tests' helpers are imported from their own modules
    import chaocav

    assert sorted(chaocav.__all__) == ["AtomicInit", "CoherentField", "InvariantViolation",
                                       "SweepGrid", "UnknownQubit", "averaged_q",
                                       "coherent_weights", "run_verification", "sweep_grid"]
    public = {name for name, value in vars(chaocav).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(chaocav.__all__)


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


@pytest.mark.parametrize("argv", [["entanglement", "--gamma"],
                                  ["contour", "--fig", "3", "--gamma", "--steps", "3"]])
def test_bare_gamma_exits_2_through_argparse(tmp_path, capsys, argv):
    # --gamma takes one value or more, so no empty gamma list reaches the sweep
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, argv)
    assert exc.value.code == 2
    assert "--gamma: expected at least one argument" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    # settings come from flags and presets only; --config is no flag
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, ["entanglement", "--config", "/no/such.cfg"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_variant_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, ["entanglement", "--variant", "verbatim"])
    assert exc.value.code == 2


def test_field_convention_flag_is_gone(tmp_path):
    # --alpha-field is always the amplitude; the mean photon number is its square
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, ["entanglement", "--field-convention", "mean"])
    assert exc.value.code == 2


def test_g0_flag_is_gone(tmp_path):
    # the scalar channel sees the coupling only through q(t, gamma)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, ["entanglement", "--g0", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["fidelity", "contour"])
def test_beta_u_flag_is_gone(tmp_path, capsys, command):
    # outputs are invariant under a global phase of the unknown qubit, so
    # --alpha-u with the real completion sqrt(1 - |alpha_u|^2) reaches every state
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, [command, "--alpha-u", "0.8", "--beta-u", "0.6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --beta-u" in capsys.readouterr().err


def test_alpha_u_above_one_without_beta_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, ["fidelity", "--gamma", "0.2", "--steps", "3",
                             "--t-max", "1.0", "--alpha-field", "1",
                             "--alpha-u", "1.2"])
    assert code == 2
    assert "exceeds 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("fidelity", ["--alpha-u", "nan"]),
    ("fidelity", ["--alpha-u", "0,nan"]),
    ("contour", ["--alpha-u", "nan"]),
])
def test_nan_unknown_qubit_exits_2(tmp_path, capsys, command, flags):
    code, out = run(tmp_path, [command, "--gamma", "0.2", "--steps", "3"] + flags)
    assert code == 2
    assert "unknown qubit has norm nan" in capsys.readouterr().err
    assert not out.exists()


def test_drained_points_read_nan_and_the_rest_of_the_grid_is_written(tmp_path, capsys):
    # q^2 underflows at t = 10 (q = 1.6e-211) and drains a symmetric
    # one-excitation preparation with no photons; t = 0 (q = 1) and t = 5
    # keep a positive trace
    code, out = run(tmp_path, ["entanglement", "--init", "0", "0.70710678118654752",
                               "0.70710678118654752", "0", "--alpha-field", "0",
                               "--gamma", "3e3", "--steps", "3"])
    assert code == 0
    assert capsys.readouterr().err == ("warning: 1 of 3 grid points drained (pre_norm_trace 0); "
                                       "their doe is nan\n")
    lines = out.read_text().splitlines()[1:]
    assert [line.split(",")[3:] for line in lines] == [
        ["1.000000000000e+00", "1.000000000000e+00"],
        ["1.000000000000e+00", "1.551118809017e-211"],
        ["nan", "0.000000000000e+00"]]


def test_drained_scalar_state_exits_4(tmp_path, monkeypatch, capsys):
    # every CLI grid starts at t = 0, where q = 1, so the sweep is moved
    # off it: at t > 0 a gamma of 1e300 gives q = 0 everywhere
    real = cli.sweep_grid
    monkeypatch.setattr(cli, "sweep_grid", lambda times, *args, **kw: real(times + 1.0, *args, **kw))
    code, out = run(tmp_path, ["entanglement", "--init", "0", "0.70710678118654752",
                               "0.70710678118654752", "0", "--alpha-field", "0",
                               "--gamma", "1e300", "--steps", "3"])
    assert code == 4
    assert ("invariant violated: density matrix trace vanished at every grid point: q = 0, "
            "or a q whose square underflows, drained the scalar-channel state"
            in capsys.readouterr().err)
    assert not out.exists()


def test_unwritable_output_exits_3(tmp_path, capsys):
    code = cli.main(["entanglement", "--gamma", "0.2", "--steps", "3",
                     "--t-max", "1.0", "--alpha-field", "1",
                     "--out", str(tmp_path / "missing_dir" / "x.csv")])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err


def test_unwritable_chart_exits_3(tmp_path, capsys):
    out = tmp_path / "x.csv"
    out.with_suffix(".svg").mkdir()
    code = cli.main(["entanglement", "--gamma", "0.2", "--steps", "3",
                     "--alpha-field", "1", "--out", str(out), "--svg"])
    assert code == 3
    assert f"error: cannot write {out.with_suffix('.svg')}: " in capsys.readouterr().err


# ------------------------------------------------------ rewriting in place

SMALL_GRID = ["contour", "--gamma", "0.1", "0.3", "--gamma-steps", "2", "--steps", "3",
              "--t-max", "1.0", "--alpha-field", "1"]


def test_write_cuts_a_longer_file_to_the_new_bytes(tmp_path):
    path = tmp_path / "old.csv"
    path.write_bytes(b"x" * 10_000)
    cli._write(path, [b"abc", b"", b"def\n"])
    assert path.read_bytes() == b"abcdef\n"
    cli._write(path, [])
    assert path.read_bytes() == b""


@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002])
def test_new_file_gets_the_mode_of_a_truncating_open(tmp_path, mask):
    old = os.umask(mask)
    try:
        cli._write(tmp_path / "new.csv", [b"a"])
        with open(tmp_path / "opened.csv", "wb"):
            pass
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "new.csv").stat().st_mode)
    assert mode == 0o666 & ~mask == stat.S_IMODE((tmp_path / "opened.csv").stat().st_mode)


def test_devnull_is_written_without_a_cut():
    cli._write(os.devnull, [b"abc", b"def"])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_is_written_without_a_cut(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    cli._write(fifo, [b"abc", b"def\n"])
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b"abcdef\n"]


@pytest.mark.parametrize("previous", [None, b"x" * 10_000], ids=["new", "longer"])
@pytest.mark.parametrize("raised, caught, message", [
    (RuntimeError("stopped"), RuntimeError, "^stopped$"),
    (MemoryError("no room"), MemoryError, "^no room$"),
    (OSError("disk full"), OSError, "^cannot write .*fail.csv: disk full$"),
])
def test_failed_write_keeps_the_chunks_before_it(tmp_path, previous, raised, caught, message):
    path = tmp_path / "fail.csv"
    if previous is not None:
        path.write_bytes(previous)

    def chunks():
        yield b"first,"
        yield b"second\n"
        raise raised

    with pytest.raises(caught, match=message):
        cli._write(path, chunks())
    assert path.read_bytes() == b"first,second\n"


@pytest.mark.parametrize("limit, kept", [(None, b"first,second\n"), (9, b"first,sec")],
                         ids=["short writes", "error after short writes"])
def test_cut_follows_the_bytes_that_reached_the_file(tmp_path, monkeypatch, limit, kept):
    # os.write takes at most 4 bytes a call and, past limit bytes, fails as
    # a full disk does; the old file's tail must still go.
    path = tmp_path / "fail.csv"
    path.write_bytes(b"x" * 10_000)
    real_write, total = os.write, [0]

    def write(fd, data):
        room = 4 if limit is None else min(4, limit - total[0])
        if room <= 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        total[0] += real_write(fd, bytes(data[:room]))
        return min(room, len(data))

    monkeypatch.setattr(os, "write", write)
    if limit is None:
        cli._write(path, [b"first,", b"second\n"])
    else:
        with pytest.raises(OSError, match="^cannot write .*fail.csv: .*No space left"):
            cli._write(path, [b"first,", b"second\n"])
    monkeypatch.undo()
    assert path.read_bytes() == kept


def test_a_failed_cut_does_not_hide_the_error_that_stopped_the_write(tmp_path, monkeypatch):
    path = tmp_path / "cut.csv"
    path.write_bytes(b"x" * 100)

    def ftruncate(fd, length):
        raise OSError(errno.EIO, "Input/output error")

    def chunks():
        yield b"first\n"
        raise RuntimeError("stopped")

    monkeypatch.setattr(os, "ftruncate", ftruncate)
    with pytest.raises(RuntimeError, match="^stopped$"):
        cli._write(path, chunks())
    with pytest.raises(OSError, match="^cannot write .*cut.csv: .*Input/output error$"):
        cli._write(path, [b"first\n"])


def test_symlinked_out_writes_through_the_link(tmp_path):
    target, link, fresh = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "fresh.csv"
    target.write_bytes(b"x" * 10_000)
    link.symlink_to(target.name)
    assert cli.main(SMALL_GRID + ["--out", str(link)]) == 0
    assert cli.main(SMALL_GRID + ["--out", str(fresh)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()


def test_directory_out_exits_3(tmp_path, capsys):
    out = tmp_path / "taken.csv"
    out.mkdir()
    (out / "inside").write_bytes(b"kept")
    code = cli.main(SMALL_GRID + ["--out", str(out)])
    assert code == 3
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["inside"]
    assert (out / "inside").read_bytes() == b"kept"


@pytest.mark.parametrize("raised, code, err", [
    (ValueError("bad input"), 2, "error: bad input\n"),
    (MemoryError("Unable to allocate"), 2, "error: out of memory: Unable to allocate; "),
    (cli.InvariantViolation("trace below zero"), 4, "invariant violated: trace below zero\n"),
    (RuntimeError("a bug"), None, None),
], ids=["ValueError", "MemoryError", "InvariantViolation", "RuntimeError"])
def test_exception_class_sets_the_exit_code(tmp_path, monkeypatch, capsys, raised, code, err):
    # each exit code follows one exception class; any other error is a bug
    # and keeps its traceback
    def fail(*args, **kwargs):
        raise raised

    monkeypatch.setattr(cli, "sweep_grid", fail)
    argv = ["entanglement", "--gamma", "0.2", "--steps", "3"]
    if code is None:
        with pytest.raises(type(raised)):
            run(tmp_path, argv)
        return
    got, out = run(tmp_path, argv)
    assert got == code
    assert capsys.readouterr().err.startswith(err)
    assert not out.exists()


def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.10 GiB for an array")

    monkeypatch.setattr(cli, "sweep_grid", exhausted)
    code, out = run(tmp_path, ["entanglement", "--gamma", "0.2", "--steps", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: out of memory: Unable to allocate 9.10 GiB" in captured.err
    assert "wrote" not in captured.out
    assert not out.exists()


def test_out_of_memory_without_a_message_says_allocation_failed(tmp_path, monkeypatch, capsys):
    # a failed allocation in pure Python, such as a growing list, raises a bare MemoryError
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "sweep_grid", exhausted)
    code, _ = run(tmp_path, ["entanglement", "--gamma", "0.2", "--steps", "3"])
    assert code == 2
    assert "error: out of memory: allocation failed; " in capsys.readouterr().err


def test_gamma_whose_pi_gamma_overflows_runs(tmp_path, capsys):
    # q = 1 exactly at t = 0, so the first row is the preparation's
    code, out = run(tmp_path, ["entanglement", "--gamma", "1e308", "--steps", "3"])
    assert code == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    assert all(np.isfinite(rows).ravel())
    assert rows[0][3] == pytest.approx(1.0)  # the default Bell preparation


@pytest.mark.parametrize("flag", ["--steps", "--gamma-steps"])
def test_steps_below_two_exits_2(tmp_path, capsys, flag):
    code, _ = run(tmp_path, ["contour", flag, "1", "--t-max", "1.0", "--alpha-field", "1"])
    assert code == 2
    assert f"error: {flag} must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, count", [
    ("entanglement", "--steps", "10000000000000000000"),
    ("entanglement", "--steps", "9223372036854775807"),
    ("entanglement", "--steps", "4611686018427387904"),
    # 2**60 - 64, the smallest count that np.linspace cannot size
    ("entanglement", "--steps", "1152921504606846912"),
    ("contour", "--gamma-steps", "10000000000000000000"),
])
def test_count_beyond_any_array_exits_2(tmp_path, capsys, command, flag, count):
    # numpy cannot size an array of more than np.iinfo(np.intp).max bytes,
    # and raises ValueError or IndexError rather than MemoryError; the
    # count is rejected before anything is allocated
    code, out = run(tmp_path, [command, flag, count])
    assert code == 2
    assert f"error: {flag} = {count} is too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--gamma", "nan"], "gamma values must be finite"),
    (["--omega", "inf"], "--omega must be finite"),
    (["--t-max", "inf"], "--t-max must be finite"),
    (["--alpha-field", "inf"], "--alpha-field must be finite"),
    (["--alpha-field", "nan"], "--alpha-field must be finite"),
    # finite on its own, but omega * t at t_max = 10 overflows
    (["--omega", "1e308"], "--omega times --t-max must be finite"),
    (["--init", "nan", "0", "0", "0"], "initial amplitudes have norm nan"),
    # finite on its own, but its square overflows
    (["--alpha-field", "1e200"], "alpha * alpha must be finite"),
])
def test_non_finite_inputs_exit_2(tmp_path, capsys, flags, named):
    code, out = run(tmp_path, ["entanglement", "--gamma", "0.2", "--steps", "3"] + flags)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["3e9", "1e10", "1e100"])
def test_alpha_beyond_any_array_exits_2(tmp_path, capsys, alpha):
    # alpha * alpha is finite, but no array holds that many photon levels
    code, out = run(tmp_path, ["entanglement", "--gamma", "0.5", "--steps", "3",
                               "--alpha-field", alpha])
    assert code == 2
    assert f"alpha = {float(alpha):g} is too large" in capsys.readouterr().err
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
    # printed digit, except the rows below, pinned here in full at the
    # default seed 8. The reference text of the three Monte Carlo rows
    # predates the sampler of averaged_q's own process; that of the five
    # integrator rows predates the exact propagator, which compares against
    # "exact" rather than "rk4" and has no step error left. The
    # averaged_frozen_limit reference is now the preparation itself, not a
    # frozen table at zero coupling. negativity_vs_integrator moved again
    # when 4x4 partial transposes went to LAPACK's eigensolvers.
    changed_rows = {
        "amplitudes_vs_integrator": "[PASS] amplitudes_vs_integrator: max |closed - exact| "
                                    "3.17e-16 over sectors [0, 1, 5, 25] at t=1",
        "amplitudes_vs_integrator_rabi": "[INFO] amplitudes_vs_integrator_rabi: spin-spin phases "
                                         "are approximate: max |closed - exact| 1.75e-01 at "
                                         "omega=1, t=1",
        "verbatim_vs_integrator": "[INFO] verbatim_vs_integrator: max |verbatim - exact| 0.266 "
                                  "at omega=0, t=1",
        "norm_conservation": "[PASS] norm_conservation: relative drift 5.24e-16 at t=10 "
                             "(tolerance 1e-12)",
        "averaged_frozen_limit": "[PASS] averaged_frozen_limit: max state diff 1.11e-16, "
                                 "negativity diff 2.22e-16",
        "negativity_vs_integrator": "[PASS] negativity_vs_integrator: max negativity diff "
                                    "4.44e-16 at t in (0.5, 1.0)",
        "mc_short_time": "[PASS] mc_short_time: t=0.005: gap 6.71e-08 vs 3*se 3.34e-07; "
                         "t=0.01: gap 2.71e-07 vs 3*se 1.34e-06",
        "mc_decay_rate": "[PASS] mc_decay_rate: estimated rate 0.8778 vs 0.8862 (0.95% off)",
        "mc_stderr_scaling": "[PASS] mc_stderr_scaling: se(n)/se(4n) = 1.999, expected about 2",
    }
    want = [line for line in VERIFY_REFERENCE.read_text().splitlines() if line.startswith("[")]
    assert len(lines) == len(want)
    for got, ref in zip(lines, want):
        name = ref.split(":", 1)[0].split("] ", 1)[1]
        assert got == changed_rows.get(name, ref)


def test_process_caches_carry_no_state_between_calls(tmp_path, capsys):
    # main keeps one parser per process, and the oracle one quadrature rule
    # and the Bell projectors; none of them may leak one call into the next.
    def fig3(name):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["contour", "--fig", "3", "--svg", "--out", str(out)]) == 0
        return out.read_bytes(), out.with_suffix(".svg").read_bytes()

    before = fig3("before")
    capsys.readouterr()
    reports = []
    for _ in range(2):
        assert cli.main(["verify"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert fig3("after") == before
