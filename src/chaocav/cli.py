"""Command-line front end: sweep commands, figure presets, CSV and SVG output.

Settings are layered: built-in defaults, then a config file, then a
figure preset, then explicit flags. Exit codes: 0 success, 2 bad
configuration, 3 I/O failure, 4 violated invariant or failed
verification.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .dynamics import AtomicInit
from .field import coherent_weights
from .linalg import InvariantViolation
from .oracle import run_verification
from .svg import render_contour_chart, render_line_chart
from .sweep import sweep_grid
from .teleport import UnknownQubit

SQRT_HALF = 1.0 / math.sqrt(2.0)


class ConfigError(Exception):
    """Rejected settings; reported on stderr with exit code 2."""


DEFAULTS = {
    "gammas": (0.5,),
    "alpha_field": 5.0,
    "t_min": 0.0,
    "t_max": 10.0,
    "steps": 500,
    "gamma_steps": 100,
    "c00": complex(SQRT_HALF),
    "c01": 0.0j,
    "c10": 0.0j,
    "c11": complex(SQRT_HALF),
    "alpha_u": complex(0.95),
    "beta_u": None,
    "omega_rabi": 1.0,
    "field_convention": "amplitude",
    "eps_trunc": 1e-12,
    "out": None,
    "svg": False,
}

_FIG1_INIT = {"c00": complex(0.2), "c01": 0.0j, "c10": 0.0j,
              "c11": complex(math.sqrt(0.96))}
_BELL_INIT = {"c00": complex(SQRT_HALF), "c01": 0.0j, "c10": 0.0j,
              "c11": complex(SQRT_HALF)}

PRESETS = {
    "1a": {"command": "entanglement", "gammas": (0.1, 0.5, 0.9),
           "alpha_field": 5.0, "t_min": 0.0, "t_max": 10.0, "steps": 500,
           **_FIG1_INIT},
    "1b": {"command": "entanglement", "gammas": (0.1, 0.5, 0.9),
           "alpha_field": 6.0, "t_min": 0.0, "t_max": 10.0, "steps": 500,
           **_FIG1_INIT},
    "2": {"command": "fidelity", "gammas": (0.0, 0.25, 0.5, 0.75, 1.0),
          "alpha_field": 5.0, "t_min": 0.0, "t_max": 3.0, "steps": 300,
          "alpha_u": complex(0.95), "beta_u": None, "omega_rabi": 1.0,
          **_BELL_INIT},
    "3": {"command": "contour", "gammas": (0.0, 1.0), "gamma_steps": 100,
          "alpha_field": 5.0, "t_min": 0.0, "t_max": 3.0, "steps": 150,
          "alpha_u": complex(0.95), "beta_u": None, "omega_rabi": 1.0,
          **_BELL_INIT},
}


def parse_complex(text):
    """Complex literal as 're,im', or a bare real part."""
    parts = str(text).strip().split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]))
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"cannot parse complex value {text!r}; expected 're' or 're,im'")


def _parse_bool(text):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean value {text!r}")


def _parse_float_list(text):
    parts = str(text).replace(",", " ").split()
    if not parts:
        raise ConfigError("expected at least one number")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"cannot parse number list {text!r}") from None


_CONFIG_PARSERS = {
    "gamma": ("gammas", _parse_float_list),
    "alpha_field": ("alpha_field", float),
    "t_min": ("t_min", float),
    "t_max": ("t_max", float),
    "steps": ("steps", int),
    "gamma_steps": ("gamma_steps", int),
    "c00": ("c00", parse_complex),
    "c01": ("c01", parse_complex),
    "c10": ("c10", parse_complex),
    "c11": ("c11", parse_complex),
    "alpha_u": ("alpha_u", parse_complex),
    "beta_u": ("beta_u", parse_complex),
    "omega_rabi": ("omega_rabi", float),
    "field_convention": ("field_convention", str),
    "eps_trunc": ("eps_trunc", float),
    "out": ("out", str),
    "svg": ("svg", _parse_bool),
}


def parse_config_file(path):
    """key = value lines, # comments, keys matching the long CLI flags."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key = key.strip().lower().replace("-", "_")
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        target, parser = _CONFIG_PARSERS[key]
        try:
            settings[target] = parser(value.strip())
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return settings


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chaocav",
        description="Entanglement and teleportation through a randomly phased "
                    "atom-cavity coupling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--fig", choices=sorted(PRESETS),
                        help="figure preset; must belong to this command")
        sp.add_argument("--gamma", type=float, nargs="+", metavar="G",
                        help="chaotic parameter value(s)")
        sp.add_argument("--alpha-field", type=float,
                        help="coherent field parameter (see --field-convention)")
        sp.add_argument("--t-max", type=float, help="end of the time grid")
        sp.add_argument("--steps", type=int, help="number of time samples")
        sp.add_argument("--init", nargs=4, metavar=("C00", "C01", "C10", "C11"),
                        help="initial amplitudes over |gg>,|ge>,|eg>,|ee> as 're,im'")
        sp.add_argument("--omega", type=float, dest="omega_rabi",
                        help="spin-spin coupling strength")
        sp.add_argument("--field-convention", choices=("amplitude", "mean"),
                        help="read --alpha-field as the amplitude or as the mean "
                             "photon number (default amplitude)")
        sp.add_argument("--eps-trunc", type=float,
                        help="photon-distribution tail mass to drop (default 1e-12)")
        sp.add_argument("--out", help="output CSV path (default chaocav_<command>.csv)")
        sp.add_argument("--svg", action="store_true", default=None,
                        help="also render an SVG chart next to the CSV")
        sp.add_argument("--seed", type=int,
                        help="ignored: sweeps are deterministic and draw no random numbers")
        sp.add_argument("--config", help="key = value settings file")

    sp_ent = sub.add_parser("entanglement",
                            help="degree of entanglement over a time grid")
    add_common(sp_ent)
    sp_fid = sub.add_parser("fidelity", help="teleportation fidelity over a time grid")
    add_common(sp_fid)
    sp_fid.add_argument("--alpha-u", help="unknown qubit amplitude on |g>, 're,im'")
    sp_fid.add_argument("--beta-u", help="unknown qubit amplitude on |e>, 're,im' "
                                         "(default: completes the norm)")
    sp_con = sub.add_parser("contour", help="fidelity on a (t, gamma) grid")
    add_common(sp_con)
    sp_con.add_argument("--alpha-u", help="unknown qubit amplitude on |g>, 're,im'")
    sp_con.add_argument("--beta-u", help="unknown qubit amplitude on |e>, 're,im' "
                                         "(default: completes the norm)")
    sp_con.add_argument("--gamma-steps", type=int,
                        help="number of gamma samples when --gamma gives a range")
    sp_ver = sub.add_parser("verify", help="run the independent cross-checks")
    sp_ver.add_argument("--seed", type=int, default=8,
                        help="seed for the statistical checks (default 8)")
    return parser


def _merge_settings(args):
    settings = dict(DEFAULTS)
    if args.config:
        settings.update(parse_config_file(args.config))
    if args.fig:
        preset = PRESETS[args.fig]
        if preset["command"] != args.command:
            raise ConfigError(f"preset {args.fig} belongs to the "
                              f"{preset['command']} command, not {args.command}")
        settings.update({k: v for k, v in preset.items() if k != "command"})
    overrides = {
        "alpha_field": args.alpha_field, "t_max": args.t_max, "steps": args.steps,
        "omega_rabi": args.omega_rabi,
        "field_convention": args.field_convention, "eps_trunc": args.eps_trunc,
        "out": args.out, "svg": args.svg,
    }
    if args.gamma is not None:
        overrides["gammas"] = tuple(args.gamma)
    if args.init is not None:
        for key, text in zip(("c00", "c01", "c10", "c11"), args.init):
            overrides[key] = parse_complex(text)
    for key in ("alpha_u", "beta_u", "gamma_steps"):
        if hasattr(args, key) and getattr(args, key) is not None:
            value = getattr(args, key)
            overrides[key] = parse_complex(value) if key != "gamma_steps" else value
    settings.update({k: v for k, v in overrides.items() if v is not None})
    return settings


# Settings that must be finite, with the flag that sets each.
_FINITE_FLAGS = (("omega_rabi", "--omega"), ("alpha_field", "--alpha-field"),
                 ("t_max", "--t-max"))


def _finalize(settings, command):
    """Validate the merged settings and build the model objects."""
    if settings["field_convention"] not in ("amplitude", "mean"):
        raise ConfigError(f"unknown field convention {settings['field_convention']!r}")
    for key, flag in _FINITE_FLAGS:
        if not math.isfinite(float(settings[key])):
            raise ConfigError(f"{flag} must be finite, got {settings[key]}")
    alpha = float(settings["alpha_field"])
    if settings["field_convention"] == "mean":
        if alpha < 0.0:
            raise ConfigError(f"mean photon number must be >= 0, got {alpha}")
        alpha = math.sqrt(alpha)
    try:
        field = coherent_weights(alpha, eps_trunc=float(settings["eps_trunc"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        init = AtomicInit(settings["c00"], settings["c01"],
                          settings["c10"], settings["c11"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    steps = int(settings["steps"])
    t_min = float(settings["t_min"])
    t_max = float(settings["t_max"])
    if steps < 2:
        raise ConfigError(f"steps must be >= 2, got {steps}")
    if t_min < 0.0 or not t_max > t_min:
        raise ConfigError(f"need 0 <= t_min < t_max, got t_min={t_min}, t_max={t_max}")
    omega_rabi = float(settings["omega_rabi"])
    if not math.isfinite(omega_rabi * t_max):
        # exp(-i omega t) of an infinite phase is NaN in every later column.
        raise ConfigError(f"--omega times --t-max must be finite, got {omega_rabi} * {t_max}")
    times = np.linspace(t_min, t_max, steps)
    gammas = np.asarray(settings["gammas"], dtype=float)
    if gammas.size == 0 or np.any(gammas < 0.0) or np.any(~np.isfinite(gammas)):
        raise ConfigError(f"gamma values must be finite and >= 0, got {settings['gammas']}")
    if command == "contour":
        gamma_steps = int(settings["gamma_steps"])
        if gamma_steps < 2:
            raise ConfigError(f"gamma_steps must be >= 2, got {gamma_steps}")
        if gammas.size == 1:
            gammas = np.linspace(0.0, float(gammas[0]), gamma_steps)
        elif gammas.size == 2:
            gammas = np.linspace(float(gammas[0]), float(gammas[1]), gamma_steps)
        if gammas.size < 2 or not np.all(np.diff(gammas) > 0.0):
            raise ConfigError("contour needs an increasing gamma range")
    unknown = None
    if command in ("fidelity", "contour"):
        alpha_u = settings["alpha_u"]
        beta_u = settings["beta_u"]
        if beta_u is None:
            rest = 1.0 - abs(alpha_u) ** 2
            if rest < -1e-12:
                raise ConfigError(f"|alpha_u| = {abs(alpha_u):.6g} exceeds 1 and "
                                  "beta_u was not given")
            beta_u = complex(math.sqrt(max(rest, 0.0)))
        try:
            unknown = UnknownQubit(alpha_u, beta_u)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    out = settings["out"] or f"chaocav_{command}.csv"
    if settings["svg"] and Path(_svg_path(out)) == Path(out):
        raise ConfigError(f"--svg would overwrite the CSV {out} with the chart; "
                          "give --out a name that does not end in .svg")
    return {
        "field": field, "init": init, "times": times, "gammas": gammas,
        "unknown": unknown, "alpha": alpha, "omega_rabi": omega_rabi,
        "out": out, "svg": bool(settings["svg"]),
    }


def _write_csv(path, header, blocks):
    """Header line, then each block of already formatted lines."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for block in blocks:
                fh.write(block)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _write_svg(path, content):
    try:
        Path(path).write_text(content, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _svg_path(out):
    return str(Path(out).with_suffix(".svg"))


ENT_HEADER = "t,gamma,alpha_field,doe,pre_norm_trace"
FID_HEADER = ENT_HEADER + ",fidelity,kappa1,kappa2_re,kappa2_im,kappa4,weight"


def _csv_blocks(grid, alpha):
    # One block of %.12e lines per gamma row, columns in the order of
    # ENT_HEADER or FID_HEADER. t, gamma and alpha_field repeat, so each is
    # formatted once and set into the block's format string, which then
    # takes the row's other values in a single % operation. A formatted
    # number holds no "%".
    t_text = ["%.12e," % t for t in grid.t.tolist()]
    for i, gamma in enumerate(grid.gammas):
        cols = [grid.doe[i], grid.pre_norm_trace[i]]
        if grid.fidelity is not None:
            cols += [grid.fidelity[i], grid.kappa1[i], grid.kappa2[i].real,
                     grid.kappa2[i].imag, grid.kappa4[i], grid.weight[i]]
        line = "%.12e,%.12e," % (gamma, alpha) + ",".join(["%.12e"] * len(cols)) + "\n"
        yield (line.join(t_text) + line) % tuple(np.column_stack(cols).ravel().tolist())


def _chart(command, grid):
    if command == "contour":
        return render_contour_chart(grid.t, grid.gammas, grid.fidelity,
                                    title="Teleportation fidelity", xlabel="t",
                                    ylabel="gamma", iso_levels=(0.95,))
    if command == "entanglement":
        values, title, ylabel = grid.doe, "Degree of entanglement", "DoE"
    else:
        values, title, ylabel = grid.fidelity, "Teleportation fidelity", "fidelity"
    series = [(f"gamma={gamma:g}", grid.t, values[i]) for i, gamma in enumerate(grid.gammas)]
    return render_line_chart(series, title=title, xlabel="t", ylabel=ylabel)


def run_sweep(cfg, command):
    """Run one sweep command: the grid, its CSV and, with --svg, its chart."""
    grid = sweep_grid(cfg["times"], cfg["gammas"], cfg["init"], cfg["field"],
                      cfg["unknown"], omega_rabi=cfg["omega_rabi"])
    header = ENT_HEADER if grid.fidelity is None else FID_HEADER
    _write_csv(cfg["out"], header, _csv_blocks(grid, cfg["alpha"]))
    written = [cfg["out"]]
    if cfg["svg"]:
        _write_svg(_svg_path(cfg["out"]), _chart(command, grid))
        written.append(_svg_path(cfg["out"]))
    return written


def run_verify(seed):
    rows = run_verification(seed=seed)
    failed = 0
    for row in rows:
        print(f"[{row.status}] {row.name}: {row.detail}")
        failed += row.status == "FAIL"
    passed = sum(r.status == "PASS" for r in rows)
    info = sum(r.status == "INFO" for r in rows)
    print(f"{passed} passed, {failed} failed, {info} informational")
    return 4 if failed else 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            return run_verify(args.seed)
        settings = _merge_settings(args)
        cfg = _finalize(settings, args.command)
        written = run_sweep(cfg, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
