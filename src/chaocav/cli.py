"""Command-line front end: sweep commands, figure presets, CSV and SVG output.

Settings are layered: built-in defaults, then a figure preset, then
explicit flags. Exit codes: 0 success, 2 bad settings or a run too large
for memory, 3 I/O failure, 4 violated invariant or failed verification.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

import numpy as np

from .dynamics import INV_SQRT2, NORM_TOL, AtomicInit
from .field import coherent_weights
from .linalg import InvariantViolation
from .oracle import run_verification
from .svg import render_contour_chart, render_line_chart
from .sweep import sweep_grid
from .teleport import UnknownQubit


class ConfigError(Exception):
    """Rejected settings; reported on stderr with exit code 2."""


_FIG1_INIT = {"c00": complex(0.2), "c01": 0.0j, "c10": 0.0j,
              "c11": complex(math.sqrt(0.96))}
_BELL_INIT = {"c00": complex(INV_SQRT2), "c01": 0.0j, "c10": 0.0j,
              "c11": complex(INV_SQRT2)}

PRESETS = {
    "1a": {"command": "entanglement", "gamma": (0.1, 0.5, 0.9),
           "alpha_field": 5.0, "t_max": 10.0, "steps": 500,
           **_FIG1_INIT},
    "1b": {"command": "entanglement", "gamma": (0.1, 0.5, 0.9),
           "alpha_field": 6.0, "t_max": 10.0, "steps": 500,
           **_FIG1_INIT},
    "2": {"command": "fidelity", "gamma": (0.0, 0.25, 0.5, 0.75, 1.0),
          "alpha_field": 5.0, "t_max": 3.0, "steps": 300,
          "alpha_u": complex(0.95), "omega_rabi": 1.0,
          **_BELL_INIT},
    "3": {"command": "contour", "gamma": (0.0, 1.0), "gamma_steps": 100,
          "alpha_field": 5.0, "t_max": 3.0, "steps": 150,
          "alpha_u": complex(0.95), "omega_rabi": 1.0,
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


#: Every setting with its built-in default. Presets and flags set the same
#: keys; each flag's dest is its key, except --init, which sets c00..c11.
SETTINGS = {
    "gamma": (0.5,),
    "alpha_field": 5.0,
    "t_max": 10.0,
    "steps": 500,
    "gamma_steps": 100,
    "c00": complex(INV_SQRT2),
    "c01": 0.0j,
    "c10": 0.0j,
    "c11": complex(INV_SQRT2),
    "alpha_u": complex(0.95),
    "omega_rabi": 1.0,
    "eps_trunc": 1e-12,
    "out": None,
    "svg": False,
}


class _Parser(argparse.ArgumentParser):
    """Reads any "-" then a digit or ".digit" (-1e3, -0.1,0.8) as a value; subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def build_parser():
    # parse_args keeps nothing between calls, so a process builds its parser once.
    parser = _Parser(
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
                        help="coherent field amplitude alpha; the mean photon "
                             "number is its square")
        sp.add_argument("--t-max", type=float, help="end of the time grid, from t = 0")
        sp.add_argument("--steps", type=int, help="number of time samples")
        sp.add_argument("--init", nargs=4, metavar=("C00", "C01", "C10", "C11"),
                        help="initial amplitudes over |gg>,|ge>,|eg>,|ee> as 're,im'")
        sp.add_argument("--omega", type=float, dest="omega_rabi",
                        help="spin-spin coupling strength; changes no output "
                             "when c01 = c10 = 0, as in every preset")
        sp.add_argument("--eps-trunc", type=float,
                        help="photon-distribution tail mass to drop (default 1e-12)")
        sp.add_argument("--out", help="output CSV path (default chaocav_<command>.csv)")
        sp.add_argument("--svg", action="store_true", default=None,
                        help="also render an SVG chart next to the CSV")
        sp.add_argument("--seed", type=int,
                        help="ignored: sweeps are deterministic and draw no random numbers")

    sp_ent = sub.add_parser("entanglement",
                            help="degree of entanglement over a time grid")
    add_common(sp_ent)
    sp_fid = sub.add_parser("fidelity", help="teleportation fidelity over a time grid")
    sp_con = sub.add_parser("contour", help="fidelity on a (t, gamma) grid")
    for sp in (sp_fid, sp_con):
        add_common(sp)
        sp.add_argument("--alpha-u", help="unknown qubit amplitude on |g>, 're,im'; "
                                          "the amplitude on |e> is sqrt(1 - |alpha_u|^2)")
    sp_con.add_argument("--gamma-steps", type=int,
                        help="number of gamma samples when --gamma gives a range")
    sp_ver = sub.add_parser("verify", help="run the independent cross-checks")
    sp_ver.add_argument("--seed", type=int, default=8,
                        help="seed for the statistical checks (default 8)")
    return parser


def _merge_settings(args):
    """Built-in defaults, then the --fig preset, then explicit flags."""
    settings = dict(SETTINGS)
    if args.fig:
        preset = PRESETS[args.fig]
        if preset["command"] != args.command:
            raise ConfigError(f"preset {args.fig} belongs to the "
                              f"{preset['command']} command, not {args.command}")
        settings.update({k: v for k, v in preset.items() if k != "command"})
    if args.init is not None:
        for key, text in zip(("c00", "c01", "c10", "c11"), args.init):
            settings[key] = parse_complex(text)
    # argparse has already converted the numeric flags; --gamma gives a list.
    for key in SETTINGS:
        value = getattr(args, key, None)
        if value is None:
            continue
        if key == "alpha_u":
            value = parse_complex(value)
        settings[key] = tuple(value) if key == "gamma" else value
    return settings


# Settings that must be finite, with the flag that sets each.
_FINITE_FLAGS = (("omega_rabi", "--omega"), ("alpha_field", "--alpha-field"),
                 ("t_max", "--t-max"))


def _finalize(settings, command):
    """Validate the merged settings and build the model objects."""
    for key, flag in _FINITE_FLAGS:
        if not math.isfinite(float(settings[key])):
            raise ConfigError(f"{flag} must be finite, got {settings[key]}")
    try:
        field = coherent_weights(float(settings["alpha_field"]),
                                 eps_trunc=float(settings["eps_trunc"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        init = AtomicInit(settings["c00"], settings["c01"],
                          settings["c10"], settings["c11"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    steps = int(settings["steps"])
    t_max = float(settings["t_max"])
    if steps < 2:
        raise ConfigError(f"steps must be >= 2, got {steps}")
    if not t_max > 0.0:
        raise ConfigError(f"--t-max must be > 0, got {t_max}")
    omega_rabi = float(settings["omega_rabi"])
    if not math.isfinite(omega_rabi * t_max):
        # exp(-i omega t) of an infinite phase is NaN in every later column.
        raise ConfigError(f"--omega times --t-max must be finite, got {omega_rabi} * {t_max}")
    times = np.linspace(0.0, t_max, steps)
    gammas = np.asarray(settings["gamma"], dtype=float)
    if gammas.size == 0 or np.any(gammas < 0.0) or np.any(~np.isfinite(gammas)):
        raise ConfigError(f"gamma values must be finite and >= 0, got {settings['gamma']}")
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
        # Every output is invariant under a global phase of the unknown
        # qubit, so a real beta_u reaches every state.
        alpha_u = settings["alpha_u"]
        rest = 1.0 - abs(alpha_u) ** 2
        if rest < -NORM_TOL:
            raise ConfigError(f"|alpha_u| = {abs(alpha_u):.6g} exceeds 1")
        try:
            unknown = UnknownQubit(alpha_u, math.sqrt(max(rest, 0.0)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    out = settings["out"] or f"chaocav_{command}.csv"
    if settings["svg"] and Path(_svg_path(out)) == Path(out):
        raise ConfigError(f"--svg would overwrite the CSV {out} with the chart; "
                          "give --out a name that does not end in .svg")
    return {
        "field": field, "init": init, "times": times, "gammas": gammas,
        "unknown": unknown, "omega_rabi": omega_rabi,
        "out": out, "svg": bool(settings["svg"]),
    }


def _write_csv(path, header, blocks):
    """Header line, then each block of already formatted ASCII bytes."""
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii") + b"\n")
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


#: Lines per call of format_lines; bounds the CSV stage's temporaries.
CSV_BLOCK_LINES = 1024

#: Correctly rounded 10**k for k = -87..111, at index k + 87: the powers
#: 10**(12 - e) = _POW10[99 - e] that format_lines scales by when the
#: decimal exponent e has |e| <= 99.
_POW10 = np.array([float("1e%d" % k) for k in range(-87, 112)])


def format_lines(block):
    """ASCII bytes of each row of the (L, C) float block as "%.12e" values
    joined by ",", each line ending in "\n".

    Byte-equal to Python's formatting. With e = floor(log10|x|), the
    mantissa m = |x| * 10**(12 - e) rounded to an integer gives the 13
    printed digits. The product carries two errors: its own rounding, at
    most half an ulp, which for m < 2**44 is 2**-10 < 0.001; and that of
    the power, exact for 0 <= 12 - e <= 22 and otherwise correctly rounded,
    at most 2**-53 relative, which for m < 1e13 is below 0.0012. Their sum
    is below 1/256, so wherever the computed fraction of m lies more than
    1/256 from one half, m and the exact product round to the same
    integer. The rest take Python's "%.12e": values in that band, a
    mantissa outside [1e12, 1e13) (log10 misjudged the decade), |e| > 99
    (three exponent digits), NaN and infinities.
    """
    ncol = block.shape[1]
    x = block.reshape(-1)
    a = np.abs(x)
    e = np.floor(np.log10(a, out=np.zeros_like(a), where=(a > 0.0) & (a < np.inf)))
    fast = np.isfinite(a) & (np.abs(e) <= 99.0)
    e = np.where(fast, e, 0.0).astype(np.int64)
    m = np.where(fast, a, 0.0) * _POW10[99 - e]
    r = np.rint(m)
    up = r == 1e13  # decade round-up, e.g. 9.9999999999996 -> 1.0e+01
    e += up
    r[up] = 1e12
    fast &= (((r >= 1e12) & (r < 1e13)) | (a == 0.0)) & (np.abs(e) <= 99)
    fast &= np.abs(m - np.floor(m) - 0.5) > 1.0 / 256.0
    # One 21-byte field per value: sign (0 for none), 13 digits around
    # ".", "e", the exponent's sign and two digits, a 0 byte, then "," or
    # "\n". A slow value's text, at most 20 bytes, replaces the first 20.
    out = np.empty((x.size, 21), dtype=np.uint8)
    out[:, 0] = np.where(np.signbit(x), np.uint8(ord("-")), np.uint8(0))
    digits = r.astype(np.int64)
    for k in range(14, 2, -1):
        # Floor division by a constant is about twice as fast as np.divmod.
        rest = digits // 10
        out[:, k] = digits + ord("0") - rest * 10
        digits = rest
    out[:, 1] = digits + ord("0")
    out[:, 2] = ord(".")
    out[:, 15] = ord("e")
    out[:, 16] = np.where(e < 0, np.uint8(ord("-")), np.uint8(ord("+")))
    e = np.abs(e)
    tens = e // 10
    out[:, 17] = tens + ord("0")
    out[:, 18] = e + ord("0") - tens * 10
    out[:, 19] = 0
    out[:, 20] = ord(",")
    out[ncol - 1::ncol, 20] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = b"".join([(b"%.12e" % v).ljust(20, b"\0") for v in x[slow].tolist()])
        out[slow, :20] = np.frombuffer(texts, dtype=np.uint8).reshape(-1, 20)
    return out.tobytes().replace(b"\0", b"")


def _csv_blocks(grid, cfg):
    # The grid's lines in (gamma, t) order, CSV_BLOCK_LINES at a time
    # whatever the gamma rows, columns in the order of ENT_HEADER or
    # FID_HEADER.
    times, gammas = cfg["times"], cfg["gammas"]
    cols = [grid.doe, grid.pre_norm_trace]
    if grid.fidelity is not None:
        cols += [grid.fidelity, grid.kappa1, grid.kappa2.real,
                 grid.kappa2.imag, grid.kappa4, grid.weight]
    flat = [c.reshape(-1) for c in cols]
    n = gammas.size * times.size
    for start in range(0, n, CSV_BLOCK_LINES):
        stop = min(start + CSV_BLOCK_LINES, n)
        row, col = np.divmod(np.arange(start, stop), times.size)
        block = np.empty((stop - start, 3 + len(flat)))
        block[:, 0] = times[col]
        block[:, 1] = gammas[row]
        block[:, 2] = cfg["field"].alpha
        for k, values in enumerate(flat, start=3):
            block[:, k] = values[start:stop]
        yield format_lines(block)


def _chart(command, grid, cfg):
    times, gammas = cfg["times"], cfg["gammas"]
    if command == "contour":
        return render_contour_chart(times, gammas, grid.fidelity,
                                    title="Teleportation fidelity", xlabel="t",
                                    ylabel="gamma")
    if command == "entanglement":
        values, title, ylabel = grid.doe, "Degree of entanglement", "DoE"
    else:
        values, title, ylabel = grid.fidelity, "Teleportation fidelity", "fidelity"
    series = [(f"gamma={gamma:g}", times, values[i]) for i, gamma in enumerate(gammas)]
    return render_line_chart(series, title=title, xlabel="t", ylabel=ylabel)


def run_sweep(cfg, command):
    """Run one sweep command: the grid, its CSV and, with --svg, its chart."""
    grid = sweep_grid(cfg["times"], cfg["gammas"], cfg["init"], cfg["field"],
                      cfg["unknown"], omega_rabi=cfg["omega_rabi"])
    drained = int(np.count_nonzero(np.isnan(grid.doe)))
    if drained == grid.doe.size:
        raise InvariantViolation("density matrix trace vanished at every grid point: q = 0, "
                                 "or a q whose square underflows, drained the scalar-channel state")
    if drained:
        print(f"warning: {drained} of {grid.doe.size} grid points drained (pre_norm_trace 0); "
              "their doe is nan", file=sys.stderr)
    header = ENT_HEADER if grid.fidelity is None else FID_HEADER
    _write_csv(cfg["out"], header, _csv_blocks(grid, cfg))
    written = [cfg["out"]]
    if cfg["svg"]:
        _write_svg(_svg_path(cfg["out"]), _chart(command, grid, cfg))
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
    args = build_parser().parse_args(argv)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'allocation failed'}; "
              "use a smaller grid or field", file=sys.stderr)
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
