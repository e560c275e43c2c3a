"""Command-line front end: sweep commands, figure presets, CSV and SVG output.

Every setting is a flag, and the parser holds each flag's default. A
figure preset is the flags it stands for: they are read before the given
flags, so a given flag beats the preset wherever it stands. Each exit
code follows one exception class: 0 success, 2 bad settings (ValueError)
or a run too large for memory (MemoryError), 3 I/O failure (OSError),
4 violated invariant (InvariantViolation) or failed verification.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
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


# Irrational amplitudes are written with repr, which parses back to the same float.
_BELL_INIT = f"{INV_SQRT2!r} 0 0 {INV_SQRT2!r}"
_FIG1 = f"--gamma 0.1 0.5 0.9 --t-max 10 --steps 500 --init 0.2 0 0 {math.sqrt(0.96)!r}"
_FIG2_3 = f"--alpha-field 5 --t-max 3 --init {_BELL_INIT} --alpha-u 0.95 --omega 1"

#: Each figure preset as (command, the flags it stands for).
PRESETS = {
    "1a": ("entanglement", f"--alpha-field 5 {_FIG1}".split()),
    "1b": ("entanglement", f"--alpha-field 6 {_FIG1}".split()),
    "2": ("fidelity", f"--gamma 0 0.25 0.5 0.75 1 --steps 300 {_FIG2_3}".split()),
    "3": ("contour", f"--gamma 0 1 --gamma-steps 100 --steps 150 {_FIG2_3}".split()),
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
    raise ValueError(f"cannot parse complex value {text!r}; expected 're' or 're,im'")


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
        sp.add_argument("--gamma", type=float, nargs="+", default=(0.5,), metavar="G",
                        help="chaotic parameter value(s)")
        sp.add_argument("--alpha-field", type=float, default=5.0,
                        help="coherent field amplitude alpha; the mean photon "
                             "number is its square")
        sp.add_argument("--t-max", type=float, default=10.0,
                        help="end of the time grid, from t = 0")
        sp.add_argument("--steps", type=int, default=500, help="number of time samples")
        sp.add_argument("--init", nargs=4, default=tuple(_BELL_INIT.split()),
                        metavar=("C00", "C01", "C10", "C11"),
                        help="initial amplitudes over |gg>,|ge>,|eg>,|ee> as 're,im'")
        sp.add_argument("--omega", type=float, default=1.0, dest="omega_rabi",
                        help="spin-spin coupling strength; changes no output "
                             "when c01 = c10 = 0, as in every preset")
        sp.add_argument("--eps-trunc", type=float, default=1e-12,
                        help="photon-distribution tail mass to drop (default 1e-12)")
        sp.add_argument("--out", help="output CSV path (default chaocav_<command>.csv)")
        sp.add_argument("--svg", action="store_true",
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
        sp.add_argument("--alpha-u", default="0.95",
                        help="unknown qubit amplitude on |g>, 're,im'; "
                             "the amplitude on |e> is sqrt(1 - |alpha_u|^2)")
    sp_con.add_argument("--gamma-steps", type=int, default=100,
                        help="number of gamma samples when --gamma gives a range")
    sp_ver = sub.add_parser("verify", help="run the independent cross-checks")
    sp_ver.add_argument("--seed", type=int, default=8,
                        help="seed for the statistical checks (default 8)")
    return parser


def parse_settings(argv):
    """The parsed argv. With --fig, the preset's flags are read first, so
    every flag in argv beats the preset."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fig", None):
        command, flags = PRESETS[args.fig]
        if command != args.command:
            raise ValueError(f"preset {args.fig} belongs to the "
                             f"{command} command, not {args.command}")
        args = parser.parse_args([command, *flags, *argv[1:]])
    return args


# Settings that must be finite, with the flag that sets each.
_FINITE_FLAGS = (("omega_rabi", "--omega"), ("alpha_field", "--alpha-field"),
                 ("t_max", "--t-max"))


def _sample_count(n, flag):
    """A grid size of at least 2 whose float64 array numpy can size."""
    if n < 2:
        raise ValueError(f"{flag} must be >= 2, got {n}")
    # Compared as floats, as linspace sizes its array: it rounds a count
    # within 64 of 2**60 up to 2**60, whose 8-byte values overflow intp.
    if float(n) * 8.0 >= float(np.iinfo(np.intp).max):
        raise ValueError(f"{flag} = {n} is too large: its float64 array would "
                         "take more bytes than an array can hold")
    return n


def _finalize(args):
    """Validate the parsed settings and build the model objects."""
    command = args.command
    amplitudes = [parse_complex(text) for text in args.init]
    alpha_u = parse_complex(args.alpha_u) if command in ("fidelity", "contour") else None
    for key, flag in _FINITE_FLAGS:
        value = getattr(args, key)
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    field = coherent_weights(args.alpha_field, eps_trunc=args.eps_trunc)
    init = AtomicInit(*amplitudes)
    steps = _sample_count(args.steps, "--steps")
    t_max = args.t_max
    if not t_max > 0.0:
        raise ValueError(f"--t-max must be > 0, got {t_max}")
    omega_rabi = args.omega_rabi
    if not math.isfinite(omega_rabi * t_max):
        # exp(-i omega t) of an infinite phase is NaN in every later column.
        raise ValueError(f"--omega times --t-max must be finite, got {omega_rabi} * {t_max}")
    times = np.linspace(0.0, t_max, steps)
    gammas = np.asarray(args.gamma, dtype=float)
    if np.any(gammas < 0.0) or np.any(~np.isfinite(gammas)):
        raise ValueError(f"gamma values must be finite and >= 0, got {tuple(args.gamma)}")
    if command == "contour":
        gamma_steps = _sample_count(args.gamma_steps, "--gamma-steps")
        if gammas.size == 1:
            gammas = np.linspace(0.0, float(gammas[0]), gamma_steps)
        elif gammas.size == 2:
            gammas = np.linspace(float(gammas[0]), float(gammas[1]), gamma_steps)
        if gammas.size < 2 or not np.all(np.diff(gammas) > 0.0):
            raise ValueError("contour needs an increasing gamma range")
    unknown = None
    if alpha_u is not None:
        # Every output is invariant under a global phase of the unknown
        # qubit, so a real beta_u reaches every state.
        rest = 1.0 - abs(alpha_u) ** 2
        if rest < -NORM_TOL:
            raise ValueError(f"|alpha_u| = {abs(alpha_u):.6g} exceeds 1")
        unknown = UnknownQubit(alpha_u, math.sqrt(max(rest, 0.0)))
    out = f"chaocav_{command}.csv" if args.out is None else args.out
    # "", ".", "..", "dir/" and "dir/." name a directory, not a file beside
    # which the chart could go
    if os.path.basename(out) in ("", ".", ".."):
        raise ValueError(f"--out must name a file, got {out!r}")
    if args.svg and Path(_svg_path(out)) == Path(out):
        raise ValueError(f"--svg would overwrite the CSV {out} with the chart; "
                         "give --out a name that does not end in .svg")
    return {
        "field": field, "init": init, "times": times, "gammas": gammas,
        "unknown": unknown, "omega_rabi": omega_rabi,
        "out": out, "svg": args.svg,
    }


def _write(path, chunks):
    """Write each chunk of bytes to path. The OSError names the path, which
    an error at write time, such as a full disk, does not carry."""
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


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

# The four-byte words format_lines writes, read as native uint32 from
# their ASCII bytes: _DIGITS4[k] is "%04d" % k, _LEAD[10 * s + d] the sign
# (0 for none, "-" for s = 1), the digit d, "." and a 0 byte,
# _EXPONENT[e + 99] is "e%+03d" % e, and _SEPARATOR holds "," and "\n",
# each padded with 0 bytes. The 10,000 digit groups are the grid of four
# digit characters, built by numpy: a Python loop over them would add
# about 1.7 ms to every start.
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.stack(np.meshgrid(*[_DIGIT] * 4, indexing="ij"), axis=-1).view(np.uint32).reshape(-1)
_LEAD = np.frombuffer(b"".join(b"%s%d.\0" % (sign, d) for sign in (b"\0", b"-")
                               for d in range(10)), dtype=np.uint32)
_EXPONENT = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-99, 100)), dtype=np.uint32)
_SEPARATOR = np.frombuffer(b",\0\0\0\n\0\0\0", dtype=np.uint32)


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

    The text is written four bytes at a time from lookup tables: three
    floor divisions by 10,000 split the 13 digits into the leading digit
    and three groups of four, and each group, the leading digit with the
    sign, the exponent and the separator is one table entry.
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
    # One 24-byte field per value, six words: the sign (0 for none), the
    # leading digit, "." and a 0 byte; the other 12 digits, four per word;
    # "e", the exponent's sign and two digits; "," or "\n" and three 0
    # bytes. A slow value's text, at most 20 bytes, replaces the first
    # five words. Its digits and exponent index the tables as 0, so that
    # no index runs past a table.
    digits = np.where(fast, r, 0.0).astype(np.int64)
    words = np.empty((x.size, 6), dtype=np.uint32)
    for k in (3, 2, 1):
        rest = digits // 10_000
        words[:, k] = _DIGITS4[digits - rest * 10_000]
        digits = rest
    words[:, 0] = _LEAD[digits + 10 * np.signbit(x)]
    words[:, 4] = _EXPONENT[np.where(fast, e, 0) + 99]
    words[:, 5] = _SEPARATOR[0]
    words[ncol - 1::ncol, 5] = _SEPARATOR[1]
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = b"".join([(b"%.12e" % v).ljust(20, b"\0") for v in x[slow].tolist()])
        words.view(np.uint8)[slow, :20] = np.frombuffer(texts, dtype=np.uint8).reshape(-1, 20)
    return words.tobytes().translate(None, b"\0")


def _csv_blocks(grid, cfg):
    # The header line, then the grid's lines in (gamma, t) order,
    # CSV_BLOCK_LINES at a time whatever the gamma rows.
    times, gammas = cfg["times"], cfg["gammas"]
    cols = [grid.doe, grid.pre_norm_trace]
    header = ENT_HEADER
    if grid.fidelity is not None:
        cols += [grid.fidelity, grid.kappa1, grid.kappa2.real,
                 grid.kappa2.imag, grid.kappa4, grid.weight]
        header = FID_HEADER
    yield header.encode("ascii") + b"\n"
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
    _write(cfg["out"], _csv_blocks(grid, cfg))
    written = [cfg["out"]]
    if cfg["svg"]:
        _write(_svg_path(cfg["out"]), [_chart(command, grid, cfg).encode("utf-8")])
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_settings(argv)
        if args.command == "verify":
            if args.seed < 0:
                raise ValueError(f"--seed must be >= 0, got {args.seed}")
            return run_verify(args.seed)
        written = run_sweep(_finalize(args), args.command)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}; "
              "use a smaller grid or field", file=sys.stderr)
        return 2
    except OSError as exc:
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
