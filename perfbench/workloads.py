"""Workload definitions, the in-process call that runs one workload unit,
and the check of its outputs against the stored reference.

This module imports only the standard library at import time, so that the
set-up probe can load it before timing the import of chaocav and numpy.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Relative tolerance of the output check: the refactor gate of the roadmap.
REL_TOL = 1e-12

#: verify's statistical checks hold at its documented seed only; at other
#: seeds mc_short_time fails for about one seed in seven (see README.md).
VERIFY_SEED = 8

_VERIFY_ROW = re.compile(r"^\[(PASS|FAIL|INFO)\] ([A-Za-z0-9_]+):")

#: SVG tokens that carry a value: a hex colour or a decimal number.
_SVG_VALUE = re.compile(r"(#[0-9a-f]{6}|-?\d+(?:\.\d+)?)")


@dataclass(frozen=True)
class Step:
    """One cli.main invocation; stem names its CSV under the output directory."""

    stem: str
    argv: tuple
    alpha_field: float
    rows: int

    @property
    def svg(self):
        """Whether the step also writes <stem>.svg beside its CSV."""
        return "--svg" in self.argv


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    verify: bool = False

    @property
    def rows(self):
        """Output rows of one call: CSV data rows, or report rows for verify."""
        return sum(step.rows for step in self.steps)


WORKLOADS = {
    "paper_figures": Workload("paper_figures", (
        Step("fig1a", ("entanglement", "--fig", "1a", "--svg"), 5.0, 3 * 500),
        Step("fig1b", ("entanglement", "--fig", "1b", "--svg"), 6.0, 3 * 500),
        Step("fig2", ("fidelity", "--fig", "2", "--svg"), 5.0, 5 * 300),
        Step("fig3", ("contour", "--fig", "3", "--svg"), 5.0, 100 * 150),
    )),
    "verify": Workload("verify", (
        Step("verify", ("verify",), 5.0, 18),
    ), verify=True),
}


def step_argv(workload, step, out_dir, seed):
    """Full argument list of one step; sweeps get the workload seed."""
    if workload.verify:
        return list(step.argv) + ["--seed", str(VERIFY_SEED)]
    return list(step.argv) + ["--out", str(Path(out_dir) / f"{step.stem}.csv"),
                              "--seed", str(seed)]


def run_call(cli, workload, out_dir, seed):
    """Run one workload unit through cli.main; return (exit codes, stdout text)."""
    codes = []
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        for step in workload.steps:
            codes.append(cli.main(step_argv(workload, step, out_dir, seed)))
    return codes, buf.getvalue()


def verify_rows(text):
    """(status, check name) pairs in the order verify printed them."""
    rows = []
    for line in text.splitlines():
        match = _VERIFY_ROW.match(line)
        if match:
            rows.append((match.group(1), match.group(2)))
    return rows


def reference_path(workload, step):
    """Stored reference of one step: verify's report text, or a gzipped CSV."""
    return REFERENCE_DIR / (f"{step.stem}.txt" if workload.verify else f"{step.stem}.csv.gz")


def svg_reference_path(step):
    """Stored reference of a step's chart, gzipped."""
    return REFERENCE_DIR / f"{step.stem}.svg.gz"


def load_reference(workload):
    """Reference bytes per step stem, and per "<stem>.svg" for a chart, as
    written by make_reference.py."""
    refs = {}
    for step in workload.steps:
        data = reference_path(workload, step).read_bytes()
        refs[step.stem] = data if workload.verify else gzip.decompress(data)
        if step.svg:
            refs[f"{step.stem}.svg"] = gzip.decompress(svg_reference_path(step).read_bytes())
    return refs


def _parse_csv(data):
    import numpy as np

    text = data.decode("utf-8")
    header, _, body = text.partition("\n")
    values = np.array([[float(v) for v in line.split(",")]
                       for line in body.splitlines()], dtype=float)
    return header, values


def _complex_columns(header, values):
    # Columns X_re and X_im form one complex value X. Its imaginary part is
    # rounding noise on real-valued sweeps (about 1e-18 against |X| of 0.07),
    # so only |X| sets the scale of the comparison.
    names = header.split(",")
    merged = values.astype(complex)
    keep = []
    for k, name in enumerate(names):
        if name.endswith("_im") and name[:-3] + "_re" in names:
            continue
        if name.endswith("_re") and name[:-3] + "_im" in names:
            merged[:, k] += 1j * values[:, names.index(name[:-3] + "_im")]
        keep.append(k)
    return merged[:, keep]


def csv_matches(produced, reference):
    """True when produced equals reference to REL_TOL with NaN in the same places.

    Each value is compared relative to its reference magnitude; a pair of
    X_re, X_im columns is compared as one complex value.
    """
    if produced == reference:
        return True
    import numpy as np

    head_p, got = _parse_csv(produced)
    head_r, want = _parse_csv(reference)
    if head_p != head_r or got.shape != want.shape:
        return False
    if not np.array_equal(np.isnan(got), np.isnan(want)):
        return False
    got = _complex_columns(head_p, got)
    want = _complex_columns(head_r, want)
    finite = ~np.isnan(want)
    diff = np.abs(got[finite] - want[finite])
    return bool(np.all(diff <= REL_TOL * np.abs(want[finite])))


def svg_matches(produced, reference):
    """True when produced draws the same chart as reference.

    The text between values must be equal. Each number may differ by one
    unit in its last printed digit and each colour channel by one, since a
    value within the CSV tolerance can still round the other way.
    """
    if produced == reference:
        return True
    got = _SVG_VALUE.split(produced.decode("utf-8"))
    want = _SVG_VALUE.split(reference.decode("utf-8"))
    if len(got) != len(want):
        return False
    for k, (a, b) in enumerate(zip(got, want)):
        if a == b:
            continue
        if k % 2 == 0:
            return False
        if b.startswith("#"):
            if not a.startswith("#") or any(
                    abs(int(a[i:i + 2], 16) - int(b[i:i + 2], 16)) > 1 for i in (1, 3, 5)):
                return False
        else:
            unit = 10.0 ** -len(b.partition(".")[2])
            if a.startswith("#") or abs(float(a) - float(b)) > 1.5 * unit:
                return False
    return True


def check_call(workload, codes, stdout, out_dir, refs):
    """Whether one call succeeded, and the CSV bytes it wrote."""
    if any(code != 0 for code in codes):
        return False, 0
    if workload.verify:
        want = verify_rows(refs["verify"].decode("utf-8"))
        return verify_rows(stdout) == want, 0
    ok = True
    csv_bytes = 0
    for step in workload.steps:
        path = Path(out_dir) / f"{step.stem}.csv"
        try:
            data = path.read_bytes()
        except OSError:
            return False, csv_bytes
        csv_bytes += len(data)
        ok = ok and csv_matches(data, refs[step.stem])
        if step.svg:
            try:
                chart = (Path(out_dir) / f"{step.stem}.svg").read_bytes()
            except OSError:
                return False, csv_bytes
            ok = ok and svg_matches(chart, refs[f"{step.stem}.svg"])
    return ok, csv_bytes
