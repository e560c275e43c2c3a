"""Output text at equal bytes: cli.format_lines against Python's "%.12e",
the CSV stage's memory bound, and the contour chart's cell text against
the per-value template it replaced."""

import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaocav import cli, svg
from chaocav.sweep import SweepGrid, sweep_grid


def percent_lines(block):
    """The reference: each value through "%.12e", joined by "," and "\\n"."""
    return "".join(",".join("%.12e" % v for v in row) + "\n"
                   for row in np.asarray(block, dtype=float).tolist()).encode("ascii")


def test_block_of_random_bit_patterns_matches_percent_formatting():
    bits = np.random.default_rng(15).integers(0, 2**64, size=60_000, dtype=np.uint64)
    block = bits.view(np.float64).reshape(-1, 6)
    assert cli.format_lines(block) == percent_lines(block)


def _from_bits(b):
    return struct.unpack("<d", struct.pack("<Q", b))[0]


# Values within a few 1/256 of a rounding tie of the 13th digit, at any
# decade the two-digit exponent reaches and beyond it.
_near_ties = st.builds(lambda m, d, j: (m + 0.5 + d / 256.0) * 10.0 ** j,
                       st.integers(10**12, 10**13 - 1), st.floats(-3.0, 3.0),
                       st.integers(-112, 100))
_any_float = st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(_from_bits), _near_ties)


@given(st.integers(1, 6).flatmap(
    lambda c: st.lists(st.lists(_any_float, min_size=c, max_size=c), min_size=1, max_size=12)))
def test_any_block_matches_percent_formatting(rows):
    block = np.array(rows, dtype=float)
    assert cli.format_lines(block) == percent_lines(block)


def _band_edges():
    # At decade 12 the mantissa is the value itself, and m + 0.5 +- 1/256
    # is exact: the band's edges and the floats next to them.
    out = []
    for m in (10**12, 4_503_599_627_370, 9_999_999_999_999):
        for edge in (m + 0.5 - 1 / 256, m + 0.5 + 1 / 256):
            out += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    return out


_FIXED = [
    *[(2 * k + 1) / 2 * 10.0 ** j for k in (0, 1, 12, 10**12, 1_234_567_890_123, 10**13 - 1)
      for j in range(-15, 16, 3)],
    *_band_edges(),
    # Their fast product lands 2**-10 from the tie, on the wrong side.
    8.7960885653205e-11, 8.7336607248475e+23, 8.7746043091845e+98,
    9.9999999999996, 999.9999999999999, 9.9999999999999e99, 9.99999999999995e-100,
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-100, 1e-99, 1e99, 1e100, 0.0, -0.0, 1.0, -1.0,
    math.nan, -math.nan, math.inf, -math.inf,
]


def test_fixed_values_match_percent_formatting():
    block = np.array([_FIXED, [-v for v in _FIXED]]).T
    for row in block:
        assert cli.format_lines(row[None, :]) == percent_lines(row[None, :]), row
    assert cli.format_lines(block) == percent_lines(block)


def test_powers_of_ten_and_their_neighbours_match_percent_formatting():
    p = np.array([float("1e%d" % k) for k in range(-323, 309)])
    block = np.column_stack([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    assert cli.format_lines(block) == percent_lines(block)


def test_every_table_entry_matches_percent_formatting():
    # 10**12 + c * 100010001 puts c in each of the three four-digit groups,
    # so every group reaches all 10,000 digit words, with either sign; then
    # every exponent, the signed zeros and the decade round-up.
    ints = 10.0 ** 12 + np.arange(10_000) * 100_010_001.0
    assert cli.format_lines(np.column_stack([ints, -ints])) == percent_lines(
        np.column_stack([ints, -ints]))
    block = np.append(1.5 * 10.0 ** np.arange(-99, 100), [0.0, -0.0, 9.9999999999996])[:, None]
    assert cli.format_lines(block) == percent_lines(block)
    assert cli.format_lines(np.empty((0, 3))) == b""


@pytest.mark.parametrize("flags", [["--gamma", "1e-320"], ["--t-max", "1e300"]])
def test_edge_outputs_equal_per_value_formatting(tmp_path, flags):
    # A subnormal gamma and times with three-digit exponents take the
    # kernel's fallback; the file must equal the per-row "%.12e" layout.
    argv = ["entanglement", *flags, "--steps", "9", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 0
    cfg = cli._finalize(cli.parse_settings(argv))
    grid = sweep_grid(cfg["times"], cfg["gammas"], cfg["init"], cfg["field"])
    want = (cli.ENT_HEADER + "\n").encode("ascii")
    for i, gamma in enumerate(cfg["gammas"]):
        ones = np.ones_like(cfg["times"])
        want += percent_lines(np.column_stack([cfg["times"], gamma * ones,
                                               cfg["field"].alpha * ones,
                                               grid.doe[i], grid.pre_norm_trace[i]]))
    assert (tmp_path / "e.csv").read_bytes() == want


def _csv_stage_peak(path, points):
    values = np.random.default_rng(3).random((1, points))
    grid = SweepGrid(doe=values, pre_norm_trace=values, fidelity=values, kappa1=values,
                     kappa2=values - 1j * values, kappa4=values, weight=values)
    cfg = {"times": np.linspace(0.0, 1.0, points), "gammas": np.array([0.5]),
           "field": SimpleNamespace(alpha=5.0)}
    tracemalloc.start()
    try:
        cli._write(path, cli._csv_blocks(grid, cfg))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_stage_memory_does_not_grow_with_the_row(tmp_path):
    # Fixed blocks of lines: a 10x longer row splits into more blocks and
    # needs no more temporary memory.
    small = _csv_stage_peak(tmp_path / "small.csv", 10**4)
    large = _csv_stage_peak(tmp_path / "large.csv", 10**5)
    assert large - small < 2**20
    assert (tmp_path / "large.csv").read_bytes().count(b"\n") == 10**5 + 1


def test_blocks_ignore_gamma_rows():
    # Lines run on across gamma rows: 700-line rows share blocks.
    times = np.linspace(0.0, 1.0, 700)
    grid = SweepGrid(doe=np.zeros((3, 700)), pre_norm_trace=np.ones((3, 700)), fidelity=None,
                     kappa1=None, kappa2=None, kappa4=None, weight=None)
    cfg = {"times": times, "gammas": np.array([0.1, 0.2, 0.3]),
           "field": SimpleNamespace(alpha=2.0)}
    header, *blocks = cli._csv_blocks(grid, cfg)
    assert header == (cli.ENT_HEADER + "\n").encode("ascii")
    lines = [b.count(b"\n") for b in blocks]
    size = cli.CSV_BLOCK_LINES
    assert lines == [size] * (2100 // size) + [2100 % size]


_OLD_RECT = '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#%02x%02x%02x"/>\n'


def old_cell_text(x, y, z):
    """The chart's opening and its painted cells, one "%" template per cell."""
    frame = svg._Frame(760, 520, 72, 96, 44, 54, (x[0], x[-1]), (y[0], y[-1]))
    vlo, vhi = svg._span(z)
    text = frame.open_tag()
    for i in range(y.size - 1):
        for j in range(x.size - 1):
            corners = [z[i, j], z[i, j + 1], z[i + 1, j], z[i + 1, j + 1]]
            finite = [float(c) for c in corners if math.isfinite(c)]
            if not finite:
                continue
            mean = sum(finite) / len(finite)
            r, g, b = svg._heat_rgb([(mean - vlo) / (vhi - vlo)])[0].tolist()
            xa, xb = frame.px(x[j]), frame.px(x[j + 1])
            ya, yb = frame.py(y[i]), frame.py(y[i + 1])
            text += _OLD_RECT % (xa, min(ya, yb), xb - xa, abs(ya - yb), r, g, b)
    return text


@pytest.mark.parametrize("constant", [True, False])
def test_contour_cells_equal_the_per_value_template(constant):
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.05, 0.4, size=13))
    y = np.cumsum(rng.uniform(0.01, 0.2, size=9))
    # A constant grid has vlo == vhi in its data; _span pads the colour range.
    z = np.full((9, 13), 0.97) if constant else rng.uniform(-0.2, 1.3, size=(9, 13))
    z[0:2, 0:3] = np.nan  # cells (0, 0) and (0, 1) keep no finite corner
    z[5, 7] = np.nan
    chart = svg.render_contour_chart(x, y, z)
    want = old_cell_text(x, y, z)
    assert chart.startswith(want)
    assert chart[len(want):].startswith(("<line", "<text", "<rect x=\"72\""))
