"""The four figure presets reproduce the stored reference outputs byte for
byte: the CSV and the SVG chart of each, as gzipped in perfbench/reference/."""

import gzip
from pathlib import Path

import pytest

from chaocav import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_preset_outputs_equal_reference_bytes(tmp_path, name):
    out = tmp_path / f"fig{name}.csv"
    code = cli.main([cli.PRESETS[name][0], "--fig", name, "--svg", "--out", str(out)])
    assert code == 0
    for suffix in (".csv", ".svg"):
        want = gzip.decompress((REFERENCE / f"fig{name}{suffix}.gz").read_bytes())
        assert out.with_suffix(suffix).read_bytes() == want, f"fig{name}{suffix} differs"
