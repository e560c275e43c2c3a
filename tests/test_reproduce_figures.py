"""scripts/reproduce_figures.py writes the four presets' CSV and SVG files,
each equal to its gzipped reference in perfbench/reference/."""

import gzip
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference"


def load_script():
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_figures_writes_the_reference_files(tmp_path, capsys):
    out_dir = tmp_path / "figures"
    assert load_script().main(["--out-dir", str(out_dir)]) == 0
    names = sorted(f"fig{n}{s}" for n in ("1a", "1b", "2", "3") for s in (".csv", ".svg"))
    assert sorted(p.name for p in out_dir.iterdir()) == names
    for name in names:
        want = gzip.decompress((REFERENCE / f"{name}.gz").read_bytes())
        assert (out_dir / name).read_bytes() == want, f"{name} differs"
    assert f"wrote 8 files under {out_dir}/" in capsys.readouterr().out
