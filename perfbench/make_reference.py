#!/usr/bin/env python3
"""Write perfbench/reference/ from the checked-out package.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the repository root. Each workload is called once, exactly as the
benchmark calls it; its CSVs and SVG charts are stored gzipped and byte for
byte, and verify's report is stored as printed. The stored references are the
expected outputs of every later benchmark run, so regenerate them only when
a change of the outputs is intended and stated.
"""

import gzip
import sys
import tempfile
from pathlib import Path

import workloads
from run import OUT_ROOT, import_cli


def main(names):
    cli = import_cli(Path.cwd() / "src")
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    OUT_ROOT.mkdir(exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=OUT_ROOT) as out_dir:
            codes, stdout = workloads.run_call(cli, workload, out_dir, seed=8)
            if any(codes):
                raise SystemExit(f"{name}: exit codes {codes}")
            for step in workload.steps:
                target = workloads.reference_path(workload, step)
                if workload.verify:
                    target.write_text(stdout, encoding="utf-8")
                else:
                    data = (Path(out_dir) / f"{step.stem}.csv").read_bytes()
                    target.write_bytes(gzip.compress(data, compresslevel=9, mtime=0))
                print(f"wrote {target}")
                if step.svg:
                    chart = workloads.svg_reference_path(step)
                    data = (Path(out_dir) / f"{step.stem}.svg").read_bytes()
                    chart.write_bytes(gzip.compress(data, compresslevel=9, mtime=0))
                    print(f"wrote {chart}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
