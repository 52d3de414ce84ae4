"""Regenerate bench/reference/: the bundled scenarios' CSVs, xz-compressed.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are the accepted reference (the files
in the repository were made at the commit that added the benchmark); the
benchmark compares every later run's bundled CSVs against them with
``nlqm compare --tol 1e-9``.
"""
from __future__ import annotations

import contextlib
import glob
import io
import lzma
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from nlqm import cli

    out = os.path.join(ROOT, ".bench_work", "reference-run")
    shutil.rmtree(out, ignore_errors=True)
    for cfg in sorted(glob.glob(os.path.join(HERE, "configs", "*.json"))):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", cfg, "--out", out])
        if rc != 0:
            print(f"{cfg}: nlqm run exited {rc}", file=sys.stderr)
            return 1
    ref = os.path.join(HERE, "reference")
    os.makedirs(ref, exist_ok=True)
    for csv in sorted(glob.glob(os.path.join(out, "*.csv"))):
        dst = os.path.join(ref, os.path.basename(csv) + ".xz")
        with open(csv, "rb") as src, lzma.open(dst, "wb", preset=9) as fh:
            shutil.copyfileobj(src, fh)
        print(dst)
    shutil.rmtree(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
