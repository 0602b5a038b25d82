"""Golden CLI outputs of the shipped configs, and the script that rewrites
them.

    python tests/regenerate_goldens.py

runs every config of ``configs/`` through the CLI, prints per config what
moved against the committed golden (per column: rows changed and the
largest relative change), and rewrites ``tests/golden/``.  Outputs over
64 KiB are stored gzipped.  ``tests/test_configs.py`` compares each
config's output with its golden byte for byte.

Every regeneration is listed in CHANGES.md with its report, and a golden
is never regenerated to hide a defect.  The goldens pin the bytes of one
platform (Python 3.11.7, numpy 2.4.6) and the ``# barrier1d = <version>``
header line.
"""

from __future__ import annotations

import gzip
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GZIP_ABOVE = 64 * 1024

COMMANDS = {
    "two_pair_transmittance.ini": "transmit",
    "resonant_gaps.ini": "resonance",
    "distinct_wells_levels.ini": "wells",
    "identical_wells_levels.ini": "wells",
    "cell_bands_compression.ini": "bands",
    "ensemble_fluctuation.ini": "ensemble",
    "riccati_trajectory.ini": "riccati",
}


def run_config(name: str, out: Path) -> int:
    from barrier1d.cli import main
    return main([COMMANDS[name], "--config", str(CONFIG_DIR / name), "--out", str(out)])


def _golden_paths(name: str) -> tuple[Path, Path]:
    plain = GOLDEN_DIR / f"{Path(name).stem}.csv"
    return plain, plain.with_name(plain.name + ".gz")


def read_golden(name: str) -> bytes | None:
    plain, packed = _golden_paths(name)
    if packed.exists():
        return gzip.decompress(packed.read_bytes())
    return plain.read_bytes() if plain.exists() else None


def _relative_change(old: str, new: str) -> float:
    try:
        x, y = float(old), float(new)
    except ValueError:
        return math.inf
    if x == y:
        return 0.0
    change = abs(y - x) / max(abs(x), abs(y))
    return change if math.isfinite(change) else math.inf


def report(old: bytes, new: bytes) -> str:
    """What moved from ``old`` to ``new``: per column, how many rows
    changed and the largest relative change."""
    def split(data):
        lines = data.decode().splitlines()
        table = [ln.split(",") for ln in lines if ln and not ln.startswith("#")] or [[]]
        return [ln for ln in lines if ln.startswith("#")], table[0], table[1:]

    (head_o, cols_o, rows_o), (head_n, cols_n, rows_n) = split(old), split(new)
    out = []
    if head_o != head_n:
        out.append(f"header: {len(head_o)} -> {len(head_n)} lines, "
                   f"{sum(a != b for a, b in zip(head_o, head_n))} of the common ones changed")
    if cols_o != cols_n:
        out.append(f"columns {cols_o} -> {cols_n}")
    if len(rows_o) != len(rows_n):
        out.append(f"{len(rows_o)} rows -> {len(rows_n)}")
    for c, column in enumerate(cols_n):
        pairs = [(ro[c] if c < len(ro) else "", rn[c] if c < len(rn) else "")
                 for ro, rn in zip(rows_o, rows_n)]
        moved = [_relative_change(a, b) for a, b in pairs if a != b]
        if moved:
            out.append(f"{column}: {len(moved)} of {len(pairs)} rows changed, "
                       f"largest relative change {max(moved):.3g}")
    if not out:
        out.append("identical" if old == new else "same table, other bytes (blank lines?)")
    return "\n".join(out)


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            out = Path(tmp) / "out.csv"
            if run_config(name, out) != 0:
                print(f"{name}: the CLI failed; no golden written", file=sys.stderr)
                return 1
            new, old = out.read_bytes(), read_golden(name)
            print(f"== {name}: " + ("new golden" if old is None else report(old, new)))
            plain, packed = _golden_paths(name)
            plain.unlink(missing_ok=True)
            packed.unlink(missing_ok=True)
            if len(new) > GZIP_ABOVE:
                packed.write_bytes(gzip.compress(new, mtime=0))
            else:
                plain.write_bytes(new)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
