"""Every shipped example config must run clean end to end."""

from pathlib import Path

import pytest

from barrier1d.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

COMMANDS = {
    "two_pair_transmittance.ini": "transmit",
    "resonant_gaps.ini": "resonance",
    "distinct_wells_levels.ini": "wells",
    "identical_wells_levels.ini": "wells",
    "cell_bands_compression.ini": "bands",
    "ensemble_fluctuation.ini": "ensemble",
    "riccati_trajectory.ini": "riccati",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_shipped_config_runs(name, tmp_path, recwarn):
    out = tmp_path / "out.csv"
    code = main([COMMANDS[name], "--config", str(CONFIG_DIR / name),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(data) >= 2            # header row plus at least one data row


def test_two_pair_surface_keeps_designed_energy_resonant(tmp_path):
    out = tmp_path / "surface.csv"
    assert main(["transmit", "--config",
                 str(CONFIG_DIR / "two_pair_transmittance.ini"),
                 "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    # nearest grid energy to the designed 0.3 eV resonance
    es = sorted({float(r[0]) for r in rows})
    e_near = min(es, key=lambda e: abs(e - 0.3))
    ds = [float(r[2]) for r in rows if float(r[0]) == e_near]
    assert len(ds) == 40
    assert min(ds) > 0.99            # grid point sits ~1 meV off resonance


def test_identical_wells_config_keeps_all_nine_levels(tmp_path):
    out = tmp_path / "levels.csv"
    assert main(["wells", "--config", str(CONFIG_DIR / "identical_wells_levels.ini"),
                 "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    steps = sorted({float(r[0]) for r in rows})
    assert len(steps) == 24
    assert {r[3] for r in rows} == {"none"}
    for v in steps:
        assert sorted(int(r[1]) for r in rows if float(r[0]) == v) == list(range(9))
