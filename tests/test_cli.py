import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import barrier1d
from barrier1d import cli
from barrier1d.cli import _parse_segments, config_from_header, main
from barrier1d.oracle import ConditioningError, solve_exact
from barrier1d.potential import Potential, Segment, load_potential

FIG_PAIR = """
[sweep]
seed = 0
format = csv

[potential]
units = ev_angstrom
segments = const 2.8 0.9 ; gap 6.5854 ; const 2.8 0.9

[transmit]
e_min = 0.05
e_max = 0.6
e_steps = 15
"""


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_transmit_runs_deterministically(tmp_path):
    cfg = write(tmp_path, "t.ini", FIG_PAIR)
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["transmit", "--config", cfg, "--out", str(o1)]) == 0
    assert main(["transmit", "--config", cfg, "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    lines = o1.read_text().splitlines()
    assert lines[0].startswith("# barrier1d")
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.split(",")[0] == "E"


def test_transmit_json_mirror(tmp_path):
    cfg = write(tmp_path, "t.ini", FIG_PAIR)
    out = tmp_path / "a.json"
    assert main(["transmit", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"][0] == "E"
    assert len(doc["rows"]) == 15
    assert doc["meta"]["command"] == "transmit"


def test_transmit_two_axis_grid(tmp_path):
    cfg = write(tmp_path, "t.ini", FIG_PAIR + """
l_min = 1.0
l_max = 8.0
l_steps = 4
gap_segment = 1
""")
    out = tmp_path / "grid.csv"
    assert main(["transmit", "--config", cfg, "--out", str(out)]) == 0
    data = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(data) == 4 * 15
    assert all(ln.endswith("ok") for ln in data)


def test_rerun_from_own_header(tmp_path):
    cfg = write(tmp_path, "t.ini", FIG_PAIR)
    out1 = tmp_path / "a.csv"
    main(["transmit", "--config", cfg, "--out", str(out1)])
    rebuilt = config_from_header(out1)
    cfg2 = tmp_path / "rebuilt.ini"
    with open(cfg2, "w") as fh:
        rebuilt.write(fh)
    out2 = tmp_path / "b.csv"
    assert main(["transmit", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rerun_from_own_header_keeps_tol_override(tmp_path):
    cfg = write(tmp_path, "ric.ini", """
[potential]
units = ev_angstrom
segments = const 2.8 0.9 ; gap 6.5854 ; const 2.8 0.9

[riccati]
energy = 0.3
form = real
""")
    out1 = tmp_path / "a.csv"
    assert main(["riccati", "--config", cfg, "--tol", "1e-5", "--out", str(out1)]) == 0
    rebuilt = config_from_header(out1)
    assert float(rebuilt["sweep"]["tol"]) == 1e-5
    cfg2 = tmp_path / "rebuilt.ini"
    with open(cfg2, "w") as fh:
        rebuilt.write(fh)
    out2 = tmp_path / "b.csv"
    assert main(["riccati", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_error_exit_code(tmp_path):
    assert main(["transmit", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = write(tmp_path, "bad.ini", "[potential]\nsegments = wedge 1 2\n\n[transmit]\nenergy = 0.3\n")
    assert main(["transmit", "--config", bad]) == 2
    bad = write(tmp_path, "bad2.ini", "[potential]\nsegments = linear 1 2\n\n[transmit]\nenergy = 0.3\n")
    assert main(["transmit", "--config", bad]) == 2
    # numbers that do not parse are configuration errors, not numerical ones
    for key, value in (("e_steps", "abc"), ("e_min", "zero")):
        body = re.sub(rf"^{key} = .*$", f"{key} = {value}", FIG_PAIR, flags=re.M)
        assert f"{key} = {value}" in body
        bad = write(tmp_path, f"bad_{key}.ini", body)
        assert main(["transmit", "--config", bad]) == 2
    # so is a height that is not a finite number
    bad = write(tmp_path, "bad_nan.ini", "[potential]\nunits = natural\n"
                "segments = const 1.0 nan\n\n[riccati]\nenergy = 0.3\nform = real\n")
    assert main(["riccati", "--config", bad]) == 2
    # so are empty and negative step counts
    for l_steps in ("0", "-2"):
        bad = write(tmp_path, f"bad_l{l_steps}.ini", FIG_PAIR + f"""
l_min = 1.0
l_max = 8.0
l_steps = {l_steps}
gap_segment = 1
""")
        assert main(["transmit", "--config", bad]) == 2
    # and gap widths that are not positive
    for l_min in ("-1.0", "0.0"):
        bad = write(tmp_path, f"bad_lmin{l_min}.ini", FIG_PAIR + f"""
l_min = {l_min}
l_max = 8.0
l_steps = 3
gap_segment = 1
""")
        assert main(["transmit", "--config", bad]) == 2


def test_file_errors_and_missing_keys_exit_2(tmp_path, capsys):
    # a potential file that is missing or malformed
    for name, text in (("absent.txt", None), ("bad.txt", "segment wedge width=1\n")):
        if text is not None:
            write(tmp_path, name, text)
        cfg = write(tmp_path, "f.ini", f"[potential]\nfile = {tmp_path / name}\n\n"
                    "[transmit]\nenergy = 0.3\n")
        assert main(["transmit", "--config", cfg]) == 2
        assert "potential file" in capsys.readouterr().err
    # an output path that cannot be written
    cfg = write(tmp_path, "t.ini", FIG_PAIR)
    assert main(["transmit", "--config", cfg,
                 "--out", str(tmp_path / "no_such_dir" / "t.csv")]) == 2
    assert "cannot write output" in capsys.readouterr().err
    # a required key that is absent
    bad = write(tmp_path, "nokey.ini", FIG_PAIR.replace("e_max = 0.6\n", ""))
    assert main(["transmit", "--config", bad]) == 2
    assert "missing key 'e_max'" in capsys.readouterr().err


def test_programming_errors_in_the_grid_solver_propagate(tmp_path, monkeypatch):
    # only typed numerical failures become error rows or exit code 3
    def broken(*args):
        raise TypeError("broken grid solver")
    monkeypatch.setattr(cli, "_solve_grid", broken)
    config = Path(__file__).resolve().parents[1] / "configs" / "two_pair_transmittance.ini"
    with pytest.raises(TypeError, match="broken grid solver"):
        main(["transmit", "--config", str(config), "--out", str(tmp_path / "t.csv")])


def _surface(tmp_path, segments, e_range, e_steps, l_range, l_steps, gap):
    """CSV rows of a natural-units transmit surface, split into cells."""
    cfg = write(tmp_path, "s.ini", f"""
[potential]
units = natural
segments = {segments}

[transmit]
e_min = {e_range[0]}
e_max = {e_range[1]}
e_steps = {e_steps}
l_min = {l_range[0]}
l_max = {l_range[1]}
l_steps = {l_steps}
gap_segment = {gap}
""")
    out = tmp_path / "s.csv"
    code = main(["transmit", "--config", cfg, "--out", str(out)])
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(rows) == e_steps * l_steps
    return code, _parse_segments(segments, "natural"), rows


def _with_width(segs, i, L):
    return Potential(segs[:i] + (Segment(L, segs[i].profile),) + segs[i + 1:])


def _ok_cells(s):
    """[D, ReT, ImT, ReR, ImR, status] texts per energy of a grid solve."""
    return [[*map(repr, vals), "ok"] for vals in zip(
        s.D.tolist(), s.T.real.tolist(), s.T.imag.tolist(),
        s.R.real.tolist(), s.R.imag.tolist())]


def _hex(cells):
    return [[float(c).hex() if c else c for c in r[:5]] + [r[5]] for r in cells]


@pytest.mark.parametrize("segments, e_steps, l_steps", [
    # 9,000 rows: two blocks of whole L rows
    ("const 0.8 1.2 ; gap 1.5 ; const 0.6 0.9", 100, 90),
    # 2,051 slabs: three L rows per block
    ("const 0.8 1.2 ; linear 1.0 0.3 0.4 ; const 0.6 0.9", 12, 7),
    ("const 0.8 1.2 ; sampled 1.2 0.2,0.9,0.5 ; const 0.6 0.9", 12, 7),
], ids=["constant", "linear", "sampled"])
def test_transmit_surface_rows_equal_per_L_solves(tmp_path, segments, e_steps, l_steps):
    code, segs, rows = _surface(tmp_path, segments, (0.05, 1.6), e_steps,
                                (0.5, 3.0), l_steps, 1)
    assert code == 0
    es = np.linspace(0.05, 1.6, e_steps)
    ls = np.linspace(0.5, 3.0, l_steps).tolist()
    expected = [c for L in ls for c in _ok_cells(solve_exact(_with_width(segs, 1, L), es))]
    assert _hex([r[2:] for r in rows]) == _hex(expected)
    assert [r[:2] for r in rows] == [[repr(E), repr(L)] for L in ls for E in es.tolist()]


def test_transmit_surface_keeps_per_L_failure_rows(tmp_path):
    # cosh(kappa w) of the scanned barrier overflows at the widest L and
    # lowest E: those rows fail alone, and the other rows of their L keep
    # the values of a grid solve over the energies that succeed
    code, segs, rows = _surface(tmp_path, "const 300 1.0 ; gap 1.0 ; const 0.5 1.0",
                                (0.1, 0.9), 9, (100.0, 1500.0), 8, 0)
    assert code == 0
    es = np.linspace(0.1, 0.9, 9)
    expected = []
    for L in np.linspace(100.0, 1500.0, 8).tolist():
        pot = _with_width(segs, 0, L)
        ok = np.array([_conditioned(pot, E) for E in es.tolist()])
        cells = iter(_ok_cells(solve_exact(pot, es[ok])))
        expected += [next(cells) if good else [""] * 5 + ["error:ConditioningError"]
                     for good in ok.tolist()]
    statuses = [r[7] for r in rows]
    assert statuses.count("error:ConditioningError") == 22 and "ok" in statuses
    assert _hex([r[2:] for r in rows]) == _hex(expected)


def _conditioned(pot, E):
    """Whether the single-energy solve at E keeps its conditioning."""
    try:
        solve_exact(pot, E)
    except ConditioningError:
        return False
    return True


def test_numerical_failure_rows_are_marked(tmp_path):
    # E below the right medium floor: every row fails, exit code 3
    cfg = write(tmp_path, "f.ini", """
[potential]
segments = const 1.0 0.5
v_right = 0.9

[transmit]
e_min = 0.1
e_max = 0.5
e_steps = 3
""")
    out = tmp_path / "f.csv"
    assert main(["transmit", "--config", cfg, "--out", str(out)]) == 3
    data = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert all("error:" in ln for ln in data)


def test_mixed_row_status_keeps_good_rows(tmp_path):
    # energies on both sides of the right medium floor: only the rows below
    # it fail, so the run as a whole succeeds
    cfg = write(tmp_path, "m.ini", """
[potential]
segments = const 1.0 0.5
v_right = 0.9

[transmit]
e_min = 0.5
e_max = 1.5
e_steps = 5
""")
    out = tmp_path / "m.csv"
    assert main(["transmit", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert [r[0] for r in rows] == ["0.5", "0.75", "1.0", "1.25", "1.5"]
    assert [r[7] for r in rows] == ["error:ValueError"] * 2 + ["ok"] * 3
    assert all(r[2:7] == [""] * 5 for r in rows[:2])
    assert all(0.0 < float(r[2]) < 1.0 for r in rows[2:])


def test_resonance_closed_form_table(tmp_path):
    cfg = write(tmp_path, "r.ini", """
[resonance]
mode = closed_form
units = ev_angstrom
cases = 0.9 2.8 0.1 ; 0.9 2.8 0.3 ; 1.0 2.5 0.3
""")
    out = tmp_path / "r.csv"
    assert main(["resonance", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(rows) == 3
    for row in rows:
        assert float(row[5]) < 1e-8      # |L_closed - L_search| in Angstrom


def test_resonance_family_mode(tmp_path):
    fam = write(tmp_path, "fam.ini", """
[potential]
units = ev_angstrom
segments = const 2.8 0.9

[resonance]
mode = family
energy = 0.3
l_min = 0
l_max = 40
""")
    out = tmp_path / "fam.csv"
    assert main(["resonance", "--config", fam, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(rows) >= 2
    assert all(float(r[1]) >= 1 - 1e-8 for r in rows)


def test_riccati_trajectory_dump(tmp_path):
    cfg = write(tmp_path, "ric.ini", """
[potential]
units = ev_angstrom
segments = const 2.5 1.0

[riccati]
energy = 0.3
form = real
""")
    out = tmp_path / "traj.csv"
    assert main(["riccati", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    cols = [ln for ln in lines if not ln.startswith("#")][0].split(",")
    assert cols == ["x", "rho", "phi_rev", "phi", "delta", "ReT", "ImT"]
    first = [ln for ln in lines if not ln.startswith("#")][1].split(",")
    assert float(first[1]) == 0.0 and float(first[4]) == 0.0


def test_wells_scan_csv(tmp_path):
    cfg = write(tmp_path, "w.ini", """
[wells]
units = erg_cm
depths = 5e-12,5e-12,5e-12
widths = 9e-8,9e-8,9e-8
barriers = 2.8e-8,2.8e-8
outer = finite
vary = coherent
v_min = 2.8e-8
v_max = 5.6e-8
steps = 20
""")
    out = tmp_path / "w.csv"
    assert main(["wells", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert {r[3] for r in rows} <= {"none", "appear", "disappear"}
    assert len({r[0] for r in rows}) == 20


def test_wells_unresolvable_splitting_exits_3_with_typed_error(tmp_path, capsys):
    # at 3e-7 cm the triplet splitting is below float resolution: the run
    # fails loudly instead of reporting too few levels
    cfg = write(tmp_path, "w.ini", """
[wells]
units = erg_cm
depths = 5e-12,5e-12,5e-12
widths = 9e-8,9e-8,9e-8
barriers = 3e-7,3e-7
outer = finite
vary = coherent
v_min = 3e-7
v_max = 3e-7
steps = 20
""")
    assert main(["wells", "--config", cfg, "--out", str(tmp_path / "w.csv")]) == 3
    assert "LevelCountError" in capsys.readouterr().err


def test_bands_compression_table(tmp_path):
    cfg = write(tmp_path, "b.ini", """
[potential]
units = erg_cm
segments = const 2.5e-8 1.1e-12 ; gap 2e-8 ; const 2.5e-8 1.1e-12 ; gap 2.5e-8 ; const 2.5e-8 1.1e-12 ; gap 2.5e-8 ; const 2.5e-8 1.1e-12 ; gap 2e-8

[bands]
factors = 1.0,0.6,0.2
e_min = 1e-16
e_max = 1.1e-12
grid = 1200
""")
    out = tmp_path / "b.csv"
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    factors = sorted({float(r[0]) for r in rows})
    assert factors == [0.2, 0.6, 1.0]
    assert all(float(r[3]) > float(r[2]) for r in rows)


ENSEMBLE = """
[outer_left]
units = ev_angstrom
segments = const 4.0 1.0

[outer_right]
units = ev_angstrom
segments = const 4.0 1.0

[ensemble]
center_width = 0.4
dist = uniform
mean = 3.63
spread = 0.726
energy = 2.0
samples = 5000
"""


def test_ensemble_seeded_reproducibility(tmp_path):
    cfg = write(tmp_path, "e.ini", ENSEMBLE)
    o1, o2, o3 = (tmp_path / n for n in ("e1.csv", "e2.csv", "e3.csv"))
    assert main(["ensemble", "--config", cfg, "--out", str(o1), "--seed", "7"]) == 0
    assert main(["ensemble", "--config", cfg, "--out", str(o2), "--seed", "7"]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    assert main(["ensemble", "--config", cfg, "--out", str(o3), "--seed", "8"]) == 0
    assert o1.read_bytes() != o3.read_bytes()
    row = [ln for ln in o1.read_text().splitlines()
           if ln and not ln.startswith("#")][1].split(",")
    mean_d, half, d_at_mean = float(row[0]), float(row[1]), float(row[2])
    assert mean_d < d_at_mean


def test_segments_key_and_potential_file_build_the_same_potential(tmp_path):
    pot = write(tmp_path, "p.txt", "units ev_angstrom\n"
                "segment const width=2.8 height=0.9\n"
                "segment gap width=3.0\n"
                "segment linear width=4.0 start=0.2 slope=0.15\n"
                "segment sampled width=1.5 heights=0.1,0.4,0.2\n")
    spec = "const 2.8 0.9 ; gap 3.0 ; linear 4.0 0.2 0.15 ; sampled 1.5 0.1,0.4,0.2"
    assert _parse_segments(spec, "ev_angstrom") == load_potential(pot).segments


def test_cli_runs_without_importing_scipy(tmp_path):
    # scipy.optimize alone costs more to import than any shipped command
    # computes; the package must neither import scipy nor need it
    config = Path(__file__).resolve().parents[1] / "configs" / "cell_bands_compression.ini"
    script = ("import sys\n"
              "from barrier1d.cli import main\n"
              f"code = main(['bands', '--config', {str(config)!r}, "
              f"'--out', {str(tmp_path / 'bands.csv')!r}])\n"
              "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = str(Path(barrier1d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "[]"]
