import json
import re

from barrier1d.cli import _parse_segments, config_from_header, main
from barrier1d.potential import load_potential

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
