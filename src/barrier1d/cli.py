"""Command-line driver: turns INI config files into CSV/JSON tables.

Commands
--------
    barrier1d transmit  --config cfg.ini [--out t.csv] [--format csv|json]
    barrier1d resonance --config cfg.ini ...
    barrier1d riccati   --config cfg.ini ...
    barrier1d wells     --config cfg.ini ...
    barrier1d bands     --config cfg.ini ...
    barrier1d ensemble  --config cfg.ini ...

Common flags (override the [sweep] section): ``--out``, ``--format``,
``--seed``, ``--tol``.  Identical config + seed produces
byte-identical output; every output embeds its full effective
configuration as ``# cfg section.key = value`` header lines, so a run can
be reproduced from its own header alone.

Config file grammar (INI / key=value sections)
----------------------------------------------
[sweep]        out, format (csv|json), seed, tol
[potential]    units (natural|ev_angstrom|erg_cm), v_left, v_right and
               either ``file = <potential file>`` or
               ``segments = const W H ; gap W ; linear W START SLOPE ;
               sampled W h1,h2,...`` (numbers in the declared units)
[transmit]     energy  (single) or e_min/e_max/e_steps, and optionally
               l_min/l_max/l_steps with gap_segment = <index of the
               segment whose width is scanned>
[resonance]    mode = closed_form | family | energies | density
               closed_form: cases = U a E ; U a E ; ...
               family:      energy, l_min, l_max  (pair of [potential] with
                            itself unless [potential2] is present)
               energies:    e_min, e_max, grid
               density:     u, a, l_intra, l_inter, n_list, e_min, e_max, grid
[riccati]      energy, form = complex | real | alpha
[wells]        depths, widths, barriers (comma lists), outer, vary
               (coherent | barrier index), v_min, v_max, steps, e_grid
[bands]        factors (comma list), e_min, e_max, grid
[ensemble]     center_width, dist (uniform|normal), mean, spread, energy,
               samples; outer barriers from [outer_left]/[outer_right]
               sections (same grammar as [potential])

The separate potential *file* format is documented in
:mod:`barrier1d.potential` (``load_potential``).

Exit codes
----------
0 success.  2 configuration or file error: a bad or missing config key, a
missing or malformed potential file, an output file that cannot be
written.  3 typed numerical failure: a :class:`barrier1d.Barrier1dError`
or ``ValueError`` from the solvers, or a ``transmit`` table without an
``ok`` row.  Any other exception is a bug; it propagates with its
traceback.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._kernels import _BLOCK_ROWS
from .compose import HeightDistribution, averaged_transmittance_center_fluct
from .oracle import Barrier1dError, _solve_grid, solve_exact
from .potential import (_SEGMENT_FIELDS, EV_ANGSTROM, ERG_CM, NATURAL,
                        Constant, Potential, Segment, UnitSystem, _segment,
                        convert_in, convert_out, load_potential)
from .resonance import (find_resonant_E, find_resonant_L, pair_chain,
                        rect_pair_resonant_L, resonance_density)
from .riccati import integrate_alpha_form, integrate_complex, integrate_real
from .spectra import WellSystem, compression_scan, level_scan

US = UnitSystem()


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------
# config helpers

def _parse(raw: str, key: str, kind=float):
    """``kind(raw)``; a value that does not parse is a configuration error."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key} = {raw!r} is not a valid "
                          f"{kind.__name__}") from None


def _value(sec, key, default):
    """Text of ``key`` in a config section, else ``default``; a missing
    key without a default is a configuration error."""
    if key not in sec and default is None:
        raise ConfigError(f"missing key {key!r}")
    return sec.get(key, default)


def _number(sec, key, kind=float, default=None):
    """``kind`` value of ``key`` in a config section."""
    return _parse(_value(sec, key, default), key, kind)


def _numbers(sec, key, kind=float, default=None):
    """Comma-separated list of ``kind`` values of ``key``."""
    return [_parse(v, key, kind) for v in _value(sec, key, default).split(",")]


def _parse_segments(spec: str, units: str) -> tuple[Segment, ...]:
    segs = []
    for rec in spec.split(";"):
        toks = rec.split()
        if not toks:
            continue
        names = _SEGMENT_FIELDS.get(toks[0].lower(), ())
        try:
            segs.append(_segment(toks[0], dict(zip(names, toks[1:])), units, US))
        except ValueError as exc:
            raise ConfigError(f"bad segment record {rec.strip()!r}: {exc}") from exc
    if not segs:
        raise ConfigError("no segments given")
    return tuple(segs)


def _potential_from_section(cfg: configparser.ConfigParser,
                            section: str) -> tuple[Potential, str]:
    """Build (potential, units) from a config section."""
    if not cfg.has_section(section):
        raise ConfigError(f"missing [{section}] section")
    sec = cfg[section]
    units = sec.get("units", NATURAL).lower()
    if units not in (NATURAL, EV_ANGSTROM, ERG_CM):
        raise ConfigError(f"unknown units {units!r}")
    if "file" in sec:
        try:
            return load_potential(sec["file"], US), units
        except (OSError, ValueError) as exc:
            raise ConfigError(f"potential file: {exc}") from exc
    if "segments" not in sec:
        raise ConfigError(f"[{section}] needs 'segments' or 'file'")
    v_l = _e_in(units, _number(sec, "v_left", default="0"))
    v_r = _e_in(units, _number(sec, "v_right", default="0"))
    return Potential(_parse_segments(sec["segments"], units), v_l, v_r), units


def _e_in(units, v):  return float(convert_in(units, US, energy=v))
def _e_out(units, v): return float(convert_out(units, US, energy=v))
def _x_in(units, v):  return float(convert_in(units, US, length=v))
def _x_out(units, v): return float(convert_out(units, US, length=v))


# ----------------------------------------------------------------------
# output

def _echo_lines(cfg: configparser.ConfigParser, command: str) -> list[str]:
    lines = [f"# barrier1d = {__version__}", f"# command = {command}"]
    for section in sorted(cfg.sections()):
        for key in sorted(cfg[section]):
            lines.append(f"# cfg {section}.{key} = {cfg[section][key]}")
    return lines


def _fmt_cell(v):
    """Text of one cell; commands hand in Python numbers and strings."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_table(path, fmt, header_lines, names, columns):
    """Write a table given column by column: ``columns`` holds one
    sequence of cells per name.  Each column is formatted once, and the
    CSV and JSON rows are read off the same formatted columns."""
    rows = list(zip(*(list(map(_fmt_cell, col)) for col in columns)))
    if fmt == "csv":
        text = "\n".join(header_lines) + "\n" + ",".join(names) + "\n"
        text += "\n".join(map(",".join, rows))
        text += "\n"
    else:
        meta = {}
        for line in header_lines:
            k, _, v = line[2:].removeprefix("cfg ").partition(" = ")
            meta[k.strip()] = v.strip()
        text = json.dumps({"meta": meta, "columns": list(names), "rows": rows},
                          sort_keys=True, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc


# ----------------------------------------------------------------------
# commands

def _grid_columns(s, below, lost):
    """[D, ReT, ImT, ReR, ImR, status] columns of a grid solve and its row
    masks (see :func:`oracle._solve_grid`).  A failing row has empty
    cells and names the error :func:`solve_exact` raises for it."""
    cols = [v.tolist() for v in (s.D, s.T.real, s.T.imag, s.R.real, s.R.imag)]
    status = ["ok"] * len(cols[0])
    for i in np.flatnonzero(below | lost).tolist():
        for col in cols:
            col[i] = None
        status[i] = "error:ValueError" if below[i] else "error:ConditioningError"
    return cols + [status]


class _RowSlabs:
    """Per slab, the entry of ``stacked`` (potentials x slabs) that the
    grid rows read: a scalar where every potential has the same value (so
    a surface without an L axis runs the scalar-slab grid of a plain
    energy grid), else the potentials' values each repeated over their
    ``n_e`` rows.  One slab is expanded at a time, as it is read, so no
    slab x row array is built; ``len`` gives the slab count, from which
    the kernel picks its product (see :func:`_kernels._transfer_products`)."""

    def __init__(self, stacked, n_e):
        self.stacked = stacked
        self.n_e = n_e

    def __len__(self):
        return self.stacked.shape[1]

    def __iter__(self):
        for col in self.stacked.T:
            yield col[0] if (col == col[0]).all() else np.repeat(col, self.n_e)


def _transmit_surface(pots, energies):
    """Transmit columns over the rows (potential, energy), potential-major,
    for potentials that share their media and slab count.

    Consecutive potentials are solved together as one grid, in blocks
    that hold at most ``_BLOCK_ROWS`` rows and ``_BLOCK_ROWS`` stacked slab
    entries (or one potential, when it alone has more), so the working
    memory stays bounded however large the surface.  Each row carries its
    own status: a row below a medium floor or with lost conditioning fails
    alone (see :func:`_grid_columns`).
    """
    n_e = len(energies)
    per_block = max(1, _BLOCK_ROWS // max(n_e, len(pots[0].as_slabs()[0])))
    cols = [[] for _ in range(6)]
    for i in range(0, len(pots), per_block):
        block = pots[i:i + per_block]
        widths, heights = (np.array(a) for a in zip(*(q.as_slabs() for q in block)))
        grid = _solve_grid(block[0], np.tile(energies, len(block)),
                           _RowSlabs(widths, n_e), _RowSlabs(heights, n_e),
                           np.repeat([q.extent for q in block], n_e))
        for col, vals in zip(cols, _grid_columns(*grid)):
            col += vals
    return cols


def run_transmit(cfg, out, fmt, tol):
    p, units = _potential_from_section(cfg, "potential")
    sec = cfg["transmit"] if cfg.has_section("transmit") else {}
    if "energy" in sec:
        energies = [_e_in(units, _number(sec, "energy"))]
    else:
        if "e_min" not in sec:
            raise ConfigError("[transmit] needs 'energy' or e_min/e_max/e_steps")
        n = _number(sec, "e_steps", int, "50")
        if n < 1:
            raise ConfigError("e_steps must be >= 1")
        energies = [_e_in(units, v) for v in
                    np.linspace(_number(sec, "e_min"), _number(sec, "e_max"), n)]
    pots = [p]
    l_out = [""]
    if "l_min" in sec:
        gap_idx = _number(sec, "gap_segment", int, "-1")
        if gap_idx < 0 or gap_idx >= len(p.segments):
            raise ConfigError("gap_segment must index a segment of the potential")
        nl = _number(sec, "l_steps", int, "50")
        if nl < 1:
            raise ConfigError("l_steps must be >= 1")
        l_min, l_max = _number(sec, "l_min"), _number(sec, "l_max")
        if not (0.0 < l_min < math.inf and 0.0 < l_max < math.inf):
            raise ConfigError("l_min and l_max must be positive and finite")
        gaps = [_x_in(units, v) for v in np.linspace(l_min, l_max, nl)]
        gap = p.segments[gap_idx]
        pots = [Potential(p.segments[:gap_idx]
                          + (Segment(L, gap.profile, gap.compressible),)
                          + p.segments[gap_idx + 1:], p.v_left, p.v_right)
                for L in gaps]
        l_out = convert_out(units, US, length=np.array(gaps)).tolist()
    energies = np.array(energies)
    cells = _transmit_surface(pots, energies)
    # each E and each L is formatted once: every L repeats the texts of E
    e_txt = list(map(_fmt_cell, convert_out(units, US, energy=energies).tolist()))
    l_txt = [t for t in map(_fmt_cell, l_out) for _ in e_txt]
    _write_table(out, fmt, _echo_lines(cfg, "transmit"),
                 ["E", "L", "D", "ReT", "ImT", "ReR", "ImR", "status"],
                 [e_txt * len(pots), l_txt] + cells)
    return 3 if "ok" not in cells[-1] else 0


def run_resonance(cfg, out, fmt, tol):
    sec = cfg["resonance"] if cfg.has_section("resonance") else {}
    mode = sec.get("mode", "closed_form")
    echo = _echo_lines(cfg, "resonance")
    if mode == "closed_form":
        units = sec.get("units", EV_ANGSTROM)
        rows = []
        for rec in sec.get("cases", "").split(";"):
            rec = rec.strip()
            if not rec:
                continue
            fields = rec.split()
            if len(fields) != 3:
                raise ConfigError(f"case {rec!r} needs three numbers: U a E")
            u_c, a_c, e_c = (_parse(v, "cases") for v in fields)
            u = _e_in(units, u_c); a = _x_in(units, a_c)
            e = _e_in(units, e_c)
            n = 0 if e >= u / 2.0 else 1
            l_closed = rect_pair_resonant_L(u, a, e, n)
            barrier = Potential((Segment(a, Constant(u)),))
            s = solve_exact(barrier, e)
            fam = find_resonant_L(s, s, e, (0.0, 4.0 * l_closed + 1.0))
            l_search = float(fam.members()[np.argmin(np.abs(fam.members() - l_closed))])
            rows.append([u_c, a_c, e_c,
                         _x_out(units, l_closed), _x_out(units, l_search),
                         abs(_x_out(units, l_closed) - _x_out(units, l_search))])
        _write_table(out, fmt, echo, ["U", "a", "E", "L_closed", "L_search", "delta"],
                     zip(*rows))
        return 0
    if mode == "family":
        p, units = _potential_from_section(cfg, "potential")
        p2, _ = (_potential_from_section(cfg, "potential2")
                 if cfg.has_section("potential2") else (p, units))
        e = _e_in(units, _number(sec, "energy"))
        lo = _x_in(units, _number(sec, "l_min", default="0"))
        hi = _x_in(units, _number(sec, "l_max"))
        s1 = solve_exact(p, e)
        s2 = solve_exact(p2, e)
        fam = find_resonant_L(s1, s2, e, (lo, hi))
        rows = []
        from .compose import GapJoin, transmittance_pair
        for n, L in enumerate(fam.members()):
            d = transmittance_pair(s1, GapJoin(float(L), fam.k), s2).D
            rows.append([_x_out(units, float(L)), d, 0, n])
        _write_table(out, fmt, echo, ["E_or_L", "D", "family_index", "n"], zip(*rows))
        return 0
    if mode == "energies":
        p, units = _potential_from_section(cfg, "potential")
        lo = _e_in(units, _number(sec, "e_min"))
        hi = _e_in(units, _number(sec, "e_max"))
        peaks = find_resonant_E(p, (lo, hi), _number(sec, "grid", int, "400"))
        rows = [[_e_out(units, e), solve_exact(p, e).D, i, -1]
                for i, e in enumerate(peaks)]
        _write_table(out, fmt, echo, ["E_or_L", "D", "family_index", "n"], zip(*rows))
        return 0
    if mode == "density":
        units = sec.get("units", EV_ANGSTROM)
        u = _e_in(units, _number(sec, "u")); a = _x_in(units, _number(sec, "a"))
        li = _x_in(units, _number(sec, "l_intra"))
        lx = _x_in(units, _number(sec, "l_inter"))
        ns = _numbers(sec, "n_list", int)
        lo = _e_in(units, _number(sec, "e_min")); hi = _e_in(units, _number(sec, "e_max"))
        table = resonance_density(lambda n: pair_chain(u, a, li, lx, n), ns,
                                  (lo, hi), _number(sec, "grid", int, "2000"))
        rows = [[r.n_barriers, r.count,
                 "" if math.isnan(r.min_spacing) else _e_out(units, r.min_spacing)]
                for r in table]
        _write_table(out, fmt, echo, ["N", "count", "min_spacing"], zip(*rows))
        return 0
    raise ConfigError(f"unknown resonance mode {mode!r}")


def run_riccati(cfg, out, fmt, tol):
    p, units = _potential_from_section(cfg, "potential")
    sec = cfg["riccati"] if cfg.has_section("riccati") else {}
    e = _e_in(units, _number(sec, "energy"))
    form = sec.get("form", "real")
    rtol = tol if tol is not None else 1e-10
    if form == "complex":
        _, traj = integrate_complex(p, e, rtol=rtol, keep_trajectory=True)
    elif form == "real":
        traj = integrate_real(p, e, rtol=rtol)
    elif form == "alpha":
        traj = integrate_alpha_form(p, e, rtol=rtol)
    else:
        raise ConfigError(f"unknown form {form!r}")
    x, *rest = traj.to_csv_rows().T
    _write_table(out, fmt, _echo_lines(cfg, "riccati"),
                 ["x", "rho", "phi_rev", "phi", "delta", "ReT", "ImT"],
                 [convert_out(units, US, length=x).tolist()] + [c.tolist() for c in rest])
    return 0


def run_wells(cfg, out, fmt, tol):
    sec = cfg["wells"] if cfg.has_section("wells") else {}
    units = sec.get("units", ERG_CM)
    depths = [_e_in(units, v) for v in _numbers(sec, "depths")]
    widths = [_x_in(units, v) for v in _numbers(sec, "widths")]
    barriers = [_x_in(units, v) for v in _numbers(sec, "barriers")] \
        if sec.get("barriers", "").strip() else []
    ws = WellSystem(tuple(zip(depths, widths)), tuple(barriers),
                    outer=sec.get("outer", "infinite"))
    vary = sec.get("vary", "coherent")
    vary_arg = "coherent" if vary == "coherent" else _number(sec, "vary", int)
    lo = _x_in(units, _number(sec, "v_min"))
    hi = _x_in(units, _number(sec, "v_max"))
    scan = level_scan(ws, vary_arg, (lo, hi), _number(sec, "steps", int, "20"),
                      _number(sec, "e_grid", int, "800"))
    rows = [[_x_out(units, r.scan_value), r.level_index,
             _e_out(units, r.energy), r.event] for r in scan.rows]
    _write_table(out, fmt, _echo_lines(cfg, "wells"),
                 ["scan_value", "level_index", "energy", "event"], zip(*rows))
    return 0


def run_bands(cfg, out, fmt, tol):
    p, units = _potential_from_section(cfg, "potential")
    sec = cfg["bands"] if cfg.has_section("bands") else {}
    factors = _numbers(sec, "factors", default="1.0")
    lo = _e_in(units, _number(sec, "e_min"))
    hi = _e_in(units, _number(sec, "e_max"))
    scan = compression_scan(p, factors, (lo, hi), _number(sec, "grid", int, "2000"))
    rows = []
    for f, bs in scan:
        for i, (e_lo, e_hi) in enumerate(bs.bands):
            rows.append([f, i, _e_out(units, e_lo), _e_out(units, e_hi)])
    _write_table(out, fmt, _echo_lines(cfg, "bands"),
                 ["factor", "band_index", "E_lo", "E_hi"], zip(*rows))
    return 0


def run_ensemble(cfg, out, fmt, tol, seed):
    sec = cfg["ensemble"] if cfg.has_section("ensemble") else {}
    left, units = _potential_from_section(cfg, "outer_left")
    right, _ = _potential_from_section(cfg, "outer_right")
    dist = HeightDistribution(sec.get("dist", "uniform"),
                              _e_in(units, _number(sec, "mean")),
                              _e_in(units, _number(sec, "spread")))
    res = averaged_transmittance_center_fluct(
        left, right, _x_in(units, _number(sec, "center_width")), dist,
        _e_in(units, _number(sec, "energy")),
        samples=_number(sec, "samples", int, "100000"), seed=seed)
    rows = [[res.mean_D, res.half_width, res.D_at_mean, res.samples, res.seed]]
    _write_table(out, fmt, _echo_lines(cfg, "ensemble"),
                 ["mean_D", "half_width", "D_at_mean", "samples", "seed"], zip(*rows))
    return 0


# ----------------------------------------------------------------------

def config_from_header(path: str | Path) -> configparser.ConfigParser:
    """Rebuild the effective config from the ``# cfg`` header of an output
    file (CSV) -- every output can be re-run from its own header."""
    cfg = configparser.ConfigParser()
    for line in Path(path).read_text().splitlines():
        if not line.startswith("# cfg "):
            continue
        body = line[len("# cfg "):]
        key, _, value = body.partition(" = ")
        section, _, name = key.strip().partition(".")
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg[section][name] = value.strip()
    return cfg


_COMMANDS = {"transmit": run_transmit, "resonance": run_resonance,
             "riccati": run_riccati, "wells": run_wells, "bands": run_bands,
             "ensemble": run_ensemble}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="barrier1d",
                                 description="1-D barrier scattering and spectra toolkit")
    ap.add_argument("command", choices=list(_COMMANDS))
    ap.add_argument("--config", required=True, help="INI config file")
    ap.add_argument("--out", default=None, help="output path (default stdout)")
    ap.add_argument("--format", default=None, choices=["csv", "json"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--tol", type=float, default=None)
    args = ap.parse_args(argv)

    cfg = configparser.ConfigParser()
    try:
        if not Path(args.config).exists():
            raise ConfigError(f"config file {args.config} not found")
        cfg.read(args.config)
        sweep = cfg["sweep"] if cfg.has_section("sweep") else {}
        out = args.out if args.out is not None else sweep.get("out")
        fmt = args.format or sweep.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {fmt!r}")
        seed = args.seed if args.seed is not None else _number(sweep, "seed", int, "0")
        tol = args.tol if args.tol is not None else (
            _number(sweep, "tol") if "tol" in sweep else None)
        # record the effective overrides so outputs are self-describing
        if not cfg.has_section("sweep"):
            cfg.add_section("sweep")
        cfg["sweep"]["format"] = fmt
        cfg["sweep"]["seed"] = str(seed)
        if args.tol is not None:
            cfg["sweep"]["tol"] = str(tol)

        if args.command == "ensemble":
            return run_ensemble(cfg, out, fmt, tol, seed)
        return _COMMANDS[args.command](cfg, out, fmt, tol)
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (Barrier1dError, ValueError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
