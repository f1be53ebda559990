"""File formats: binary field checkpoints, the diagnostics CSV contract,
structured-text configs, and report rendering.

Checkpoint layout (little-endian): magic "BFL1", u32 version = 1,
u32 nx, u32 nz, f64 a, f64 lam, f64 t, f64 shift_accum, then nx*nz f64
row-major temperature values followed by the same for vorticity.
Round-trips are bit-exact.
"""

from __future__ import annotations

import configparser
import contextlib
import io as _io
import os
import secrets
import struct

import numpy as np

from .diagnostics import COLUMNS, TimeSeries
from .errors import (
    CheckpointFormatError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigurationError,
)
from .evolve import OmegaInit, SimConfig, SimState
from .flow import GravityDir, velocity_from_vorticity
from .grid import ScalarField, make_grid, temperature_bc, vorticity_bc
from .laminar import ReactionModel

_MAGIC = b"BFL1"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIdddd")


def write_checkpoint(path, state: SimState) -> None:
    """Write atomically: a temp file next to path, then os.replace.

    A write that fails part-way leaves any previous checkpoint at path
    intact and removes its temp file.
    """
    g = state.T.grid
    tmp = f"{os.fspath(path)}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(
                _HEADER.pack(
                    _MAGIC, _VERSION, g.nx, g.nz, g.a, g.lam, state.t, state.shift_accum
                )
            )
            fh.write(np.ascontiguousarray(state.T.values, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(state.omega.values, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_checkpoint(path) -> SimState:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CheckpointTruncatedError(f"{path}: shorter than the header")
    magic, version, nx, nz, a, lam, t, shift = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise CheckpointVersionError(f"{path}: unsupported version {version}")
    need = _HEADER.size + 2 * nx * nz * 8
    if len(raw) < need:
        raise CheckpointTruncatedError(f"{path}: payload shorter than {need} bytes")
    if len(raw) > need:
        raise CheckpointFormatError(f"{path}: {len(raw) - need} trailing bytes")
    try:
        grid = make_grid(a, lam, nx, nz)
    except ConfigurationError as exc:
        raise CheckpointFormatError(f"{path}: header grid is unusable: {exc}") from exc
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    T = body[: nx * nz].reshape(nx, nz).copy()
    W = body[nx * nz :].reshape(nx, nz).copy()
    omega = ScalarField(grid, W, vorticity_bc())
    return SimState(
        t=t,
        T=ScalarField(grid, T, temperature_bc()),
        omega=omega,
        flow=velocity_from_vorticity(omega),
        shift_accum=shift,
    )


def write_timeseries_csv(path, series: TimeSeries) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for row in series.rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_timeseries_csv(path) -> TimeSeries:
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != ",".join(COLUMNS):
            raise ConfigurationError(f"{path}: unexpected CSV header {header!r}")
        series = TimeSeries()
        for line in fh:
            vals = [float(tok) for tok in line.strip().split(",")]
            if len(vals) != len(COLUMNS):
                raise ConfigurationError(f"{path}: ragged CSV row")
            series.append(*vals[:8])
        return series


_SECTIONS = {
    "domain": {"a", "lambda"},
    "grid": {"nx", "nz"},
    "physics": {"rho", "sigma", "theta0", "reaction_kind", "amplitude", "e1", "e2"},
    "run": {"t_end", "dt", "cfl_safety", "recenter", "seed"},
    "sweep": {"param", "values", "window"},
}


def parse_config(text: str) -> dict:
    """Parse the sectioned run description; unknown keys are rejected."""
    cp = configparser.ConfigParser(interpolation=None)  # values are literal
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc
    out: dict = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        sec = {}
        for key, val in cp.items(section):
            if key not in allowed:
                raise ConfigurationError(f"unknown key {key!r} in [{section}]")
            sec[key] = val
        out[section] = sec
    if "domain" not in out or "grid" not in out or "physics" not in out:
        raise ConfigurationError("config needs [domain], [grid] and [physics]")
    return out


def serialize_config(cfg: dict) -> str:
    buf = _io.StringIO()
    for section in ("domain", "grid", "physics", "run", "sweep"):
        if section not in cfg:
            continue
        buf.write(f"[{section}]\n")
        for key in sorted(cfg[section]):
            buf.write(f"{key} = {cfg[section][key]}\n")
        buf.write("\n")
    return buf.getvalue()


def _get(cfg, section, key, cast, default=None):
    try:
        raw = cfg[section][key]
    except KeyError:
        if default is not None:
            return default
        raise ConfigurationError(f"missing {key!r} in [{section}]") from None
    try:
        if cast is bool:
            if str(raw).lower() in ("1", "true", "yes", "on"):
                return True
            if str(raw).lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad value for {key!r} in [{section}]: {raw!r}") from exc


def build_sim_config(cfg: dict) -> SimConfig:
    grid = make_grid(
        _get(cfg, "domain", "a", float),
        _get(cfg, "domain", "lambda", float),
        _get(cfg, "grid", "nx", int),
        _get(cfg, "grid", "nz", int),
    )
    reaction = ReactionModel(
        _get(cfg, "physics", "reaction_kind", str, "quad_ignition"),
        _get(cfg, "physics", "theta0", float),
        _get(cfg, "physics", "amplitude", float, 1.0),
    )
    e1 = _get(cfg, "physics", "e1", float, 0.0)
    e2 = _get(cfg, "physics", "e2", float, 1.0)
    ehat = GravityDir.normalized(e1, e2)
    dt_raw = cfg.get("run", {}).get("dt", "auto")
    dt = None if str(dt_raw).lower() == "auto" else float(dt_raw)
    seed = _get(cfg, "run", "seed", int, 0)
    return SimConfig(
        grid=grid,
        reaction=reaction,
        rho=_get(cfg, "physics", "rho", float, 0.0),
        sigma=_get(cfg, "physics", "sigma", float, 1.0),
        ehat=ehat,
        R=min(5.0, grid.a / 4.0),
        dt=dt,
        t_end=_get(cfg, "run", "t_end", float, 10.0),
        cfl_safety=_get(cfg, "run", "cfl_safety", float, 0.4),
        recenter=_get(cfg, "run", "recenter", bool, True),
        # a nonzero seed switches on a small random initial vorticity
        omega0=OmegaInit("random", seed=seed, energy=1e-3)
        if seed
        else OmegaInit("zero"),
    )


def render_report(report) -> str:
    """Key: value blocks; verdicts recomputable from the embedded data."""
    lines = [f"report: {report.title}", f"verdict: {report.verdict}"]
    for c in report.checks:
        status = "-" if c.ok is None else ("ok" if c.ok else "FAIL")
        gate = "" if c.gate else " (informational)"
        thr = "" if c.threshold is None else f" vs {c.threshold:.6g}"
        note = f"  # {c.note}" if c.note else ""
        lines.append(f"  {c.name}: {c.value:.6g}{thr} [{status}]{gate}{note}")
    for key, val in report.data.items():
        if isinstance(val, (str, int, float, bool, dict, list, tuple)):
            lines.append(f"  data.{key}: {val}")
    return "\n".join(lines) + "\n"
