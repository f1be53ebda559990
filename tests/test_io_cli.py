"""Checkpoint format, CSV contract, config round-trips, CLI exit codes."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from frontlab import io as fio
from frontlab.cli import main
from frontlab.errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigurationError,
)
from frontlab.evolve import SimConfig, SimState, run
from frontlab.flow import velocity_from_vorticity
from frontlab.grid import ScalarField, make_grid, temperature_bc, vorticity_bc
from frontlab.laminar import ReactionModel


def _state(seed=0):
    g = make_grid(3.0, 1.0, 17, 9)
    rng = np.random.default_rng(seed)
    omega_vals = np.zeros(g.shape)
    omega_vals[1:-1, 1:-1] = rng.standard_normal((g.nx - 2, g.nz - 2))
    omega = ScalarField(g, omega_vals, vorticity_bc())
    return SimState(
        t=2.5,
        T=ScalarField(g, rng.random(g.shape), temperature_bc()),
        omega=omega,
        flow=velocity_from_vorticity(omega),
        shift_accum=7.25,
    )


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "state.bfl"
    st = _state()
    fio.write_checkpoint(path, st)
    back = fio.read_checkpoint(path)
    assert back.t == st.t and back.shift_accum == st.shift_accum
    assert np.array_equal(back.T.values, st.T.values)
    assert np.array_equal(back.omega.values, st.omega.values)
    assert back.T.grid == st.T.grid


class _PayloadFails:
    """Stands in for a field whose values cannot be produced."""

    def __init__(self, field):
        self.grid = field.grid

    @property
    def values(self):
        raise OSError("payload lost")


def test_failed_checkpoint_write_keeps_the_previous_one(tmp_path):
    path = tmp_path / "state.bfl"
    first = _state(seed=0)
    fio.write_checkpoint(path, first)
    second = _state(seed=1)
    # the header goes out, then the temperature payload fails
    second.T = _PayloadFails(second.T)
    with pytest.raises(OSError, match="payload lost"):
        fio.write_checkpoint(path, second)
    back = fio.read_checkpoint(path)
    assert np.array_equal(back.T.values, first.T.values)
    assert np.array_equal(back.omega.values, first.omega.values)
    assert [p.name for p in tmp_path.iterdir()] == ["state.bfl"]


def test_checkpoint_error_kinds(tmp_path):
    path = tmp_path / "state.bfl"
    fio.write_checkpoint(path, _state())
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.bfl"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointMagicError):
        fio.read_checkpoint(bad_magic)

    bad_version = tmp_path / "version.bfl"
    bad_version.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(CheckpointVersionError):
        fio.read_checkpoint(bad_version)

    truncated = tmp_path / "trunc.bfl"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointTruncatedError):
        fio.read_checkpoint(truncated)

    padded = tmp_path / "padded.bfl"
    padded.write_bytes(raw + b"\x00" * 16)
    with pytest.raises(CheckpointFormatError):
        fio.read_checkpoint(padded)


def _header(nx, nz, a, lam, version=1):
    return struct.pack("<4sIIIdddd", b"BFL1", version, nx, nz, a, lam, 0.0, 0.0)


@pytest.mark.parametrize(
    "nx, nz, a, lam",
    [(4, 9, 3.0, 1.0), (17, 0, 3.0, 1.0), (17, 9, 0.0, 1.0), (17, 9, -3.0, 1.0),
     (17, 9, float("nan"), 1.0), (17, 9, 3.0, float("inf")), (17, 9, 1e200, 1.0),
     (17, 9, 3.0, 1e-200)],
)
def test_checkpoint_with_an_invalid_grid_is_a_format_error(tmp_path, nx, nz, a, lam):
    path = tmp_path / "grid.bfl"
    path.write_bytes(_header(nx, nz, a, lam) + bytes(16 * nx * nz))
    with pytest.raises(CheckpointFormatError):
        fio.read_checkpoint(path)


def _read_or_checkpoint_error(path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        state = fio.read_checkpoint(path)
    except CheckpointError:
        return
    assert isinstance(state, SimState)


@settings(max_examples=150, deadline=None)
@given(raw=hst.binary(max_size=200))
def test_read_checkpoint_arbitrary_bytes(tmp_path_factory, raw):
    _read_or_checkpoint_error(tmp_path_factory.mktemp("ckpt") / "raw.bfl", raw)


@settings(max_examples=150, deadline=None)
@given(
    version=hst.sampled_from([0, 1, 2, 2**32 - 1]),
    nx=hst.integers(0, 12) | hst.integers(0, 2**32 - 1),
    nz=hst.integers(0, 12) | hst.integers(0, 2**32 - 1),
    a=hst.floats(),
    lam=hst.floats(),
    extra=hst.integers(-9, 9),
    seed=hst.integers(0, 2**32 - 1),
)
def test_read_checkpoint_arbitrary_header(tmp_path_factory, version, nx, nz, a, lam, extra, seed):
    # the payload length matches the header's nx*nz up to `extra` bytes,
    # so every header field is reached; the values are arbitrary doubles
    size = max(0, min(16 * nx * nz, 16 * 144) + extra)
    raw = _header(nx, nz, a, lam, version) + np.random.default_rng(seed).bytes(size)
    with np.errstate(all="ignore"):
        _read_or_checkpoint_error(tmp_path_factory.mktemp("ckpt") / "head.bfl", raw)


def test_csv_header_contract(tmp_path):
    path = tmp_path / "series.csv"
    series = run(SimConfig(grid=make_grid(10.0, 2.0, 33, 9),
                           reaction=ReactionModel("quad_ignition", 0.25),
                           R=3.0, dt=0.1, t_end=0.0))
    fio.write_timeseries_csv(path, series)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "t,V,N,U_sup,Nz,Omega2,R_winn,front_pos,Vbar,Nbar,Ubar,Nzbar"
    assert len(lines) == 3 and lines[-1] == ""  # header + one row + trailing LF
    assert "\r" not in text


def test_csv_roundtrip_preserves_averages(tmp_path):
    path = tmp_path / "series.csv"
    series = run(SimConfig(grid=make_grid(10.0, 2.0, 65, 9),
                           reaction=ReactionModel("quad_ignition", 0.25),
                           R=3.0, dt=0.05, t_end=2.0))
    fio.write_timeseries_csv(path, series)
    back = fio.read_timeseries_csv(path)
    for col in ("Vbar", "Nbar", "Ubar", "Nzbar"):
        a, b = series.column(col), back.column(col)
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(a).max(), 1e-300)


def test_deterministic_csv_bytes(tmp_path):
    cfg = dict(grid=make_grid(10.0, 2.0, 65, 9),
               reaction=ReactionModel("quad_ignition", 0.25), R=3.0, dt=0.05, t_end=1.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    fio.write_timeseries_csv(p1, run(SimConfig(**cfg)))
    fio.write_timeseries_csv(p2, run(SimConfig(**cfg)))
    assert p1.read_bytes() == p2.read_bytes()


CONFIG_TEXT = """\
[domain]
a = 10
lambda = 2

[grid]
nx = 65
nz = 9

[physics]
rho = 0.1
sigma = 1.0
theta0 = 0.25
reaction_kind = quad_ignition
amplitude = 1.0
e1 = 1
e2 = 1

[run]
t_end = 0.5
dt = 0.05
recenter = false
"""


def test_config_parse_and_roundtrip():
    cfg = fio.parse_config(CONFIG_TEXT)
    assert cfg["domain"]["a"] == "10"
    text = fio.serialize_config(cfg)
    again = fio.parse_config(text)
    assert again == cfg
    assert fio.serialize_config(again) == text  # fixed point


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        fio.parse_config(CONFIG_TEXT + "\n[physics]\nbogus = 1\n")
    with pytest.raises(ConfigurationError):
        fio.parse_config("[mystery]\nx = 1\n")


def test_config_rejects_the_sweep_section():
    # sweeps are run by `frontlab verify`, not described in a config
    with pytest.raises(ConfigurationError):
        fio.parse_config(CONFIG_TEXT + "\n[sweep]\nparam = rho\nvalues = 0, 0.1\n")


def test_config_values_are_literal():
    # '%' is not interpolation syntax; a config that looks like it is
    # either parses to the literal text or is a ConfigurationError
    cfg = fio.parse_config("[domain]\na = %(b)s\n[grid]\n[physics]\n")
    assert cfg["domain"]["a"] == "%(b)s"
    with pytest.raises(ConfigurationError):
        fio.build_sim_config(cfg)


_CONFIG_PIECES = hst.sampled_from(
    ["[domain]", "[grid]", "[physics]", "[run]", "[sweep]", "[DEFAULT]", "[mystery]",
     "a = 1", "lambda = 2", "nx = 9", "nz = %(nx)s", "rho = %", "theta0 = 0.25", "seed",
     "  continued", "x: y", "= 3", "#", ";", "[", ""]
)


@settings(max_examples=200, deadline=None)
@given(text=hst.text(max_size=120) | hst.lists(_CONFIG_PIECES, max_size=12).map("\n".join))
def test_parse_config_arbitrary_text(text):
    try:
        cfg = fio.parse_config(text)
    except ConfigurationError:
        return
    assert isinstance(cfg, dict)


def test_build_sim_config_normalizes_gravity():
    cfg = fio.parse_config(CONFIG_TEXT)
    sim = fio.build_sim_config(cfg)
    assert sim.ehat.e1 == pytest.approx(np.sqrt(0.5))
    assert abs(sim.ehat.e1**2 + sim.ehat.e2**2 - 1.0) <= 1e-9


def test_cli_laminar_speed(capsys):
    code = main(["laminar", "--theta0", "0.25", "--kind", "step_linear", "--tol", "1e-4"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split("=")[1].split("±")[0])
    assert abs(value - 1.5) <= 1e-3


def test_cli_unknown_flag_exits_2(tmp_path):
    # the subprocess finds the package the way bare pytest does (src on
    # the path, no install) and runs in tmp_path, so that "nothing
    # written" looks where a stray output would land
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "frontlab.cli", "laminar", "--bogus"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert not list(tmp_path.iterdir())


def test_cli_evolve_single_row(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CONFIG_TEXT.replace("t_end = 0.5", "t_end = 0"))
    out_path = tmp_path / "series.csv"
    code = main(["evolve", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    assert len(out_path.read_text().strip().split("\n")) == 2


def test_cli_missing_config_exits_2(capsys):
    code = main(["evolve", "--config", "/nonexistent.cfg", "--out", "/tmp/x.csv"])
    assert code == 2


@pytest.mark.parametrize(
    "old, new",
    [("dt = 0.05", "dt = fast"), ("dt = 0.05", "dt = nan"),
     ("rho = 0.1", "rho = nan"), ("t_end = 0.5", "t_end = nan"),
     ("amplitude = 1.0", "amplitude = nan"), ("e1 = 1", "e1 = nan"), ("e1 = 1", "e1 = inf")],
    ids=["dt-text", "dt-nan", "rho-nan", "t_end-nan", "amplitude-nan", "e1-nan", "e1-inf"],
)
def test_cli_evolve_bad_value_exits_2(tmp_path, capsys, old, new):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CONFIG_TEXT.replace(old, new))
    out_path = tmp_path / "series.csv"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    assert not out_path.exists()


def test_cli_selftest(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out


FRONT_CONFIG = """\
[domain]
a = 15
lambda = 2

[grid]
nx = 257
nz = 9

[physics]
rho = 0.0
sigma = 1.0
theta0 = 0.25
reaction_kind = quad_ignition
amplitude = 1.0
e1 = 0
e2 = 1
"""


def test_cli_verify_envelopes_writes_report(tmp_path, capsys):
    code = main(["verify", "envelopes", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: pass" in out
    report_file = tmp_path / "report_envelopes.txt"
    assert report_file.exists()
    assert "late_time_margin" in report_file.read_text()


def test_cli_front_writes_checkpoint(tmp_path, capsys):
    cfg_path = tmp_path / "front.cfg"
    cfg_path.write_text(FRONT_CONFIG)
    out_path = tmp_path / "front.bfl"
    code = main(["front", "--config", str(cfg_path), "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    c_val = float([ln for ln in out.splitlines() if ln.startswith("c =")][0].split("=")[1])
    # smooth reaction: planar speed 0.66592 from the shooting oracle
    assert c_val == pytest.approx(0.66592, abs=0.05)
    state = fio.read_checkpoint(out_path)
    assert state.T.grid.nx == 257
