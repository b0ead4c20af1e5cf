"""CLI: exit codes, artifact emission, determinism, subcommand behaviour."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torsionshape import Ball, GridSpec, build_domain, oracle
from torsionshape.cli import DEFAULT_CONFIG, load_config, main
from torsionshape.errors import ConfigParse
from torsionshape.domain import save_domain

FAST_GRID = ["--override", "grid.nx=128", "--override", "grid.ny=128"]


def _read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_solve_radial_passes_checks(tmp_path):
    out = tmp_path / "run"
    rc = main(["--quiet", "solve", "--out", str(out),
               "--override", 'checks=["basic","radial_ball","starshaped"]',
               *FAST_GRID])
    assert rc == 0
    rep = _read_report(out)
    assert rep["residual_sup"] <= 0.05
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["radial_ball"]["pass"]
    assert by_name["basic"]["pass"]
    # atomic writes keep the permissions a plain open() would give
    ref = tmp_path / "ref.txt"
    ref.write_text("")
    for name in ("trace.jsonl", "domain.csv", "field.csv", "boundary.csv",
                 "report.json"):
        assert (out / name).stat().st_mode == ref.stat().st_mode


def test_solve_deterministic_reports(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["--quiet", "solve", "--out", str(out), *FAST_GRID]) == 0
        rep = _read_report(out)
        rep.pop("timestamp")
        rep["config"].pop("out")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_malformed_config_exits_2_without_artifacts(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    out = tmp_path / "out"
    rc = main(["--quiet", "solve", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_unknown_check_exits_2(tmp_path):
    rc = main(["--quiet", "solve", "--out", str(tmp_path / "o"),
               "--override", 'checks=["bogus"]', *FAST_GRID])
    assert rc == 2
    assert not (tmp_path / "o").exists()   # rejected before the flow runs


@pytest.mark.parametrize("override", [
    "optimizer.cfl=1.5", "optimizer.tol_residual=0", "optimizer.max_iters=5",
    'optimizer.multiplier_mode="bogus"', 'weight.alpha="abc"',
    'init_scale="x"', "weight.alpha.k=1", 'chekcs=["convex"]',
    'optimzer={"tol_residual":0.01}', "weight.alpha=-1",
    'weight.profile={"type":"bogus"}',
    'weight.profile={"type":"radial","k":-1}',
    'weight.profile={"type":"radial","k":0.5,"p":4}', "grid.nxx=64",
    "checks=[]", "grid.nx=32.5", "weight.profile.k=0.7",
    'weight.profile={"type":"fourier"}'])
def test_bad_config_value_exits_2(tmp_path, capsys, override):
    # the case comes last, so the 32² grid cannot overwrite it
    rc = main(["--quiet", "solve", "--out", str(tmp_path / "o"),
               "--override", "grid.nx=32", "--override", "grid.ny=32",
               "--override", override])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    expected = {"weight.profile.k=0.7": "lacks key 'type'; it is taken whole",
                'weight.profile={"type":"fourier"}': "needs keys ['a', 'b']"}
    assert expected.get(override, "") in err["message"]


@pytest.mark.parametrize("eps", ['"x"', "0.1", '[0.05, "x"]', "[]"])
def test_sweep_non_numeric_eps_exits_2(tmp_path, capsys, eps):
    rc = main(["--quiet", "sweep", "--out", str(tmp_path / "o"),
               "--override", f"sweep.eps={eps}",
               "--override", "grid.nx=32", "--override", "grid.ny=32"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("override", ["sweep.esp=[0.1]", "sweep.k=-1"])
def test_sweep_bad_config_exits_2(tmp_path, capsys, override):
    rc = main(["--quiet", "sweep", "--out", str(tmp_path / "o"),
               "--override", override,
               "--override", "grid.nx=32", "--override", "grid.ny=32"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_load_config_is_a_copy_of_the_table(tmp_path):
    before = json.dumps(DEFAULT_CONFIG, sort_keys=True)
    cfg = load_config(None, [])
    assert cfg == DEFAULT_CONFIG
    cfg["grid"]["box"][0] = 9.0
    cfg["weight"]["profile"]["k"] = 9.0
    load_config(None, ["grid.nx=64"])["sweep"]["eps"].append(9.0)
    assert json.dumps(DEFAULT_CONFIG, sort_keys=True) == before
    # file first, then overrides; weight.profile is taken whole
    path = tmp_path / "cfg.json"
    path.write_text('{"grid": {"nx": 64}, "weight": {"profile": '
                    '{"type": "pnorm", "p": 4, "a": 1, "b": 1}}}')
    cfg = load_config(str(path), ["grid.nx=32"])
    assert cfg["grid"] == {**DEFAULT_CONFIG["grid"], "nx": 32}
    assert cfg["weight"] == {"alpha": 2.0, "profile": {
        "type": "pnorm", "p": 4, "a": 1, "b": 1}}
    with pytest.raises(ConfigParse, match=r"grid\.nxx"):
        load_config(None, ["grid.nxx=64"])


def test_alpha_one_exits_3(tmp_path):
    rc = main(["--quiet", "solve", "--out", str(tmp_path / "o"),
               "--override", "weight.alpha=1.0", *FAST_GRID])
    assert rc == 3


def test_oracle_subcommand(capsys):
    assert main(["oracle", "--k", "0.5", "--alpha", "2", "--eps", "0.1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["r_eps"] == pytest.approx(0.9)
    assert rep["R_eps"] == pytest.approx(1.1)
    assert rep["radius"] == pytest.approx(1.0)


def test_verify_subcommand_pass_and_fail(tmp_path, capsys):
    grid = GridSpec(128, 128, (-2.0, -2.0, 2.0, 2.0))
    path = tmp_path / "ball.csv"
    save_domain(build_domain(grid, Ball(radius=1.0)), path)
    rc = main(["--quiet", "verify", "--domain", str(path),
               "--override", 'checks=["basic","radial_ball","symmetry_x"]'])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in out["checks"])

    off = tmp_path / "off.csv"
    save_domain(build_domain(grid, Ball(center=(1.2, 0.0), radius=0.5)), off)
    rc = main(["--quiet", "verify", "--domain", str(off),
               "--override", 'checks=["basic"]'])
    assert rc == 1


@pytest.mark.parametrize("header", [None, "a,b", "64", "64,64,-2,-2,2,2"],
                         ids=["missing", "non-numeric", "short",
                              "body-mismatch"])
def test_verify_unreadable_domain_exits_2(tmp_path, capsys, header):
    path = tmp_path / "domain.csv"
    if header is not None:
        path.write_text(header + "\n0,0\n")
    rc = main(["--quiet", "verify", "--domain", str(path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_derivcheck_subcommand(capsys):
    rc = main(["--quiet", "derivcheck",
               "--override", "radii=[1.0]", *FAST_GRID])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["pass"]
    assert out["rows"][0]["errJ"] <= 0.02


@pytest.mark.parametrize("radii", ['"x"', "[-1]", "[true]", "[]", "[0.005]",
                                   "[0.01]"])
def test_derivcheck_bad_radii_exits_2(capsys, radii):
    rc = main(["--quiet", "derivcheck", "--override", f"radii={radii}",
               "--override", "grid.nx=32", "--override", "grid.ny=32"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_solve_failed_write_keeps_old_artifact(tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    (out / "domain.csv").write_text("old contents\n")

    def boom(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(np, "savetxt", boom)
    with pytest.raises(RuntimeError, match="disk full"):
        main(["--quiet", "solve", "--out", str(out),
              "--override", "grid.nx=64", "--override", "grid.ny=64"])
    assert (out / "domain.csv").read_text() == "old contents\n"
    assert not list(out.glob(".tmp-*"))


def test_sweep_subcommand(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["--quiet", "sweep", "--out", str(out),
               "--override", "sweep.eps=[0.05,0.1]", *FAST_GRID])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,r_oracle,R_oracle,r_measured,R_measured"
    h = 4.0 / 128
    for line, eps_expect in zip(lines[1:3], (0.05, 0.1)):
        eps, r_or, R_or, r_me, R_me = (float(v) for v in line.split(","))
        assert eps == eps_expect
        assert (r_or, R_or) == pytest.approx((1 - eps, 1 + eps))
        assert r_me >= r_or - 3 * h
        assert R_me <= R_or + 3 * h
    slope = lines[3]
    assert slope.startswith("# slope_measured=")
    theory = oracle.response_width_slope(0.5, 2.0, 2)
    assert f"slope_response_theory={theory:.6g}" in slope


def test_console_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run([sys.executable, "-m", "torsionshape.cli", "oracle",
                          "--k", "1", "--alpha", "3"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["radius"] == pytest.approx(2.0 ** -0.5)
