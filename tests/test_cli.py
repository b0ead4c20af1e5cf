"""CLI: exit codes, artifact emission, determinism, subcommand behaviour."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torsionshape import Ball, GridSpec, build_domain, oracle
from torsionshape import cli, domain
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
    'weight.profile={"type":"fourier"}',
    'weight.profile={"type":"fourier","a":[],"b":[]}', "schema=7", "schema=0",
    'weight.profile={"type":"radial","k":true}',
    'weight.profile={"type":"radial","k":"0.5"}',
    'weight.profile={"type":"fourier","a":[[0.5]],"b":[]}'])
def test_bad_config_value_exits_2(tmp_path, capsys, override):
    # the case comes last, so the 32² grid cannot overwrite it
    rc = main(["--quiet", "solve", "--out", str(tmp_path / "o"),
               "--override", "grid.nx=32", "--override", "grid.ny=32",
               "--override", override])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    expected = {"weight.profile.k=0.7": "lacks key 'type'; it is taken whole",
                'weight.profile={"type":"fourier"}': "needs keys ['a', 'b']",
                'weight.profile={"type":"fourier","a":[],"b":[]}':
                    "bad weight spec: fourier profile needs a constant term a[0]",
                "schema=7": "schema must be 1, got 7",
                'weight.profile={"type":"radial","k":true}':
                    "k must be a number, got True",
                'weight.profile={"type":"radial","k":"0.5"}':
                    "k must be a number, got '0.5'",
                'weight.profile={"type":"fourier","a":[[0.5]],"b":[]}':
                    "a must be a number, got [0.5]"}
    assert expected.get(override, "") in err["message"]


@pytest.mark.parametrize("eps", ['"x"', "0.1", '[0.05, "x"]', "[]"])
def test_sweep_non_numeric_eps_exits_2(tmp_path, capsys, eps):
    rc = main(["--quiet", "sweep", "--out", str(tmp_path / "o"),
               "--override", f"sweep.eps={eps}",
               "--override", "grid.nx=32", "--override", "grid.ny=32"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("override", ["sweep.esp=[0.1]", "sweep.k=-1",
                                      "sweep.eps=[-0.1]", "sweep.eps=[0.1,0.1]",
                                      "sweep.eps=[0.05,-0.05]",
                                      "sweep.eps=[0.05,1.5]"])
def test_sweep_bad_config_exits_2(tmp_path, capsys, monkeypatch, override):
    # rejected before any flow: a negative eps would be fitted as signed
    # against widths even in eps, a repeated one makes the fit singular, and
    # eps >= 1 makes the weight's profile non-positive
    def no_flow(w, init):
        raise AssertionError("sweep ran a flow")

    monkeypatch.setattr(cli, "optimize", no_flow)
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


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_starved_boundary_exits_3(tmp_path, capsys, command):
    # at k = 400 the sublevel set G1 has radius 0.05, under one cell at
    # 64²: solve's projection onto phi = 1 misses, and verify's sandwich
    # finds no boundary sample with two interior probes for |grad u|
    if command == "solve":
        args = ["solve", "--out", str(tmp_path / "o"),
                "--override", "grid.nx=64", "--override", "grid.ny=64"]
    else:
        path = tmp_path / "ball.csv"
        with open(path, "w") as fh:
            save_domain(build_domain(GridSpec(64, 64, (-2.0, -2.0, 2.0, 2.0)),
                                     Ball(radius=0.1)), fh)
        args = ["verify", "--domain", str(path),
                "--override", 'checks=["sandwich"]']
    weight = 'weight.profile={"type":"radial","k":400}'
    assert main(["--quiet", *args, "--override", weight]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StarvedBoundary"
    assert "grid 64x64" in err["message"]


def test_seed_in_the_margin_exits_3_naming_grid_box_and_sides(tmp_path,
                                                              capsys):
    # the default weight's seed G1 has radius sqrt(2), which reaches the
    # margin of the y = +-1.5 sides of this box
    out = tmp_path / "o"
    rc = main(["--quiet", "solve", "--out", str(out),
               "--override", "grid.nx=128", "--override", "grid.ny=96",
               "--override", "grid.box=[-2.0,-1.5,2.0,1.5]"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OutOfBox"
    for part in ("grid 128x96", "box [-2.0, -1.5, 2.0, 1.5]", "4-cell",
                 "side(s) y0, y1 "):
        assert part in err["message"]
    assert not out.exists()


def test_failed_solve_leaves_the_output_set_untouched(tmp_path):
    # the k = 400 solve raises StarvedBoundary; nothing may be written by
    # then, or new artifacts would sit beside an old report
    out = tmp_path / "o"
    grid = ["--override", "grid.nx=64", "--override", "grid.ny=64"]
    assert main(["--quiet", "solve", "--out", str(out), *grid]) == 0
    names = ("trace.jsonl", "domain.csv", "field.csv", "boundary.csv",
             "report.json")
    before = {name: (out / name).read_bytes() for name in names}
    weight = 'weight.profile={"type":"radial","k":400}'
    assert main(["--quiet", "solve", "--out", str(out), *grid,
                 "--override", weight]) == 3
    assert {name: (out / name).read_bytes() for name in names} == before
    assert sorted(os.listdir(out)) == sorted(names)


def test_failed_write_leaves_the_output_set_untouched(tmp_path, monkeypatch):
    # the five files are renamed together after the last is written, so a
    # write that fails midway (here field.csv, after domain.csv and
    # trace.jsonl) leaves the old set whole and no temp file behind
    out = tmp_path / "o"
    grid = ["--override", "grid.nx=64", "--override", "grid.ny=64"]
    assert main(["--quiet", "solve", "--out", str(out), *grid]) == 0
    names = ("trace.jsonl", "domain.csv", "field.csv", "boundary.csv",
             "report.json")
    before = {name: (out / name).read_bytes() for name in names}

    def boom(*args, **kwargs):
        raise RuntimeError("disk full")

    # cmd_solve writes field.csv through its own name of the writer;
    # save_domain and save_boundary look theirs up in domain
    monkeypatch.setattr(cli, "write_csv", boom)
    weight = 'weight.profile={"type":"radial","k":0.6}'
    with pytest.raises(RuntimeError, match="disk full"):
        main(["--quiet", "solve", "--out", str(out), *grid,
              "--override", weight])
    assert {name: (out / name).read_bytes() for name in names} == before
    assert sorted(os.listdir(out)) == sorted(names)


def test_oracle_subcommand(capsys):
    assert main(["oracle", "--k", "0.5", "--alpha", "2", "--eps", "0.1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["r_eps"] == pytest.approx(0.9)
    assert rep["R_eps"] == pytest.approx(1.1)
    assert rep["radius"] == pytest.approx(1.0)


@pytest.mark.parametrize("args", [["--k", "-1"], ["--eps", "0"], ["--N", "0"],
                                  ["--alpha", "-1"], ["--N", "-2"],
                                  ["--k", "nan"], ["--alpha", "nan"],
                                  ["--eps", "nan"], ["--k", "inf"],
                                  ["--eps", "1"], ["--eps", "1.5"]],
                         ids="=".join)
def test_oracle_bad_arguments_exit_2(capsys, args):
    # argparse keeps an option's last value, so the case overrides the default
    assert main(["oracle", "--k", "0.5", "--alpha", "2.5", *args]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


# boxes that are not symmetric about x = 0 (wide) or y = 0 (tall); a
# symmetry check mirrors the front, not the grid, so it runs on either
LOPSIDED_BOXES = [(80, 64, [-2.0, -2.0, 3.0, 2.0]),
                  (64, 80, [-2.0, -2.0, 2.0, 3.0])]
SYMMETRY_CHECKS = ["basic", "symmetry_x", "symmetry_y"]


@pytest.mark.parametrize("nx,ny,box", LOPSIDED_BOXES, ids=["wide", "tall"])
def test_solve_symmetry_checks_on_lopsided_box(tmp_path, nx, ny, box):
    out = tmp_path / "run"
    rc = main(["--quiet", "solve", "--out", str(out),
               "--override", "checks=" + json.dumps(SYMMETRY_CHECKS),
               "--override", f"grid.nx={nx}", "--override", f"grid.ny={ny}",
               "--override", f"grid.box={json.dumps(box)}"])
    assert rc == 0
    rep = _read_report(out)
    assert [c["name"] for c in rep["checks"]] == SYMMETRY_CHECKS
    assert all(c["pass"] for c in rep["checks"])


@pytest.mark.parametrize("nx,ny,box", LOPSIDED_BOXES, ids=["wide", "tall"])
def test_verify_symmetry_checks_on_lopsided_box(tmp_path, capsys, nx, ny,
                                                box):
    grid = GridSpec(nx, ny, tuple(box))
    runs = {}
    for name, seed in (("centred", Ball(radius=1.0)),
                       ("offset", Ball(center=(0.0, 0.5), radius=0.8))):
        path = tmp_path / f"{name}.csv"
        with open(path, "w") as fh:
            save_domain(build_domain(grid, seed), fh)
        rc = main(["--quiet", "verify", "--domain", str(path),
                   "--override", "checks=" + json.dumps(SYMMETRY_CHECKS)])
        checks = json.loads(capsys.readouterr().out)["checks"]
        runs[name] = rc, {c["name"]: c for c in checks}
    rc, checks = runs["centred"]
    assert rc == 0
    assert all(c["pass"] for c in checks.values())
    rc, checks = runs["offset"]
    assert rc == 1
    assert checks["basic"]["pass"] and checks["symmetry_x"]["pass"]
    assert not checks["symmetry_y"]["pass"]
    assert checks["symmetry_y"]["measured"] == pytest.approx(1.0,
                                                             abs=2 * grid.h)


def test_verify_subcommand_pass_and_fail(tmp_path, capsys):
    grid = GridSpec(128, 128, (-2.0, -2.0, 2.0, 2.0))
    path = tmp_path / "ball.csv"
    with open(path, "w") as fh:
        save_domain(build_domain(grid, Ball(radius=1.0)), fh)
    checks = ["basic", "radial_ball", "symmetry_x", "symmetry_y"]
    rc = main(["--quiet", "verify", "--domain", str(path),
               "--override", "checks=" + json.dumps(checks)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in out["checks"])
    # each report carries its check's name, so keyed by name none collide
    assert [c["name"] for c in out["checks"]] == checks

    off = tmp_path / "off.csv"
    with open(off, "w") as fh:
        save_domain(build_domain(grid, Ball(center=(1.2, 0.0), radius=0.5)),
                    fh)
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


def _write_domain_file(path, grid, ls):
    x0, y0, x1, y1 = grid.box
    with open(path, "w") as fh:
        fh.write(f"{grid.nx},{grid.ny},{x0},{y0},{x1},{y1}\n")
        np.savetxt(fh, ls, delimiter=",")


@pytest.mark.parametrize("check", ["basic", "starshaped", "convex"])
@pytest.mark.parametrize("field", ["all-outside", "front-in-margin", "nan"])
def test_verify_invalid_domain_exits_2(tmp_path, capsys, field, check):
    grid = GridSpec(32, 32, (-2.0, -2.0, 2.0, 2.0))
    pts = grid.nodes()
    r = np.hypot(pts[..., 0], pts[..., 1])
    if field == "all-outside":
        ls = np.ones(grid.shape)
    elif field == "front-in-margin":
        ls = r - 1.95
    else:
        # a unit ball with one NaN on the frame and one inside
        ls = r - 1.0
        ls[0, 5] = ls[16, 16] = np.nan
    path = tmp_path / "domain.csv"
    _write_domain_file(path, grid, ls)
    rc = main(["--quiet", "verify", "--domain", str(path),
               "--override", f'checks=["{check}"]'])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_derivcheck_subcommand(capsys):
    rc = main(["--quiet", "derivcheck",
               "--override", "radii=[1.0]", *FAST_GRID])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["pass"]
    assert out["rows"][0]["errJ"] <= 0.02


def test_derivcheck_out_is_a_usage_error(capsys):
    # derivcheck only prints, so it takes no --out
    with pytest.raises(SystemExit) as exc:
        main(["--quiet", "derivcheck", "--out", "x"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


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

    monkeypatch.setattr(domain, "write_csv", boom)
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
