"""End-to-end checks of the command line driver and the bundled configs."""

import glob
import json
import lzma
import os

import pytest

import nlqm.atom
from nlqm.cli import EXPERIMENTS, main

CONFIG_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs"))
CONFIG_FILES = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
# the benchmark's recorded outputs of the bundled configs, <name>.csv.xz
REFERENCE_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference"))


def _scenarios(path):
    with open(path) as fh:
        cfg = json.load(fh)
    return cfg["scenarios"] if "scenarios" in cfg else [cfg]


def test_bundled_configs_cover_every_experiment():
    assert CONFIG_FILES, f"no bundled configs found under {CONFIG_DIR}"
    used = {sc["experiment"] for path in CONFIG_FILES for sc in _scenarios(path)}
    assert used == set(EXPERIMENTS)


@pytest.mark.parametrize("path", CONFIG_FILES,
                         ids=[os.path.basename(p) for p in CONFIG_FILES])
def test_bundled_config_passes(path, tmp_path):
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    reports = sorted(tmp_path.glob("*.report.json"))
    assert len(reports) == len(_scenarios(path))
    for rp in reports:
        rep = json.loads(rp.read_text())
        assert rep["passed"] is True
        csv_path = tmp_path / rep["csv"]
        assert csv_path.exists()
        # same header, rows and t grid as the recorded output, values to 1e-12
        ref = tmp_path / (rep["csv"] + ".reference")
        with lzma.open(os.path.join(REFERENCE_DIR, rep["csv"] + ".xz")) as fh:
            ref.write_bytes(fh.read())
        assert main(["compare", str(ref), str(csv_path), "--tol", "1e-12"]) == 0, rep["csv"]


@pytest.mark.parametrize("stem", ["probability-inconsistency", "eigenfrequency",
                                  "intention-paradox"])
def test_rerun_is_byte_identical(stem, tmp_path):
    cfg = os.path.join(CONFIG_DIR, stem + ".json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_csv_has_lf_endings_and_roundtrip_floats(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "probability-inconsistency.json")
    assert main(["run", cfg, "--out", str(tmp_path)]) == 0
    raw = next(tmp_path.glob("*.csv")).read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0].split(",")[0] == "t"
    for cell in lines[1].split(","):
        assert format(float(cell), ".17g") == cell


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def test_compare_verdicts(tmp_path, capsys):
    rows = [[0.0, 1.0], [0.1, 2.0], [0.2, 3.0]]
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    _write_csv(pa, ["t", "x"], rows)
    _write_csv(pb, ["t", "x"], rows)
    assert main(["compare", str(pa), str(pb)]) == 0

    _write_csv(pb, ["t", "x"], [[0.0, 1.0], [0.1, 2.0], [0.2, 3.5]])
    assert main(["compare", str(pa), str(pb)]) == 1
    assert main(["compare", str(pa), str(pb), "--tol", "1.0"]) == 0

    # deviations (0.3, 0.4, 0) -> l2 = 0.5
    _write_csv(pb, ["t", "x"], [[0.0, 1.3], [0.1, 2.4], [0.2, 3.0]])
    capsys.readouterr()
    assert main(["compare", str(pa), str(pb), "--norm", "l2"]) == 1
    assert float(capsys.readouterr().out.split()[-1]) == pytest.approx(0.5)

    _write_csv(pb, ["time", "x"], rows)
    assert main(["compare", str(pa), str(pb)]) == 2

    _write_csv(pb, ["t", "x"], rows[:2])
    assert main(["compare", str(pa), str(pb)]) == 2
    assert "row counts differ" in capsys.readouterr().err


def test_invalid_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenarios": [}')
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON at line 1 column" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def _run_dict(tmp_path, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    return main(["run", str(cfg), "--out", str(tmp_path / "out")])


def test_schema_rejections(tmp_path, capsys):
    assert _run_dict(tmp_path, {"experiment": "no-such-thing"}) == 2
    assert "unknown experiment" in capsys.readouterr().err

    assert _run_dict(tmp_path, {"experiment": "probability-inconsistency",
                                "bogus_knob": 3}) == 2
    assert "bogus_knob" in capsys.readouterr().err

    assert _run_dict(tmp_path, {"experiment": "probability-inconsistency",
                                "name": "bad name!"}) == 2
    assert "unusable name" in capsys.readouterr().err

    assert _run_dict(tmp_path, {"scenarios": [
        {"experiment": "probability-inconsistency", "name": "twin"},
        {"experiment": "probability-inconsistency", "name": "twin"}]}) == 2
    assert "duplicate" in capsys.readouterr().err

    # diagonal-census has a required state field
    assert _run_dict(tmp_path, {"experiment": "diagonal-census"}) == 2
    assert "missing required field 'state'" in capsys.readouterr().err

    assert _run_dict(tmp_path, {"scenarios": []}) == 2
    assert _run_dict(tmp_path, {"experiment": "no-signaling",
                                "description": "psychic"}) == 2


def test_failed_expectation_exits_one(tmp_path):
    rc = _run_dict(tmp_path, {"experiment": "eigen-census", "name": "toomany",
                              "eps": 0.2, "grid": [16, 8], "expected_count": 5})
    assert rc == 1
    rep = json.loads((tmp_path / "out" / "toomany.report.json").read_text())
    assert rep["passed"] is False
    assert rep["metrics"]["distinct"] == 2
    assert 0 < rep["metrics"]["newton_rows"] <= 60 * rep["metrics"]["seeds"]


def test_bad_census_grids_fail_their_scenario_and_the_rest_run(tmp_path, capsys):
    grids = {"negative": [-3, 16], "zero": [0, 0], "one-axis": [32],
             "three-axes": [32, 16, 4], "too-many-seeds": [3000, 3000]}
    bad = [{"experiment": "eigen-census", "name": name, "grid": grid}
           for name, grid in grids.items()]
    good = {"experiment": "eigen-census", "name": "valid", "eps": 0.2, "grid": [8, 4],
            "expected_count": 2}
    assert _run_dict(tmp_path, {"scenarios": bad + [good]}) == 1
    assert "Traceback" not in capsys.readouterr().err
    out = tmp_path / "out"
    for name in grids:
        rep = json.loads((out / f"{name}.report.json").read_text())
        assert rep["passed"] is False, name
        assert rep["error_type"] == "ValidationError", name
        assert "grid" in rep["error"], name
        assert not (out / f"{name}.csv").exists()
    assert json.loads((out / "valid.report.json").read_text())["passed"] is True


def test_scenario_runtime_error_is_reported(tmp_path):
    # a pure state aligned with the epshat kernel sits at a fixed point of the
    # plain flow, so the rate ratio is undefined; the run fails cleanly
    rc = _run_dict(tmp_path, {"experiment": "reduced-flow-variants",
                              "name": "frozen", "eps_levels": [1.0, -1.0],
                              "rho_diag": [0.5, 0.5], "delta": 0.5,
                              "t_end": 2.0, "dt": 0.01})
    assert rc == 1
    rep = json.loads((tmp_path / "out" / "frozen.report.json").read_text())
    assert rep["passed"] is False
    assert "fixed point" in rep["error"]


def _refuse(*args, **kwargs):
    raise AssertionError("allocated")


def test_bad_step_grids_fail_their_scenario_and_the_rest_run(tmp_path, monkeypatch):
    inf = float("inf")
    bad = [
        {"experiment": "bloch-neoclassical", "name": "bloch-dt-zero", "dt": 0},
        {"experiment": "bloch-neoclassical", "name": "bloch-dt-negative", "dt": -0.01},
        {"experiment": "bloch-neoclassical", "name": "bloch-t-inf", "t_end": inf},
        {"experiment": "intention-paradox", "name": "intention-dt-zero", "dt": 0},
        {"experiment": "intention-paradox", "name": "intention-dt-negative", "dt": -0.01},
        {"experiment": "intention-paradox", "name": "intention-t-inf", "t": inf},
        {"experiment": "reduced-flow-variants", "name": "reduced-dt-zero", "dt": 0},
        {"experiment": "reduced-flow-variants", "name": "reduced-dt-negative", "dt": -0.01},
        {"experiment": "reduced-flow-variants", "name": "reduced-t-inf", "t_end": inf},
        {"experiment": "eigenfrequency", "name": "wave-t-inf", "t_end": inf,
         "e_levels": [0.0, 1.0], "eps_levels": [0.5, -0.5], "state": [0.8, [0.0, 0.6]]},
    ]
    too_fine = {"experiment": "intention-paradox", "name": "intention-dt-tiny", "dt": 1e-300}
    # refused before anything is allocated: 900,000 steps at d = 10 are under
    # the step cap but over the sample cap, and n_max = 100000 would ask
    # linear_hamiltonian for 74.5 GiB
    long_wave = {"experiment": "eigenfrequency", "name": "wave-long", "t_end": 9000.0,
                 "dt": 0.01, "e_levels": [0.0] * 10, "eps_levels": [0.0] * 10,
                 "state": [1.0] + [0.0] * 9}
    huge_atom = {"experiment": "atom-inversion", "name": "atom-huge-cutoff", "n_max": 100000}
    monkeypatch.setattr(nlqm.atom, "linear_hamiltonian", _refuse)
    good = {"experiment": "intention-paradox", "name": "valid", "dt": 0.01}
    # json.dumps writes inf as the token Infinity, which json.load reads back
    assert _run_dict(tmp_path, {"scenarios": bad + [too_fine, long_wave, huge_atom, good]}) == 1
    out = tmp_path / "out"
    for sc, message in [(sc, "dt > 0") for sc in bad] + [
            (too_fine, "exceeds the cap"), (long_wave, "sample entries"),
            (huge_atom, "state dimension")]:
        rep = json.loads((out / f"{sc['name']}.report.json").read_text())
        assert rep["passed"] is False, sc["name"]
        assert rep["error_type"] == "ValidationError", sc["name"]
        assert message in rep["error"], sc["name"]
    assert json.loads((out / "valid.report.json").read_text())["passed"] is True


def test_unexpected_exception_fails_only_its_scenario(tmp_path, monkeypatch, capsys):
    def broken(_params):
        raise RuntimeError("runner broke")

    desc, fields, _ = EXPERIMENTS["probability-inconsistency"]
    monkeypatch.setitem(EXPERIMENTS, "probability-inconsistency", (desc, fields, broken))
    assert _run_dict(tmp_path, {"scenarios": [
        {"experiment": "probability-inconsistency", "name": "broken"},
        {"experiment": "intention-paradox", "name": "valid", "dt": 0.01}]}) == 1
    out = tmp_path / "out"
    rep = json.loads((out / "broken.report.json").read_text())
    assert rep["passed"] is False
    assert rep["error_type"] == "RuntimeError"
    assert rep["error"] == "runner broke"
    assert "Traceback" in capsys.readouterr().err
    assert json.loads((out / "valid.report.json").read_text())["passed"] is True


def test_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("NLQM_OUT", str(target))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "diagonal-census",
                               "name": "envcheck",
                               "state": [[1.0, 0.0], [0.0, 0.0]]}))
    assert main(["run", str(cfg)]) == 0
    assert (target / "envcheck.csv").exists()


def test_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("NLQM_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "diagonal-census",
                               "name": "defout",
                               "state": [[1.0, 0.0], [0.0, 0.0]]}))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "nlqm-out" / "defout.csv").exists()


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert f"{name}:" in out
    assert "choices=linear|polchinski|weinberg-fock" in out


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()
