"""End-to-end checks of the command line driver and the bundled configs."""

import contextlib
import glob
import hashlib
import importlib.util
import io
import json
import lzma
import os
import platform
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nlqm.atom
import nlqm.cli
from nlqm.cli import EXPERIMENTS, main

CONFIG_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs"))
CONFIG_FILES = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
BENCH_DIR = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
# the benchmark's recorded outputs of the bundled configs, <name>.csv.xz
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")


def _environment():
    """numpy's version, its BLAS name and version, and the machine type; None
    where numpy does not report its build as a dict (before 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"numpy": np.__version__, "blas": [blas["name"], blas.get("version")],
            "machine": platform.machine()}


# The sha256 of every output file of each bundled config, per config stem, and
# the environment they were written on.  A change that means to move these
# bytes records the new hashes here and says why.
with open(os.path.join(os.path.dirname(__file__), "bundled_bytes.json")) as _fh:
    BUNDLED_BYTES = json.load(_fh)


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
def test_bundled_config_passes(path, tmp_path, capfd):
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    # no traceback, warning or LAPACK line, which LAPACK writes to the descriptor
    assert capfd.readouterr().err == ""
    reports = sorted(tmp_path.glob("*.report.json"))
    assert len(reports) == len(_scenarios(path))
    if BUNDLED_BYTES["environment"] == _environment():  # else the 1e-12 check below only
        stem = os.path.splitext(os.path.basename(path))[0]
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == BUNDLED_BYTES["sha256"][stem]
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


def test_write_csv_pins_the_bytes(tmp_path):
    columns = {"t": [-0.0, 0.1], "x": [5e-324, 3.0], "y": [1.7976931348623157e308, -1.0]}
    path = tmp_path / "pinned.csv"
    nlqm.cli._write_csv(str(path), list(columns), np.column_stack(list(columns.values())))
    assert path.read_bytes() == (b"t,x,y\n"
                                 b"-0,4.9406564584124654e-324,1.7976931348623157e+308\n"
                                 b"0.10000000000000001,3,-1\n")
    nlqm.cli._write_csv(str(path), ["t", "x"], np.column_stack([np.empty(0), np.empty(0)]))
    assert path.read_bytes() == b"t,x\n"


def test_benchmark_tracer_hooks_into_the_package(tmp_path):
    # the benchmark wraps package functions by name; a renamed or re-signatured
    # hook would make its per-layer metrics read 0 or its traced run fail
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  os.path.join(BENCH_DIR, "tracer.py"))
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    try:
        traced_main = tracer.install()
        assert tracer.missing == []
        cfg = os.path.join(CONFIG_DIR, "probability-inconsistency.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert traced_main(["run", cfg, "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    [csv_path] = tmp_path.glob("*.csv")
    data_lines = len(csv_path.read_text().splitlines()) - 1
    assert tracer.rows_written == data_lines == 41
    assert tracer.bytes_written == sum(p.stat().st_size for p in tmp_path.iterdir())


def test_benchmark_kernel_sheet_runs_on_the_package():
    # the kernel sheet calls package functions with their keywords (such as
    # polchinski_functional's slot=); a removed one would fail traced runs
    spec = importlib.util.spec_from_file_location("bench_kernels",
                                                  os.path.join(BENCH_DIR, "kernels.py"))
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    kernels.BLOCKS = 1
    kernels.BLOCK_SECONDS = 0.0
    sheet = kernels.kernel_sheet(0)
    assert len(sheet) == 30
    assert all(np.isfinite(v) and v > 0.0 for v in sheet.values()), sheet


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


def test_compare_names_a_file_without_a_header_or_with_a_ragged_row(tmp_path, capsys):
    empty, wide, short, good = (tmp_path / f"{n}.csv" for n in ("empty", "wide", "short", "good"))
    empty.write_text("")
    wide.write_text("t,x\n0,1,2\n")
    short.write_text("t,x\n0,1\n1\n")
    good.write_text("t,x\n0,1\n")
    for a, b, message in ((empty, good, f"{empty} has no header"),
                          (good, wide, f"row 1 of {wide} has 3 fields, its header 2"),
                          (short, good, f"row 2 of {short} has 1 fields, its header 2")):
        assert main(["compare", str(a), str(b)]) == 2
        assert capsys.readouterr() == ("", f"compare error: {message}\n")


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_compare_refuses_non_finite_data(tmp_path, capsys, bad):
    pa = tmp_path / "a.csv"
    pa.write_text(f"t,x,y\n0,{bad},1\n")
    assert main(["compare", str(pa), str(pa)]) == 2
    out, err = capsys.readouterr()
    assert "non-finite entries in column(s) x" in err and "y" not in err
    assert "RuntimeWarning" not in err and out == ""


@pytest.mark.parametrize("side", ["a", "b", "both"])
@pytest.mark.parametrize("bad_t", ["nan", "inf", "-inf"])
def test_compare_refuses_a_non_finite_t_grid(tmp_path, capsys, bad_t, side):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text(f"t,x\n{bad_t if side != 'b' else 0},1\n")
    pb.write_text(f"t,x\n{bad_t if side != 'a' else 0},1\n")
    assert main(["compare", str(pa), str(pb)]) == 2
    assert "t grids differ" in capsys.readouterr().err


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
    assert _run_dict(tmp_path, {"experiment": ["eigen-census"]}) == 2
    cfg = tmp_path / "undecodable.json"
    cfg.write_bytes(b'{"experiment": "eigen-census", "name": "\xff"}')
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


INF, NAN = float("inf"), float("nan")
# one scenario per static rule, each refused by the schema pass (field named)
STATIC_VIOLATIONS = {
    "omega-infinite": ({"experiment": "bloch-neoclassical", "omega": INF}, "'omega'"),
    "tol-nan": ({"experiment": "atom-inversion", "tol": NAN}, "'tol'"),
    "samples-negative": ({"experiment": "probability-inconsistency", "samples": -3},
                         "samples"),
    "eigenfrequency-lengths": ({"experiment": "eigenfrequency", "e_levels": [0.0, 1.0],
                                "eps_levels": [0.5, -0.5], "state": [1.0, 0.0, 0.0]},
                               "e_levels, eps_levels and state"),
    "no-signaling-unnormalized": ({"experiment": "no-signaling", "alpha": 1.0,
                                   "beta": [0.0, 0.5]}, "alpha"),
    "gisin-unnormalized": ({"experiment": "gisin-telegraph", "alpha": 0.5, "beta": 0.5},
                           "alpha"),
    # |alpha|^2 + |beta|^2 - 1 = 3e-11: within 1e-10 but not within the 1e-12
    # of the unitary check in rotate_subsystem, which would fail it at run time
    "no-signaling-off-unit-by-3e-11": ({"experiment": "no-signaling",
                                        "alpha": 0.8660254037844386,
                                        "beta": 0.50000000003}, "alpha"),
    # |alpha|^2 + |beta|^2 - 1 = 9.9987e-13 but max |u u^dag - 1| = 1.000e-12
    # in rounding: the schema checks the unitary that the run rotates by
    "no-signaling-at-the-1e-12-edge": ({"experiment": "no-signaling",
                                        "alpha": [-0.4120707207100302, 0.7617071098089582],
                                        "beta": [-0.46748018826881305, 0.17737607949539044]},
                                       "alpha"),
    "r0-two-components": ({"experiment": "bloch-neoclassical", "r0": [0.0, -1.0]}, "r0"),
    "r0-not-unit": ({"experiment": "bloch-neoclassical", "r0": [0.0, 0.0, -0.5]}, "r0"),
    "level-with-compare": ({"experiment": "atom-inversion", "level": 2,
                            "omega_levels": [0.0, 1.0, 2.0], "eps_levels": [-0.5, 0.5, 0.0]},
                           "level"),
    "photons-at-the-top-layer": ({"experiment": "atom-inversion", "photons": 4, "n_max": 4},
                                 "photons must be below n_max"),
    "photons-above-the-top-layer": ({"experiment": "atom-inversion", "photons": 3,
                                     "n_max": 2, "compare": "none"}, "photons"),
    "mixture-weights": ({"experiment": "intention-paradox", "lambda1": 0.7, "lambda2": 0.7},
                        "lambda1, lambda2"),
    "reduced-flow-one-level": ({"experiment": "reduced-flow-variants", "eps_levels": [1.0],
                                "rho_diag": [1.0]}, "eps_levels and rho_diag"),
    "rho-diag-length": ({"experiment": "reduced-flow-variants",
                         "rho_diag": [0.5, 0.25, 0.25]}, "eps_levels and rho_diag"),
    "probability-eps-zero": ({"experiment": "probability-inconsistency", "eps": 0},
                             "eps must be nonzero"),
    "diagonal-state-length": ({"experiment": "diagonal-census", "state": [1.0, 0.0, 0.0]},
                              "state"),
    "diagonal-state-zero": ({"experiment": "diagonal-census", "state": [0.0, [0.0, 0.0]]},
                            "state"),
    "eigenfrequency-state-zero": ({"experiment": "eigenfrequency", "e_levels": [0.0, 1.0],
                                   "eps_levels": [0.5, -0.5], "state": [0.0, 0.0]},
                                  "state must have a squared norm that is a normal"),
    # squared norms near 1e-320 and 2e-320 are subnormal: the states are finite,
    # but their runs failed on "entries contains non-finite entries" (exit 1)
    "eigenfrequency-state-subnormal": ({"experiment": "eigenfrequency", "e_levels": [0.0, 1.0],
                                        "eps_levels": [0.5, -0.5],
                                        "state": [[1e-160, 0.0], [0.0, 0.0]]},
                                       "a normal finite float, got 9.99989e-321"),
    "diagonal-state-subnormal": ({"experiment": "diagonal-census",
                                  "state": [[1e-160, 0.0], [1e-160, 0.0]]},
                                 "a normal finite float, got 1.99998e-320"),
    # and one whose square overflows
    "diagonal-state-overflow": ({"experiment": "diagonal-census", "state": [1e200, 0.0]},
                                "got inf"),
    # each of these ran another family than the one named
    **{f"{exp}-even-power-{power}": (dict(extra, experiment=exp, family="even-power", power=power),
                                     "power must be even and at least 2")
       for exp, extra in (("eigen-census", {}), ("diagonal-census", {"state": [0.6, 0.8]}))
       for power in (3, 1, 0, -1, -2)},
    # <sigma3>^p / n^(p-1) leaves the float range once |ln n| (p - 1) > 708
    **{f"{exp}-even-power-{power}": (dict(extra, experiment=exp, family="even-power", power=power),
                                     "(and at most 64)")
       for exp, extra in (("eigen-census", {}), ("diagonal-census", {"state": [0.6, 0.8]}))
       for power in (66, 1000, 10 ** 20)},
}


@pytest.mark.parametrize("case", STATIC_VIOLATIONS)
def test_static_rules_exit_two_before_anything_runs(tmp_path, capsys, case):
    bad, field = STATIC_VIOLATIONS[case]
    good = {"experiment": "intention-paradox", "name": "valid", "dt": 0.01}
    assert _run_dict(tmp_path, {"scenarios": [good, dict(bad, name="bad")]}) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: scenario 'bad': ") and field in err, err
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "out").exists()


def _bundled_scenario(exp):
    return next(sc for path in CONFIG_FILES for sc in _scenarios(path)
                if sc["experiment"] == exp)


def test_vectorised_columns_match_the_per_row_arithmetic(monkeypatch):
    seen = {}
    for name in ("find_eigenstates", "eigenfrequencies"):
        def spy(*args, _name=name, _fn=getattr(nlqm.cli, name), **kwargs):
            seen[_name] = _fn(*args, **kwargs)
            return seen[_name]
        monkeypatch.setattr(nlqm.cli, name, spy)
    [(_, _, p)] = nlqm.cli._schema_pass(_bundled_scenario("eigen-census"))
    columns, _, _ = nlqm.cli._run_eigen_census(p)
    for i, rec in enumerate(seen["find_eigenstates"]):
        w = np.abs(rec.state) ** 2
        assert [columns["weight_0"][i], columns["weight_1"][i]] == [w[0], w[1]]
    [(_, _, p)] = nlqm.cli._schema_pass({
        "experiment": "eigenfrequency", "e_levels": [0.0, 1.0, 2.0],
        "eps_levels": [0.4, -0.4, 0.1], "state": [0.8, 0.0, 0.6], "t_end": 5.0})
    columns, metrics, _ = nlqm.cli._run_eigenfrequency(p)
    predicted = nlqm.cli.canonical_frequencies(p["e_levels"], p["eps_levels"],
                                               p["state"]).tolist()
    total = sum(weight for _, weight in seen["eigenfrequencies"])
    devs = [abs(om - pred) if weight > 1e-10 * total else 0.0
            for (om, weight), pred in zip(seen["eigenfrequencies"], predicted)]
    assert columns["deviation"].tolist() == devs and devs[1] == 0.0 < devs[0]
    assert metrics["max_deviation"] == max(devs)


def test_an_eigenfrequency_check_compares_the_same_components_at_every_scale():
    # every weight is compared with the total: the bundled ray at 1e-5 used to
    # pass a 1e-12 tolerance with nothing compared
    runs = []
    for scale in (1e-5, 1.0, 1e5):
        sc = dict(_bundled_scenario("eigenfrequency"), tol=1e-12)
        sc["state"] = [[scale * re, scale * im] for re, im in sc["state"]]
        [(_, _, p)] = nlqm.cli._schema_pass(sc)
        runs.append(nlqm.cli._run_eigenfrequency(p))
    devs = [metrics["max_deviation"] for _, metrics, _ in runs]
    assert 1e-10 < devs[1] and max(devs) - min(devs) <= 1e-3 * devs[1]
    assert [passed for *_, passed in runs] == [False] * 3


@pytest.mark.parametrize("exp", sorted(EXPERIMENTS))
def test_field_defaults_pass_the_schema_unchanged(exp):
    fields = EXPERIMENTS[exp][1]
    required = {f.name: _bundled_scenario(exp)[f.name] for f in fields if f.required}
    defaults = {f.name: f.default for f in fields if not f.required}
    # as JSON, written out in full: every default is a value of its own kind
    explicit = json.loads(json.dumps(nlqm.cli._jsonable(defaults)))
    for sc in ({"experiment": exp, **required}, {"experiment": exp, **explicit, **required}):
        [(_, _, params)] = nlqm.cli._schema_pass(sc)
        assert {k: params[k] for k in defaults} == defaults


def _stub_runner(_params):
    return {"t": [0.0]}, {}, True


# the grouped experiments keep their runners, and run for real
_STUBBED = {exp: (desc, fields, run if group else _stub_runner, check, group)
            for exp, (desc, fields, run, check, group) in EXPERIMENTS.items()}
_NUMBER = st.integers() | st.floats() | st.sampled_from([0.5, 1e300, -1e300, 10 ** 400])
# any JSON value, half of them numbers or lists of numbers and [re, im]
# pairs, so that the static rules behind the kind checks are reached too
_JSON = (_NUMBER | st.lists(_NUMBER | st.lists(_NUMBER, min_size=2, max_size=2),
                            min_size=1, max_size=4)
         | st.recursive(st.none() | st.booleans() | _NUMBER | st.text(max_size=8),
                        lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                        max_leaves=8))
_CASES = st.sampled_from(sorted(EXPERIMENTS)).flatmap(lambda exp: st.tuples(
    st.just(exp), st.dictionaries(st.sampled_from([f.name for f in EXPERIMENTS[exp][1]]),
                                  _JSON, min_size=1, max_size=2)))


@settings(max_examples=150, deadline=None)
@given(case=_CASES)
# rules doing arithmetic on finite values that overflow
@example(case=("gisin-telegraph", {"alpha": 1e300}))
@example(case=("intention-paradox", {"lambda1": 1e308, "lambda2": 1e308}))
@example(case=("bloch-neoclassical", {"r0": [1e300, 0.0, 0.0]}))
@example(case=("mobility-telegraph", {"t_end": 1e300, "dt": 1e-300}))
# group keys of scenarios over a cap
@example(case=("atom-inversion", {"dt": 1e-300}))
@example(case=("atom-inversion", {"n_max": 100000}))
def test_any_json_value_in_any_field_exits_cleanly(case):
    exp, values = case
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(EXPERIMENTS, _STUBBED), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"experiment": exp, **values}, fh)  # NaN and Infinity as JSON tokens
        assert main(["run", cfg, "--out", os.path.join(tmp, "out")]) in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()


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


def test_invalid_reduced_flow_state_fails_its_scenario_and_the_rest_run(tmp_path, capsys):
    bad = [{"experiment": "reduced-flow-variants", "name": "zero-trace",
            "rho_diag": [0.0, 0.0], "delta": 0.0},
           {"experiment": "reduced-flow-variants", "name": "not-positive",
            "rho_diag": [0.5, 0.5], "delta": 2.0}]
    good = {"experiment": "intention-paradox", "name": "valid", "dt": 0.01}
    assert _run_dict(tmp_path, {"scenarios": bad + [good]}) == 1
    assert capsys.readouterr().err == ""
    out = tmp_path / "out"
    for sc, message in zip(bad, ("trace", "positive")):
        rep = json.loads((out / f"{sc['name']}.report.json").read_text())
        assert rep["passed"] is False
        assert rep["error_type"] == "ValidationError"
        assert message in rep["error"]
        assert not (out / f"{sc['name']}.csv").exists()
    assert json.loads((out / "valid.report.json").read_text())["passed"] is True


def test_probability_samples_are_bounded(tmp_path, monkeypatch, capsys):
    cap = nlqm.cli.MAX_PROBABILITY_SAMPLES
    good = {"experiment": "probability-inconsistency", "name": "valid", "samples": 1}
    for n in (-3, 0, cap + 1):
        bad = {"experiment": "probability-inconsistency", "name": "bad", "samples": n}
        assert _run_dict(tmp_path, {"scenarios": [good, bad]}) == 2
        assert "samples must be between 1 and" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    assert _run_dict(tmp_path, good) == 0
    assert json.loads((tmp_path / "out" / "valid.report.json").read_text())["passed"] is True
    # above the cap nothing is allocated
    monkeypatch.setattr(np, "linspace", _refuse)
    assert _run_dict(tmp_path, {"experiment": "probability-inconsistency",
                                "samples": cap + 1}) == 2


def _refuse(*args, **kwargs):
    raise AssertionError("allocated")


def test_bad_step_grids_fail_their_scenario_and_the_rest_run(tmp_path, monkeypatch, capfd):
    inf = float("inf")
    # static: refused by the schema pass, exit 2, before anything runs
    bad = [
        ({"experiment": "bloch-neoclassical", "dt": 0}, "dt > 0"),
        ({"experiment": "bloch-neoclassical", "dt": -0.01}, "dt > 0"),
        ({"experiment": "bloch-neoclassical", "t_end": inf}, "'t_end'"),
        ({"experiment": "intention-paradox", "dt": 0}, "dt > 0"),
        ({"experiment": "intention-paradox", "dt": -0.01}, "dt > 0"),
        ({"experiment": "intention-paradox", "t": inf}, "'t'"),
        ({"experiment": "reduced-flow-variants", "dt": 0}, "dt > 0"),
        ({"experiment": "reduced-flow-variants", "dt": -0.01}, "dt > 0"),
        ({"experiment": "reduced-flow-variants", "t_end": inf}, "'t_end'"),
        ({"experiment": "eigenfrequency", "t_end": inf, "e_levels": [0.0, 1.0],
          "eps_levels": [0.5, -0.5], "state": [0.8, [0.0, 0.6]]}, "'t_end'"),
    ]
    good = {"experiment": "intention-paradox", "name": "valid", "dt": 0.01}
    for sc, message in bad:
        # json.dumps writes inf as the token Infinity, which json.load reads back
        assert _run_dict(tmp_path, {"scenarios": [good, dict(sc, name="bad")]}) == 2, sc
        err = capfd.readouterr().err
        assert "config error: scenario 'bad'" in err and message in err, sc
        assert not (tmp_path / "out").exists()
    # dynamic: the grid is only refused when the scenario runs, exit 1
    too_fine = {"experiment": "intention-paradox", "name": "intention-dt-tiny", "dt": 1e-300}
    # refused before anything is allocated: 900,000 steps at d = 10 are under
    # the step cap but over the sample cap, and n_max = 100000 would ask
    # linear_hamiltonian for 74.5 GiB
    long_wave = {"experiment": "eigenfrequency", "name": "wave-long", "t_end": 9000.0,
                 "dt": 0.01, "e_levels": [0.0] * 10, "eps_levels": [0.0] * 10,
                 "state": [1.0] + [0.0] * 9}
    huge_atom = {"experiment": "atom-inversion", "name": "atom-huge-cutoff", "n_max": 100000}
    # an atom scenario whose grid is over the step cap has no group key: it
    # runs and fails alone, and its valid twin of the same structure passes
    atom_tiny = {"experiment": "atom-inversion", "name": "atom-dt-tiny", "dt": 1e-300}
    atom_twin = {"experiment": "atom-inversion", "name": "atom-twin", "t_end": 1.0}
    # too few samples for the fits: one at t_end = 0, two at t_end = 1e-300;
    # four at dt = 1e-300 and at dt = 1e-160, over a span whose square is
    # zero or subnormal (at 1e-160 the telegraphs used to fit a frequency
    # near 3e160 and eigenfrequency passed on 3 steps)
    wave = {"e_levels": [0.0, 1.0], "eps_levels": [0.4, -0.4], "state": [0.8, [0.0, 0.6]]}
    short = [({"experiment": exp, "name": f"{exp}-{t_end:g}", "t_end": t_end}, "too short")
             for exp, t_end in [("gisin-telegraph", 0.0), ("mobility-telegraph", 0.0),
                                ("reduced-flow-variants", 0.0),
                                ("reduced-flow-variants", 1e-300)]]
    short += [(dict(extra, experiment=exp, name=f"{exp}-dt-{dt:g}", dt=dt, t_end=3 * dt),
               "too short")
              for dt in (1e-300, 1e-160)
              for exp, extra in [("reduced-flow-variants", {}), ("eigenfrequency", wave),
                                 ("gisin-telegraph", {}), ("mobility-telegraph", {})]]
    # four samples whose squared span is a normal float still fit
    tiny_ok = {"experiment": "reduced-flow-variants", "name": "reduced-dt-1e-150",
               "dt": 1e-150, "t_end": 3e-150}
    dynamic = [(too_fine, "exceeds the cap"), (long_wave, "sample entries"),
               (huge_atom, "state dimension"), (atom_tiny, "exceeds the cap")] + short
    ladder = nlqm.atom.linear_hamiltonian
    monkeypatch.setattr(nlqm.atom, "linear_hamiltonian",
                        lambda p: ladder(p) if p.n_max == 4 else _refuse())
    assert _run_dict(tmp_path, {"scenarios": [sc for sc, _ in dynamic]
                                + [tiny_ok, good, atom_twin]}) == 1
    out = tmp_path / "out"
    for sc, message in dynamic:
        rep = json.loads((out / f"{sc['name']}.report.json").read_text())
        assert rep["passed"] is False, sc["name"]
        assert rep["error_type"] == "ValidationError", sc["name"]
        assert message in rep["error"], sc["name"]
    for name in ("reduced-dt-1e-150", "valid", "atom-twin"):
        assert json.loads((out / f"{name}.report.json").read_text())["passed"] is True
    # LAPACK writes its DLASCL complaint to the file descriptors, not to sys.stderr
    printed = "".join(capfd.readouterr())
    for noise in ("Traceback", "RuntimeWarning", "DLASCL"):
        assert noise not in printed


def _failed_reports(tmp_path, scenarios):
    """Run the scenarios in one config, expect exit 1, return name -> report."""
    assert _run_dict(tmp_path, {"scenarios": scenarios}) == 1
    return {sc["name"]: json.loads((tmp_path / "out" / f"{sc['name']}.report.json").read_text())
            for sc in scenarios}


def test_unstable_grids_fail_on_the_norm_budget_and_print_nothing(tmp_path, capfd):
    # each step is far past RK4's stability limit: the first sample breaks
    # the norm budget, and the loop overflows before its block is monitored
    wave = {"eps_levels": [0.4, -0.4], "state": [0.8, [0.0, 0.6]]}
    cases = [
        ({"experiment": "atom-inversion", "name": "atom-fock", "description": "weinberg-fock",
          "dt": 10, "t_end": 1000}, "7.444e+06", "10"),
        ({"experiment": "atom-inversion", "name": "atom-lifted", "description": "polchinski",
          "dt": 40, "t_end": 4000}, "2.236e+11", "40"),
        (dict(wave, experiment="eigenfrequency", name="wave", e_levels=[0, 30], dt=3,
              t_end=300), "2.756e+12", "3"),
        ({"experiment": "gisin-telegraph", "name": "gisin", "eps": 30, "dt": 4, "t_end": 400},
         "3.147e+04", "4"),
    ]
    reports = _failed_reports(tmp_path, [sc for sc, _, _ in cases])
    assert capfd.readouterr().err == ""
    for sc, drift, t in cases:
        rep = reports[sc["name"]]
        assert rep["passed"] is False and rep["error_type"] == "IntegrationError"
        assert rep["error"] == (f"norm drift {drift} exceeded budget 1.000e-04 at t = {t}; "
                                "reduce dt")


def test_overflowing_mixture_flows_report_their_first_broken_invariant(tmp_path, capfd):
    # the samples after the first broken one overflow; their invariants are
    # non-finite and count as broken, without a RuntimeWarning
    reports = _failed_reports(tmp_path, [
        {"experiment": "reduced-flow-variants", "name": "levels", "eps_levels": [1e6, -1e6]},
        {"experiment": "intention-paradox", "name": "paradox", "f": 1e6},
    ])
    assert capfd.readouterr().err == ""
    # a lone reduced-flow scenario is a stack of its two flows: the report names the flow
    assert reports["levels"]["error"] == ("reduced flow failed to conserve purity at t = 0.01 "
                                          "in the plain flow (0.625 -> 8.88889e+69); reduce dt")
    assert reports["paradox"]["error"] == "sigma1 average drifted at t = 0.00199974; reduce dt"


def test_values_near_the_float_range_fail_their_scenario_and_print_nothing(tmp_path, capfd):
    # a level near the float range is symmetrised without overflow and then
    # blows up in the first step; a mixture whose trace or purity overflows is
    # refused before the first step
    reports = _failed_reports(tmp_path, [
        {"experiment": "eigenfrequency", "name": "levels", "e_levels": [1e308, -1e308],
         "eps_levels": [0.5, -0.5], "state": [0.6, 0.8]},
        {"experiment": "reduced-flow-variants", "name": "trace", "rho_diag": [1e308, 1e308]},
        {"experiment": "reduced-flow-variants", "name": "purity", "rho_diag": [1e200, 1e200]},
        {"experiment": "reduced-flow-variants", "name": "seeded", "rho_diag": [1e160, 0.5e160],
         "delta": 1e150},
        # the wave monitor's operator build overflows: refused as non-finite
        {"experiment": "atom-inversion", "name": "atom-up", "eps_levels": [1e154, 0.5]},
        {"experiment": "atom-inversion", "name": "atom-down", "eps_levels": [-1e154, 0.5]},
        # the probability rules square E and eps
        {"experiment": "probability-inconsistency", "name": "huge-e", "e": 1e200},
    ])
    assert capfd.readouterr().err == ""
    assert reports["huge-e"]["error"] == ("moment_probabilities needs E and eps whose squares "
                                          "are finite, got E = 1e+200, eps = 0.1")
    assert reports["levels"]["error"] == "solution blew up at t = 0.01"
    for name in ("atom-up", "atom-down"):
        assert reports[name]["error_type"] == "ValidationError"
        assert reports[name]["error"] == "entries contains non-finite entries"
    assert reports["trace"]["error"] == ("density matrix trace must be real and positive "
                                         "(and finite), got (inf+0j)")
    for name in ("purity", "seeded"):
        assert reports[name]["error_type"] == "ValidationError"
        assert reports[name]["error"].startswith(
            "rho0's trace, epshat average and purity must be finite, got ")
        assert reports[name]["error"].endswith(", inf")


def test_a_tiny_or_huge_census_state_fails_its_scenario_and_prints_nothing(tmp_path, capfd):
    # the cubic evaluator's 0/0 or overflow is refused as singular, unwarned
    # (a state whose squared norm is subnormal is refused by the schema)
    cases = {"tiny": ("cubic", [6e-101, 8e-101], "SingularObservableError"),
             "huge": ("cubic", [1e154, 0.5], "SingularObservableError")}
    reports = _failed_reports(tmp_path, [
        {"experiment": "diagonal-census", "name": name, "family": family, "state": state}
        for name, (family, state, _) in cases.items()])
    assert capfd.readouterr().err == ""
    for name, (_, _, error_type) in cases.items():
        assert reports[name]["error_type"] == error_type


def _outputs(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _solo_runs(tmp_path, scenarios, capsys):
    """Run each scenario in a config of its own, into one directory; return
    the exit codes, the outputs and the stdout lines."""
    codes, lines = [], []
    for sc in scenarios:
        cfg = tmp_path / f"solo-{sc['name']}.json"
        cfg.write_text(json.dumps(sc))
        codes.append(main(["run", str(cfg), "--out", str(tmp_path / "solo")]))
        lines += capsys.readouterr().out.splitlines()
    return codes, _outputs(tmp_path / "solo"), lines


# the rows of each spied stack: its variants, its lambda1, its initial states,
# its alphas or eps values (one row a member), or the two states of each
# remote unitary
_STACK_ROWS = {"polchinski_reduced_flow": lambda args: len(np.atleast_1d(args[0])),
               "intention_paradox": lambda args: len(np.atleast_1d(args[0])),
               "inversion_trajectory": lambda args: len(np.atleast_2d(args[1])),
               "gisin_telegraph": lambda args: len(np.atleast_1d(args[0])),
               "mobility_telegraph": lambda args: len(np.atleast_1d(args[0])),
               "no_signaling_check": lambda args: 2 * len(np.reshape(args[1], (-1, 2, 2)))}


def _spied(monkeypatch, *fns):
    """A list to which every later call of the functions ``fns`` (of
    ``composite``, or ``atom.inversion_trajectory``) appends ``(fn, rows)``."""
    stacks = []
    for fn in fns:
        module = nlqm.atom if fn == "inversion_trajectory" else nlqm.composite
        def call(*args, fn=fn, real=getattr(module, fn), **kwargs):
            stacks.append((fn, _STACK_ROWS[fn](args)))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, fn, call)
    return stacks


def _grouping_case(exp):
    """Scenarios with groups of ``exp`` among others; the stacks they integrate,
    in order, as ``(fn, rows)``; and the members that fail, each name mapped
    to a part of its error, or to None for a failed check."""
    flows, mixtures = (_scenarios(os.path.join(CONFIG_DIR, f"{stem}.json"))
                       for stem in ("reduced-flow-variants", "intention-paradox"))
    other_grid = {"experiment": "reduced-flow-variants", "name": "other-grid", "t_end": 4.0}
    other_f = dict(mixtures[1], name="other-f", f=1.5)
    between = {"experiment": "diagonal-census", "name": "between", "state": [0.6, 0.8]}
    if exp == "reduced-flow-variants":
        # the bundled flows and paradoxes, one more flow on another grid and
        # one more paradox with another f, interleaved: both bundled flows
        # and their variants as one stack of 4, the four paradoxes as one
        # stack, then the other grid as one of 2
        return ([flows[0], mixtures[0], other_grid, mixtures[1], flows[1], mixtures[2],
                 other_f],
                [("polchinski_reduced_flow", 4), ("intention_paradox", 4),
                 ("polchinski_reduced_flow", 2)], {})
    if exp == "intention-paradox":
        # the paradoxes first, with the flows and a census between them
        return ([mixtures[0], flows[1], between, mixtures[1], other_f, flows[0], mixtures[2]],
                [("intention_paradox", 4), ("polchinski_reduced_flow", 4)], {})
    if exp in ("gisin-telegraph", "mobility-telegraph"):
        # the bundled scenario and members of its step size 0.05, each with
        # its own parameters and horizon: "fit" has three samples, so its
        # fit fails on its own after the one integration; another step size
        # is a group of one
        [bundled] = _scenarios(os.path.join(CONFIG_DIR, f"{exp}.json"))
        own = ({"alpha": np.cos(0.4), "beta": np.sin(0.4), "eps": 0.3, "e1": -0.2, "e2": 0.4}
               if exp == "gisin-telegraph" else {"eps": 0.3, "tilt": 0.3})
        members = [bundled, dict(own, experiment=exp, name="own", t_end=20.0), between,
                   dict(own, experiment=exp, name="fit", t_end=0.1),
                   dict(own, experiment=exp, name="other-dt", t_end=20.0, dt=0.04)]
        fn = exp.replace("-", "_")
        return members, [(fn, 3), (fn, 1)], {"fit": "too short"}
    if exp == "no-signaling":
        # the three bundled descriptions (t_end 5) and a member of each on
        # half that horizon, whose two rows leave the stack after t = 2.5;
        # "blown" (e1 = 1e154) blows up in its rows of the plain stack of six,
        # so it reruns alone and the other two run again as a stack of four
        bundled = _scenarios(os.path.join(CONFIG_DIR, "no-signaling.json"))
        half = {"experiment": exp, "t_end": 2.5, "alpha": [0.6, 0.0], "beta": [0.0, 0.8],
                "eps": 0.4, "e1": -0.3, "e2": 0.7}
        members = bundled + [dict(half, name="blown", e1=1e154), between] + [
            dict(half, name=f"half-{sc['name']}", description=sc["description"],
                 expect=sc["expect"]) for sc in bundled]
        fn = "no_signaling_check"
        return (members, [(fn, 6), (fn, 2), (fn, 4), (fn, 4), (fn, 4)],
                {"blown": "solution blew up at t = 0.01 in row 0"})
    # five polchinski members of one step size, each with its own parameters
    # and horizon: "leaky" reaches the top Fock layer, so the stack of five
    # fails in its row and it reruns alone, then the other four as a stack,
    # of which "strict" fails its closed-form check on its own; another
    # description and another step size are groups of one
    atom = {"experiment": exp, "t_end": 2.0}
    members = [dict(atom, name="long"),
               dict(atom, name="short", t_end=1.0, eps_levels=[-0.6, 0.6], q=[0.6, 0.8],
                    level=1, photons=0),
               between,
               dict(atom, name="strict", t_end=1.5, tol=1e-12),
               dict(atom, name="lone", description="weinberg-fock", compare="cos", tol=1e-6),
               dict(atom, name="leaky", t_end=1.0, level=1, photons=3),
               dict(atom, name="detuned", t_end=0.5, omega=0.9, omega_levels=[0.0, 1.1],
                    compare="none"),
               dict(atom, name="other-dt", t_end=1.0, dt=0.004)]
    return (members, [("inversion_trajectory", n) for n in (5, 1, 4, 1, 1)],
            {"strict": None, "leaky": "top Fock layer"})


@pytest.mark.parametrize("exp", [exp for exp, entry in EXPERIMENTS.items() if entry[4]])
def test_grouped_scenarios_write_the_bytes_of_their_solo_runs(exp, tmp_path, capsys,
                                                              monkeypatch):
    scenarios, stacked, failing = _grouping_case(exp)
    stacks = _spied(monkeypatch, *_STACK_ROWS)
    code = _run_dict(tmp_path, {"scenarios": scenarios})
    grouped, lines = _outputs(tmp_path / "out"), capsys.readouterr().out.splitlines()
    assert stacks == stacked
    assert code == int(bool(failing))
    assert [line.split(":")[0] for line in lines if "FAIL" in line] == [
        sc["name"] for sc in scenarios if sc["name"] in failing]
    assert [line for line in lines if "FAIL" not in line] == [
        f"{sc['name']}: pass ({sc['experiment']})" for sc in scenarios
        if sc["name"] not in failing]
    codes, solo, solo_lines = _solo_runs(tmp_path, scenarios, capsys)
    assert codes == [int(sc["name"] in failing) for sc in scenarios]
    assert solo_lines == lines and solo == grouped
    assert {f"{sc['name']}.report.json" for sc in scenarios} <= set(grouped)
    if not failing:
        assert len(grouped) == 2 * len(scenarios)
    for name, message in failing.items():
        report = json.loads(grouped[f"{name}.report.json"])
        assert report["passed"] is False
        assert message is None or message in report["error"]


def test_a_failing_group_member_fails_only_its_own_report(tmp_path, capsys, monkeypatch):
    # levels of +-3 turn too fast for dt = 0.01 and break the purity invariant
    # in row 2 of the stack: that member reruns alone, so it reports what it
    # reports alone, and the others run again as one stack and keep the bytes
    # of their group
    good = [{"experiment": "reduced-flow-variants", "name": "mixed", "t_end": 5.0},
            {"experiment": "reduced-flow-variants", "name": "pure", "t_end": 5.0,
             "eps_levels": [1.0, 0.0], "rho_diag": [0.5, 0.5], "delta": 0.5}]
    wide = {"experiment": "reduced-flow-variants", "name": "wide", "t_end": 5.0,
            "eps_levels": [3.0, -3.0], "delta": 0.01}
    stacks = _spied(monkeypatch, "polchinski_reduced_flow")
    assert _run_dict(tmp_path, {"scenarios": [good[0], wide, good[1]]}) == 1
    # two stacks and one solo run: the group, the failing member, the others
    assert [rows for _, rows in stacks] == [6, 2, 4]
    mixed = _outputs(tmp_path / "out")
    assert capsys.readouterr().out.splitlines()[0::2] == ["mixed: pass (reduced-flow-variants)",
                                                          "pure: pass (reduced-flow-variants)"]
    report = json.loads(mixed["wide.report.json"])
    assert report["passed"] is False and report["error_type"] == "IntegrationError"
    # a lone scenario is a stack of its two flows: the report names the flow
    assert report["error"].startswith("reduced flow failed to conserve purity at t = 0.18 "
                                      "in the plain flow (")
    codes, solo, _ = _solo_runs(tmp_path, [wide], capsys)
    assert codes == [1] and solo["wide.report.json"] == mixed.pop("wide.report.json")
    (tmp_path / "out").rename(tmp_path / "with-wide")
    assert _run_dict(tmp_path, {"scenarios": good}) == 0
    assert _outputs(tmp_path / "out") == mixed


def test_reduced_flows_over_the_stack_sample_cap_run_each_flow_alone(tmp_path, capsys,
                                                                     monkeypatch):
    # 2,001 samples of a 2-level flow are 8,004 entries, and 16,008 as the
    # stack of both flows: a cap between the two refuses every stack of this
    # grid, so each scenario runs its flows as two calls and keeps its bytes
    flow = {"experiment": "reduced-flow-variants", "t_end": 20.0}
    scenarios = [dict(flow, name="mixed"), dict(flow, name="tilted", rho_diag=[0.6, 0.4])]
    assert _run_dict(tmp_path, {"scenarios": scenarios}) == 0
    stacked = _outputs(tmp_path / "out")
    (tmp_path / "out").rename(tmp_path / "stacked")
    monkeypatch.setattr(nlqm.dynamics, "MAX_SAMPLE_ENTRIES", 12_000)
    stacks = _spied(monkeypatch, "polchinski_reduced_flow")
    assert _run_dict(tmp_path, {"scenarios": scenarios}) == 0
    # the group, then each member as a stack and as its two flows
    assert [rows for _, rows in stacks] == [4, 2, 1, 1, 2, 1, 1]
    assert _outputs(tmp_path / "out") == stacked
    capsys.readouterr()
    # a flow alone over the cap still fails, with the flow's own message
    monkeypatch.setattr(nlqm.dynamics, "MAX_SAMPLE_ENTRIES", 8_000)
    codes, solo, _ = _solo_runs(tmp_path, scenarios[:1], capsys)
    assert codes == [1]
    assert json.loads(solo["mixed.report.json"])["error"] == (
        "2,001 samples of 4 entries exceed the cap of 8,000 sample entries (dt = 0.01, t_end = 20)")


def test_a_member_failing_after_the_stack_fails_alone_and_nothing_reruns(tmp_path, capsys,
                                                                         monkeypatch):
    # the middle member sits at a fixed point of the plain flow, so its rate
    # ratio is undefined: its own result raises after the one integration
    flow = {"experiment": "reduced-flow-variants", "t_end": 5.0}
    scenarios = [dict(flow, name="mixed"),
                 dict(flow, name="frozen", rho_diag=[0.5, 0.5], delta=0.5),
                 dict(flow, name="tilted", rho_diag=[0.6, 0.4])]
    stacks = _spied(monkeypatch, "polchinski_reduced_flow")
    assert _run_dict(tmp_path, {"scenarios": scenarios}) == 1
    assert stacks == [("polchinski_reduced_flow", 6)]
    grouped, lines = _outputs(tmp_path / "out"), capsys.readouterr().out.splitlines()
    assert lines[0::2] == ["mixed: pass (reduced-flow-variants)",
                           "tilted: pass (reduced-flow-variants)"]
    report = json.loads(grouped["frozen.report.json"])
    assert report["error_type"] == "ValidationError" and "fixed point" in report["error"]
    codes, solo, solo_lines = _solo_runs(tmp_path, scenarios, capsys)
    assert codes == [0, 1, 0] and solo_lines == lines and solo == grouped


def test_a_blown_up_paradox_member_writes_its_solo_report(tmp_path, capsys, monkeypatch):
    paradox = {"experiment": "intention-paradox", "dt": 0.01}
    scenarios = [dict(paradox, name="even"), dict(paradox, name="fast", f=1e6),
                 dict(paradox, name="weighted", lambda1=0.2, lambda2=0.8)]
    stacks = _spied(monkeypatch, "intention_paradox")
    assert _run_dict(tmp_path, {"scenarios": scenarios}) == 1
    assert [rows for _, rows in stacks] == [3, 1, 2]
    grouped, lines = _outputs(tmp_path / "out"), capsys.readouterr().out.splitlines()
    assert json.loads(grouped["fast.report.json"])["error_type"] == "IntegrationError"
    codes, solo, solo_lines = _solo_runs(tmp_path, scenarios, capsys)
    assert codes == [0, 1, 0] and solo_lines == lines and solo == grouped
    (tmp_path / "out").rename(tmp_path / "with-fast")
    del scenarios[1]
    assert _run_dict(tmp_path, {"scenarios": scenarios}) == 0
    assert _outputs(tmp_path / "out") == {k: v for k, v in grouped.items()
                                          if not k.startswith("fast.")}


def test_censuses_near_the_float_range_pass_and_print_nothing(tmp_path, capfd):
    # a seed whose state overflows in the Newton loop is dropped without a
    # RuntimeWarning; 64 is the largest power of the even-power family
    scenarios = [{"experiment": "eigen-census", "name": f"{key}-{i}", "family": "canonical",
                  key: level} for i, level in enumerate((1e154, -1e154)) for key in ("e1", "e2")]
    scenarios += [{"experiment": "eigen-census", "name": "power-64", "family": "even-power",
                   "power": 64},
                  {"experiment": "diagonal-census", "name": "power-64-small", "power": 64,
                   "family": "even-power", "state": [0.003, 0.004]}]
    assert _run_dict(tmp_path, {"scenarios": scenarios}) == 0
    assert capfd.readouterr().err == ""
    metrics = json.loads((tmp_path / "out" / "e1-0.report.json").read_text())["metrics"]
    assert (metrics["count"], metrics["seeds"], metrics["newton_stalled"]) == (2, 522, 520)


def test_a_zero_horizon_writes_one_sample(tmp_path, capfd):
    # at t_end = 0 no flow takes a step: the Bloch and wave-flow columns of
    # bloch-neoclassical both hold the one sample at t = 0
    assert _run_dict(tmp_path, {"scenarios": [
        {"experiment": "bloch-neoclassical", "name": "bloch", "t_end": 0},
        {"experiment": "intention-paradox", "name": "paradox", "t": 0}]}) == 0
    assert capfd.readouterr().err == ""
    for name in ("bloch", "paradox"):
        lines = (tmp_path / "out" / f"{name}.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0,")


def test_unexpected_exception_fails_only_its_scenario(tmp_path, monkeypatch, capsys):
    def broken(_params):
        raise RuntimeError("runner broke")

    desc, fields, _, check, group = EXPERIMENTS["probability-inconsistency"]
    monkeypatch.setitem(EXPERIMENTS, "probability-inconsistency",
                        (desc, fields, broken, check, group))
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


@pytest.mark.parametrize("below", ["", "sub"], ids=["existing-file", "path-through-a-file"])
def test_unusable_out_dir_is_a_usage_error(tmp_path, capsys, below):
    blocker = tmp_path / "taken"
    blocker.write_text("x")
    cfg = os.path.join(CONFIG_DIR, "probability-inconsistency.json")
    assert main(["run", cfg, "--out", str(blocker / below)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("output error: ") and "Traceback" not in err
    assert blocker.read_text() == "x"


def test_an_unwritable_output_file_fails_the_run_and_the_rest_are_written(tmp_path, capfd):
    (tmp_path / "out" / "x.csv").mkdir(parents=True)   # a directory where x's CSV goes
    assert _run_dict(tmp_path, {"scenarios": [
        {"experiment": "probability-inconsistency", "name": name} for name in ("x", "y")]}) == 2
    out, err = capfd.readouterr()
    assert err.startswith("output error: ") and "x.csv" in err and "Traceback" not in err
    assert out.splitlines()[-1] == "y: pass (probability-inconsistency)"
    assert (tmp_path / "out" / "y.csv").is_file()
    assert json.loads((tmp_path / "out" / "y.report.json").read_text())["passed"] is True


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


@pytest.mark.parametrize("module", ["nlqm", "nlqm.cli"])
def test_both_module_entry_points_run_the_command_line(module, capsys):
    assert main(["list-experiments"]) == 0
    expected = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(nlqm.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-m", module, "list-experiments"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == expected


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()
