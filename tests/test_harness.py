import json
import os
import subprocess
import sys

import numpy as np
import pytest

import geodesicnets
from geodesicnets import cli, length, make_case, specfile


def write_case_spec(tmp_path, name, n=64, **mods):
    doc = specfile.spec_from_case(name, n_samples=n)
    for key, val in mods.items():
        doc[key] = val
    path = tmp_path / f"{name}.json"
    specfile.write_spec(doc, str(path))
    return path, doc


# -- import cost --------------------------------------------------------------

def test_cli_import_does_not_load_scipy_interpolate():
    src = os.path.dirname(os.path.dirname(geodesicnets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, geodesicnets, geodesicnets.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# -- spec files ---------------------------------------------------------------

def test_spec_roundtrip_all_cases(tmp_path):
    for name in ("honeycomb-torus", "sphere-theta", "sphere-equator", "flat-loop"):
        path, doc = write_case_spec(tmp_path, name)
        spec = specfile.load_spec(str(path))
        case = make_case(name, 64)
        assert abs(length(spec.chart(), spec.net) - length(case.chart, case.net)) < 1e-12


def test_spec_rejects_unknown_keys(tmp_path):
    path, doc = write_case_spec(tmp_path, "honeycomb-torus")
    doc["surprise"] = 1
    with pytest.raises(specfile.SpecError):
        specfile.parse_spec(doc)
    doc.pop("surprise")
    doc["options"]["mystery"] = True
    with pytest.raises(specfile.SpecError):
        specfile.parse_spec(doc)


def test_spec_rejects_invalid_graph(tmp_path):
    path, doc = write_case_spec(tmp_path, "honeycomb-torus")
    doc["graph"]["edges"][0]["v1"] = "Z"
    with pytest.raises(specfile.SpecError):
        specfile.parse_spec(doc)


def test_spec_generators(tmp_path):
    doc = {
        "graph": {"vertices": ["V"], "edges": [{"id": "E", "v0": "V", "v1": "V"}]},
        "metric": {"kind": "stereographic-sphere", "radius": 1.0},
        "net": {
            "vertices": {"V": [1.0, 0.0]},
            "edges": {"E": {"generator": "circle-arc", "center": [0.0, 0.0],
                             "radius": 1.0, "angles": [0.0, 6.283185307179586]}},
            "periodic_edges": ["E"],
        },
        "options": {"n_samples": 128},
    }
    spec = specfile.parse_spec(doc)
    assert abs(length(spec.chart(), spec.net) - 2 * np.pi) < 1e-5


def test_meridian_generator(tmp_path):
    doc = specfile.spec_from_case("sphere-theta", 64)
    doc["net"]["edges"]["E1"] = {"generator": "meridian", "longitude": 0.0}
    spec = specfile.parse_spec(doc)
    case = make_case("sphere-theta", 64)
    assert np.abs(spec.net.edge_samples["E1"] - case.net.edge_samples["E1"]).max() < 1e-12


# -- CLI ----------------------------------------------------------------------

def test_cli_check(tmp_path):
    path, _ = write_case_spec(tmp_path, "honeycomb-torus")
    out = tmp_path / "res.json"
    code = cli.main(["check", "--spec", str(path), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["stationarity"]["aggregate"] <= 1e-6
    assert doc["report"]["stationarity"]["tolerance"] == 1e-8
    assert doc["report"]["graph_class"] == "good*"


def test_cli_jacobi(tmp_path):
    path, _ = write_case_spec(tmp_path, "honeycomb-torus")
    out = tmp_path / "res.json"
    code = cli.main(["jacobi", "--spec", str(path), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["kernel"]["dimension"] == 2
    assert doc["report"]["verdict"] == "degenerate"


def test_cli_validation_failure_names_vertex(tmp_path, capsys):
    doc = {
        "graph": {"vertices": ["A", "B", "C"],
                  "edges": [{"id": "E1", "v0": "A", "v1": "B"},
                             {"id": "E2", "v0": "A", "v1": "B"},
                             {"id": "E3", "v0": "A", "v1": "C"}]},
        "metric": {"kind": "euclidean", "dim": 2},
        "net": {"vertices": {"A": [0, 0], "B": [1, 0], "C": [0, 1]}, "edges": {}},
        "options": {},
    }
    path = tmp_path / "bad.json"
    specfile.write_spec(doc, str(path))
    code = cli.main(["check", "--spec", str(path)])
    assert code == 2
    assert "'C'" in capsys.readouterr().err


def test_cli_solve_and_continue(tmp_path):
    path, doc = write_case_spec(tmp_path, "honeycomb-torus")
    doc["metric"]["bumps"] = [{"center": [0.5, 0.4], "radius": 0.3, "amplitude": 1.0}]
    doc["metric"]["amplitude_schedule"] = [0.0, 0.01, 0.02]
    path2 = tmp_path / "ramp.json"
    specfile.write_spec(doc, str(path2))
    out = tmp_path / "res.json"
    code = cli.main(["continue", "--spec", str(path2), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert len(rep["steps"]) == 3
    assert all(s["gradient_norm"] <= 1e-8 for s in rep["steps"])


def test_cli_chart_roundtrip(tmp_path):
    path, _ = write_case_spec(tmp_path, "sphere-equator")
    out = tmp_path / "res.json"
    code = cli.main(["chart-roundtrip", "--spec", str(path), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["roundtrip_worst"] <= 1e-9
    assert rep["equivalence_check"] is True


def test_cli_export_plot_reingests_bitfaithfully(tmp_path):
    path, _ = write_case_spec(tmp_path, "sphere-theta")
    csv = tmp_path / "net.csv"
    code = cli.main(["export-plot", "--spec", str(path), "--csv", str(csv),
                     "--out", str(tmp_path / "r.json")])
    assert code == 0
    header = csv.read_text().splitlines()[0]
    assert header == "edge,t,x1,x2"
    samples = specfile.read_plot_csv(str(csv))
    spec = specfile.load_spec(str(path))
    net2 = spec.net.copy()
    net2.edge_samples = samples
    assert abs(length(spec.chart(), net2) - length(spec.chart(), spec.net)) <= 1e-12


def test_cli_determinism_modulo_timestamp(tmp_path):
    path, _ = write_case_spec(tmp_path, "flat-loop")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        assert cli.main(["check", "--spec", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc.pop("timestamp")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_generate_and_run(tmp_path):
    out_spec = tmp_path / "gen.json"
    assert cli.main(["generate", "--case", "sphere-equator", "--n-samples", "128",
                     "--out", str(out_spec)]) == 0
    out = tmp_path / "res.json"
    assert cli.main(["check", "--spec", str(out_spec), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert abs(rep["total_length"] - 2 * np.pi) < 1e-5
    assert rep["graph_class"] == "loop"


def test_cli_rejects_inconsistent_net(tmp_path, capsys):
    doc = specfile.spec_from_case("honeycomb-torus", 64)
    rng = np.random.default_rng(0)
    for eid, edge in doc["net"]["edges"].items():
        arr = np.asarray(edge["samples"])
        arr = arr + rng.uniform(-0.2, 0.2, size=arr.shape)
        edge["samples"] = arr.tolist()
    path = tmp_path / "wild.json"
    specfile.write_spec(doc, str(path))
    code = cli.main(["check", "--spec", str(path)])
    assert code == 2  # endpoint consistency broken -> validation failure


def test_cli_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    from geodesicnets import solver as solver_mod

    def boom(*a, **kw):
        raise solver_mod.MaxIterationsError("no convergence")

    monkeypatch.setattr(cli.solver, "solve_stationary", boom)
    path, _ = write_case_spec(tmp_path, "honeycomb-torus")
    code = cli.main(["solve", "--spec", str(path)])
    assert code == 3
