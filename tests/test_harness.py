import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import theta3d_doc

import geodesicnets
from geodesicnets import cli, length, make_case, specfile


def write_case_spec(tmp_path, name, n=64, **mods):
    doc = specfile.spec_from_case(name, n_samples=n)
    for key, val in mods.items():
        doc[key] = val
    path = tmp_path / f"{name}.json"
    specfile.write_document(doc, str(path))
    return path, doc


# -- import cost --------------------------------------------------------------

def test_cli_import_does_not_load_scipy_interpolate():
    src = os.path.dirname(os.path.dirname(geodesicnets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, geodesicnets, geodesicnets.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_kernel_certification_does_not_load_scipy():
    # the shooting route and the compressed FD Hessian are numpy only
    src = os.path.dirname(os.path.dirname(geodesicnets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, warnings, geodesicnets as g\n"
        "warnings.simplefilter('ignore')\n"
        "case = g.make_case('sphere-equator', 16)\n"
        "g.jacobi_kernel(case.chart, case.net)\n"
        "g.reduced_hessian_fd(case.chart, case.net)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_newton_commands_do_not_load_scipy(tmp_path):
    # solve, perturb and continue run on numpy alone
    path, doc = write_case_spec(tmp_path, "honeycomb-torus", n=16)
    doc["metric"]["bumps"] = [{"center": [0.5, 0.4], "radius": 0.3, "amplitude": 1.0}]
    doc["metric"]["amplitude_schedule"] = [0.0, 0.01]
    ramp = tmp_path / "ramp.json"
    specfile.write_document(doc, str(ramp))
    runs = [["solve", "--spec", str(path)], ["perturb", "--spec", str(path)],
            ["continue", "--spec", str(ramp)]]
    src = os.path.dirname(os.path.dirname(geodesicnets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, os, sys, warnings\n"
        "from geodesicnets import cli\n"
        "warnings.simplefilter('ignore')\n"
        f"codes = [cli.main(argv + ['--out', os.devnull]) for argv in {runs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == [[0, 0, 0], []]


def test_no_cli_command_loads_scipy(tmp_path):
    # every command in one interpreter, chart-roundtrip included
    path, doc = write_case_spec(tmp_path, "honeycomb-torus", n=32)
    doc["metric"]["bumps"] = [{"center": [0.5, 0.4], "radius": 0.3, "amplitude": 1.0}]
    doc["metric"]["amplitude_schedule"] = [0.0, 0.01]
    ramp = tmp_path / "ramp.json"
    specfile.write_document(doc, str(ramp))
    runs = [["generate", "--case", "sphere-theta", "--out", str(tmp_path / "generated.json")]]
    runs += [[cmd, "--spec", str(path), "--out", os.devnull]
             for cmd in ("check", "solve", "jacobi", "perturb", "chart-roundtrip")]
    runs += [["continue", "--spec", str(ramp), "--out", os.devnull],
             ["export-plot", "--spec", str(path), "--csv", str(tmp_path / "net.csv"),
              "--out", os.devnull]]
    src = os.path.dirname(os.path.dirname(geodesicnets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, sys, warnings\n"
        "from geodesicnets import cli\n"
        "warnings.simplefilter('ignore')\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == [[0] * 8, []]


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
    specfile.write_document(doc, str(path))
    code = cli.main(["check", "--spec", str(path)])
    assert code == 2
    assert "'C'" in capsys.readouterr().err


def test_cli_solve_and_continue(tmp_path):
    path, doc = write_case_spec(tmp_path, "honeycomb-torus")
    doc["metric"]["bumps"] = [{"center": [0.5, 0.4], "radius": 0.3, "amplitude": 1.0}]
    doc["metric"]["amplitude_schedule"] = [0.0, 0.01, 0.02]
    path2 = tmp_path / "ramp.json"
    specfile.write_document(doc, str(path2))
    out = tmp_path / "res.json"
    code = cli.main(["continue", "--spec", str(path2), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert len(rep["steps"]) == 3
    assert all(s["gradient_norm"] <= 1e-8 for s in rep["steps"])


def test_cli_chart_roundtrip(tmp_path, monkeypatch):
    calls = {}
    for name in ("mean_curvature_H", "constraint_C"):
        original = getattr(cli.localcoords, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli.localcoords, name, counted)
    path, _ = write_case_spec(tmp_path, "sphere-equator")
    out = tmp_path / "res.json"
    code = cli.main(["chart-roundtrip", "--spec", str(path), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["roundtrip_worst"] <= 1e-9
    assert rep["equivalence_check"] is True
    # the report and the equivalence check share one evaluation of each residual
    assert calls == {"mean_curvature_H": 1, "constraint_C": 1}


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


@pytest.mark.parametrize("n", [0, 2, 10])
def test_cli_generate_rejects_too_few_samples(tmp_path, capsys, n):
    out_spec = tmp_path / "gen.json"
    code = cli.main(["generate", "--case", "sphere-equator", "--n-samples", str(n),
                     "--out", str(out_spec)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: n_samples")
    assert not out_spec.exists()


@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-equator"])
def test_cli_generate_accepts_the_sample_floor(tmp_path, name):
    out_spec = tmp_path / "gen.json"
    assert cli.main(["generate", "--case", name, "--n-samples", "11",
                     "--out", str(out_spec)]) == 0
    assert cli.main(["check", "--spec", str(out_spec), "--out", str(tmp_path / "res.json")]) == 0
    net = specfile.load_spec(str(out_spec)).net
    assert {s.shape[0] for s in net.edge_samples.values()} == {12}


def test_spec_rejects_short_edge():
    doc = specfile.spec_from_case("honeycomb-torus", 64)
    doc["net"]["edges"]["E1"]["samples"] = doc["net"]["edges"]["E1"]["samples"][::16]
    with pytest.raises(specfile.SpecError, match="'E1' has 5 samples"):
        specfile.parse_spec(doc)


def test_cli_rejects_inconsistent_net(tmp_path, capsys):
    doc = specfile.spec_from_case("honeycomb-torus", 64)
    rng = np.random.default_rng(0)
    for eid, edge in doc["net"]["edges"].items():
        arr = np.asarray(edge["samples"])
        arr = arr + rng.uniform(-0.2, 0.2, size=arr.shape)
        edge["samples"] = arr.tolist()
    path = tmp_path / "wild.json"
    specfile.write_document(doc, str(path))
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


def test_cli_solve_refuses_a_solved_net_that_is_not_stationary(tmp_path, capsys):
    # Newton ends on sphere-theta with the residual at 0.137: the document
    # is written, and says so, but the command fails
    path, _ = write_case_spec(tmp_path, "sphere-theta", n=32)
    out = tmp_path / "res.json"
    assert cli.main(["solve", "--spec", str(path), "--out", str(out)]) == 3
    assert "solver error: the solved net is not stationary" in capsys.readouterr().err
    assert json.loads(out.read_text())["report"]["stationarity"]["stationary"] is False


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    # LinAlgError is a ValueError, but it is a numerical failure, not bad input
    def singular(*a, **kw):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli.solver, "solve_stationary", singular)
    path, _ = write_case_spec(tmp_path, "honeycomb-torus")
    assert cli.main(["solve", "--spec", str(path)]) == 3
    assert "Singular matrix" in capsys.readouterr().err


def test_cli_rejects_flat_sample_list(tmp_path, capsys):
    path, doc = write_case_spec(tmp_path, "honeycomb-torus")
    doc["net"]["edges"]["E2"]["samples"] = list(np.linspace(0.0, 1.0, 20))
    specfile.write_document(doc, str(path))
    assert cli.main(["check", "--spec", str(path)]) == 2
    assert "edge 'E2' samples have shape (20,)" in capsys.readouterr().err


def test_cli_rejects_samples_of_the_wrong_dimension(tmp_path, capsys):
    path, doc = write_case_spec(tmp_path, "honeycomb-torus")
    arr = np.asarray(doc["net"]["edges"]["E1"]["samples"])
    doc["net"]["edges"]["E1"]["samples"] = np.hstack([arr, np.zeros((len(arr), 1))]).tolist()
    specfile.write_document(doc, str(path))
    assert cli.main(["check", "--spec", str(path)]) == 2
    assert "edge 'E1' samples have shape (65, 3); expected (n, 2)" in capsys.readouterr().err


def test_cli_perturb_solved_net_off_the_gate_is_a_solver_error(tmp_path, capsys):
    # the bumped solve on sphere-theta returns a net that fails the residual
    # gate: a numerical failure (exit 3), reported after that one solve
    path, _ = write_case_spec(tmp_path, "sphere-theta", n=64)
    assert cli.main(["perturb", "--spec", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: solved net under bump 1")
    assert "net is not stationary" in err


def test_cli_perturb_rejects_a_non_stationary_input(tmp_path, capsys):
    path, doc = write_case_spec(tmp_path, "honeycomb-torus", n=32)
    arr = np.asarray(doc["net"]["edges"]["E1"]["samples"])
    t = np.linspace(0.0, 1.0, len(arr))
    arr[:, 1] += 0.05 * np.sin(np.pi * t)
    doc["net"]["edges"]["E1"]["samples"] = arr.tolist()
    specfile.write_document(doc, str(path))
    assert cli.main(["perturb", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: net is not stationary")


def test_cli_chart_roundtrip_rejects_a_3d_chart(tmp_path, capsys):
    path = tmp_path / "theta3d.json"
    specfile.write_document(theta3d_doc(), str(path))
    assert cli.main(["chart-roundtrip", "--spec", str(path)]) == 2
    assert "needs a planar chart" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "jacobi"])
@pytest.mark.parametrize("where", ["vertex", "sample"])
def test_cli_refuses_non_finite_coordinates(tmp_path, capsys, command, where):
    # before the gate, a NaN vertex passed as stationary and a NaN sample
    # gave a NaN total length (check) or an SVD failure (jacobi)
    path, doc = write_case_spec(tmp_path, "honeycomb-torus")
    if where == "vertex":
        doc["net"]["vertices"]["A"][0] = float("nan")
    else:
        doc["net"]["edges"]["E1"]["samples"][10][1] = float("nan")
    specfile.write_document(doc, str(path))
    assert cli.main([command, "--spec", str(path), "--out", str(tmp_path / "res.json")]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "res.json").exists()


def _subdivided_loop_doc(n=32):
    """The closed geodesic of the hex torus cut by a degree-two vertex M
    into two edges V-M-V: a not-good graph."""
    from geodesicnets.cases import HEX_LATTICE

    lam = HEX_LATTICE[0]
    t = np.linspace(0.0, 1.0, n + 1)[:, None]
    return {
        "graph": {"vertices": ["V", "M"],
                  "edges": [{"id": "E1", "v0": "V", "v1": "M"}, {"id": "E2", "v0": "M", "v1": "V"}]},
        "metric": {"kind": "flat-torus", "lattice": HEX_LATTICE.tolist()},
        "net": {"vertices": {"V": [0.0, 0.0], "M": (0.5 * lam).tolist()},
                "edges": {"E1": {"samples": (t * 0.5 * lam).tolist()},
                          "E2": {"samples": (0.5 * lam + t * 0.5 * lam).tolist()}}},
        "options": {"n_samples": n},
    }


def test_cli_certification_refuses_a_not_good_graph(tmp_path, capsys):
    path = tmp_path / "vmv.json"
    specfile.write_document(_subdivided_loop_doc(), str(path))
    out = tmp_path / "res.json"
    assert cli.main(["check", "--spec", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["graph_class"] == "not-good"
    for command in ("jacobi", "perturb"):
        assert cli.main([command, "--spec", str(path)]) == 2
        assert "only defined for good graphs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "jacobi"])
@pytest.mark.parametrize("periodic, message", [
    (["E1"], "periodic edge 'E1' is not a self-loop"),
    (["nope"], "periodic edge 'nope' is not an edge of the graph"),
], ids=["open-edge", "unknown-id"])
def test_cli_refuses_periodic_edges_that_are_not_self_loops(tmp_path, capsys, command, periodic,
                                                            message):
    path, doc = write_case_spec(tmp_path, "honeycomb-torus", n=32)
    doc["net"]["periodic_edges"] = periodic
    specfile.write_document(doc, str(path))
    assert cli.main([command, "--spec", str(path)]) == 2
    assert message in capsys.readouterr().err


NAN = float("nan")
# the unit circle as a generated loop edge of sphere-equator
CIRCLE = {"generator": "circle-arc", "center": [0.0, 0.0], "radius": 1.0,
          "angles": [0.0, 2.0 * np.pi]}


@pytest.mark.parametrize("name, where, value, message", [
    ("honeycomb-torus", ("options",), [1], "options must be a JSON object, got list"),
    ("honeycomb-torus", ("graph",), [], "graph must be a JSON object, got list"),
    ("honeycomb-torus", ("graph", "edges", 0), ["E1", "A", "B"],
     "graph.edges[0] must be a JSON object, got list"),
    ("honeycomb-torus", ("metric", "lattice"), [[1.5, 0.5]],
     "metric.lattice must be a finite, square, non-singular"),
    ("honeycomb-torus", ("metric", "lattice"), [[1.0, 0.0], [2.0, 0.0]],
     "metric.lattice must be a finite, square"),
    ("honeycomb-torus", ("metric", "lattice"), [[1.0, NAN], [0.0, 1.0]],
     "metric.lattice must be a finite"),
    ("sphere-theta", ("metric", "radius"), NAN, "metric.radius must be a finite positive number"),
    ("sphere-theta", ("metric", "radius"), 0.0, "metric.radius must be a finite positive number"),
    ("honeycomb-torus", ("metric", "bumps"), [{"center": [0.5, 0.4], "radius": NAN, "amplitude": 1.0}],
     "metric.bumps[0].radius must be a finite positive number"),
    ("honeycomb-torus", ("metric", "bumps"), [{"center": [0.5, 0.4], "radius": 1e100, "amplitude": 1.0}],
     "metric.bumps[0].radius must be a finite positive number below 1e+50, got 1e+100"),
    ("honeycomb-torus", ("metric", "bumps"), [{"center": [0.5], "radius": 0.3, "amplitude": 1.0}],
     "metric.bumps[0].center must be a point of dimension 2"),
    ("honeycomb-torus", ("metric", "amplitude_schedule"), [0.0, NAN],
     "metric.amplitude_schedule[1] must be a finite number"),
    ("honeycomb-torus", ("graph", "edges", 0, "multiplicity"), 1.7,
     "graph.edges[0].multiplicity must be a positive integer"),
    ("honeycomb-torus", ("graph", "edges", 0, "id"), ["E1"], "graph.edges[0].id must be a JSON string"),
    ("honeycomb-torus", ("net", "vertices", "A"), 0.5, "net.vertices[A] must be a point of dimension 2"),
    ("honeycomb-torus", ("net", "vertices"), [[0.0, 0.0]], "net.vertices must be a JSON object, got list"),
    ("honeycomb-torus", ("net", "edges"), [], "net.edges must be a JSON object, got list"),
    ("honeycomb-torus", ("net", "edges", "E1", "samples", 3), {"x": 1.0},
     "net.edges[E1].samples must be a non-empty array of numbers"),
    ("sphere-equator", ("net", "periodic_edges"), NAN, "net.periodic_edges must be a JSON array"),
    ("sphere-equator", ("net", "periodic_edges"), -1, "net.periodic_edges must be a JSON array"),
    ("sphere-equator", ("net", "periodic_edges"), True, "net.periodic_edges must be a JSON array"),
    ("sphere-equator", ("net", "periodic_edges"), [[1, 2]],
     "net.periodic_edges[0] must be a JSON string"),
    ("sphere-equator", ("net", "periodic_edges"), [{}], "net.periodic_edges[0] must be a JSON string"),
    ("sphere-equator", ("net", "edges", "E"), {**CIRCLE, "radius": [1]},
     "net.edges[E].radius must be a finite number"),
    ("sphere-equator", ("net", "edges", "E"), {**CIRCLE, "angles": [0]},
     "net.edges[E].angles must be two finite numbers"),
    ("sphere-equator", ("net", "edges", "E"), {**CIRCLE, "center": [0.0]},
     "net.edges[E].center must be a point of dimension 2"),
    ("sphere-theta", ("net", "edges", "E1"), {"generator": "meridian", "longitude": "0"},
     "net.edges[E1].longitude must be a finite number"),
    ("honeycomb-torus", ("net", "edges", "E1"), {"generator": "straight", "to": [1.0]},
     "net.edges[E1].to must be a point of dimension 2"),
    ("honeycomb-torus", ("graph",), {"vertices": [], "edges": []},
     "graph.edges must hold at least one edge"),
    ("honeycomb-torus", ("metric",), {"kind": "euclidean", "box": "x"},
     "metric.box must be two finite points of dimension 2"),
    ("honeycomb-torus", ("net", "vertices", "A"), ["0", "0"],
     "net.vertices[A] must be a point of dimension 2"),
    ("honeycomb-torus", ("net", "vertices"), {"A": [0.0, 0.0]},
     "net.vertices has no position for vertex 'B'"),
    ("honeycomb-torus", ("net", "edges", "E9"), {"generator": "straight"},
     "net.edges[E9] is not an edge of the graph"),
], ids=["options-list", "graph-list", "edge-list", "lattice-1x2", "lattice-singular", "lattice-nan",
        "sphere-radius-nan", "sphere-radius-zero", "bump-radius-nan", "bump-radius-huge",
        "bump-center-1d",
        "schedule-nan", "multiplicity-fraction", "edge-id-list", "vertex-scalar",
        "net-vertices-list", "net-edges-list", "sample-object", "periodic-nan", "periodic-number",
        "periodic-true", "periodic-nested-list", "periodic-object", "arc-radius-list",
        "arc-angles-short", "arc-center-1d", "meridian-longitude-string", "straight-to-1d",
        "no-edges", "box-string", "vertex-strings", "vertex-missing", "edge-outside-graph"])
def test_cli_refuses_malformed_sections(tmp_path, capsys, name, where, value, message):
    path, doc = write_case_spec(tmp_path, name, n=32)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    specfile.write_document(doc, str(path))
    assert cli.main(["check", "--spec", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_cli_perturb_gates_on_options_residual_tol(tmp_path, capsys):
    path, doc = write_case_spec(tmp_path, "honeycomb-torus", n=32)
    args = cli._parser().parse_args(["perturb", "--spec", str(path)])
    assert cli._resolve(specfile.load_spec(str(path)), args)["residual_tol"] == \
        cli.solver.BreakOptions.residual_tol
    # below the residual of the built-in net (about 5e-13)
    doc["options"]["residual_tol"] = 1e-14
    specfile.write_document(doc, str(path))
    assert cli.main(["perturb", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: net is not stationary")


@pytest.mark.parametrize("key", ["tol", "svd_tol", "residual_tol"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1e-8, "1e-8", True])
def test_spec_rejects_a_tolerance_that_is_not_finite_and_positive(key, value):
    doc = specfile.spec_from_case("honeycomb-torus", 32)
    doc["options"][key] = value
    with pytest.raises(specfile.SpecError, match=f"options.{key} must be a finite positive number"):
        specfile.parse_spec(doc)


def test_cli_seed_comes_from_the_flag_then_the_spec_then_zero(tmp_path):
    path, doc = write_case_spec(tmp_path, "flat-loop", n=32)
    out = tmp_path / "res.json"

    def seed(*flags):
        assert cli.main(["check", "--spec", str(path), "--out", str(out), *flags]) == 0
        return json.loads(out.read_text())["options"]["seed"]

    assert seed() == 0
    doc["options"]["seed"] = 5
    specfile.write_document(doc, str(path))
    assert seed() == 5
    assert seed("--seed", "7") == 7


@pytest.mark.parametrize("value", [-1, 1.5, 2.0, "3", True, None, [1]])
def test_cli_refuses_a_spec_seed_that_is_not_a_non_negative_integer(tmp_path, capsys, value):
    path, doc = write_case_spec(tmp_path, "flat-loop", n=32)
    doc["options"]["seed"] = value
    specfile.write_document(doc, str(path))
    assert cli.main(["chart-roundtrip", "--spec", str(path)]) == 2
    assert "options.seed must be a non-negative integer" in capsys.readouterr().err


def test_cli_refuses_an_infinite_tolerance(tmp_path, capsys):
    # options.tol: inf used to call every net stationary
    path, doc = write_case_spec(tmp_path, "honeycomb-torus", n=32)
    doc["options"]["tol"] = float("inf")
    specfile.write_document(doc, str(path))
    assert cli.main(["check", "--spec", str(path)]) == 2
    assert "options.tol" in capsys.readouterr().err
    good, _ = write_case_spec(tmp_path, "sphere-equator", n=32)
    assert cli.main(["check", "--spec", str(good), "--tol", "inf"]) == 2
    assert "options.tol" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, where, code, message", [
    # the length overflows: the report would hold Infinity or NaN, which
    # strict JSON parsers reject
    ("honeycomb-torus", ("net", "edges", "E1", "samples", 10, 1), 3,
     "numerical failure: report.stationarity.edge_max.E1 is not finite"),
    # a finite radius whose square overflows is bad input, refused with its path
    ("sphere-theta", ("metric", "radius"), 2,
     "error: metric.radius must be a finite positive number below 1e+50, got 1e+308"),
    ("honeycomb-torus", ("graph", "edges", 0, "multiplicity"), 2,
     "error: graph.edges[0].multiplicity must be a positive integer at most 1000000, got 1e+308"),
    ("honeycomb-torus", ("options", "n_samples"), 2,
     "error: options.n_samples must be a positive integer at most 65536, got 1e+308"),
], ids=["sample", "sphere-radius", "multiplicity", "n-samples"])
def test_cli_overflow_is_a_numerical_failure(tmp_path, capsys, name, where, code, message):
    path, doc = write_case_spec(tmp_path, name, n=32)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = 1e308
    specfile.write_document(doc, str(path))
    out = tmp_path / "res.json"
    assert cli.main(["check", "--spec", str(path), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("where, most", [
    (("graph", "edges", 0, "multiplicity"), specfile.MAX_MULTIPLICITY),
    (("options", "n_samples"), specfile.MAX_SAMPLES),
], ids=["multiplicity", "n-samples"])
def test_counts_are_accepted_up_to_their_bound(where, most):
    doc = specfile.spec_from_case("honeycomb-torus", 32)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = most
    specfile.parse_spec(doc)
    parent[where[-1]] = most + 1
    with pytest.raises(specfile.SpecError, match=f"at most {most}, got {most + 1}"):
        specfile.parse_spec(doc)


@pytest.mark.parametrize("name, metric, message", [
    ("sphere-theta", {"kind": "stereographic-sphere", "radius": 1.0, "dim": 1e308},
     "error: metric.dim must be a positive integer at most 4, got 1e+308"),
    ("sphere-theta", {"kind": "stereographic-sphere", "radius": 1.0, "dim": 1e7},
     "error: metric.dim must be a positive integer at most 4, got 10000000.0"),
    ("honeycomb-torus", {"kind": "euclidean", "dim": 1e7},
     "error: metric.dim must be a positive integer at most 4, got 10000000.0"),
    # read, never run: a 15-row lattice would make the chart loop 5^15 times
    ("honeycomb-torus", {"kind": "flat-torus", "lattice": np.eye(15).tolist()},
     "error: metric.lattice must have at most 4 rows, got 15"),
], ids=["sphere-1e308", "sphere-1e7", "euclidean-1e7", "lattice-15"])
def test_cli_refuses_large_dimensions_with_their_path(tmp_path, capsys, monkeypatch, name,
                                                     metric, message):
    def no_chart(*args, **kwargs):
        raise AssertionError("a chart was built before the dimension was checked")

    path, _ = write_case_spec(tmp_path, name, n=32, metric=metric)
    for chart in ("EuclideanChart", "FlatTorusChart", "StereographicSphereChart"):
        monkeypatch.setattr(specfile, chart, no_chart)
    out = tmp_path / "res.json"
    assert cli.main(["check", "--spec", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_dimensions_are_accepted_up_to_their_bound():
    most = specfile.MAX_DIM
    for kind in ("euclidean", "stereographic-sphere"):
        assert specfile._parse_metric({"kind": kind, "dim": most})[0].dim == most
        with pytest.raises(specfile.SpecError, match=f"metric.dim must be .* at most {most}"):
            specfile._parse_metric({"kind": kind, "dim": most + 1})
    assert specfile._parse_metric({"kind": "flat-torus", "lattice": np.eye(most)})[0].dim == most
    with pytest.raises(specfile.SpecError, match=f"at most {most} rows, got {most + 1}"):
        specfile._parse_lattice(np.eye(most + 1))


def test_non_finite_report_keys_are_named():
    report = {"kernel": {"spectral_gap": None, "singular_values": [1.0, 2.0]},
              "steps": [{"amplitude": 0.0}, {"amplitude": float("nan")}]}
    assert cli._non_finite_key(report, "report") == "report.steps[1].amplitude"
    report["steps"].pop()
    assert cli._non_finite_key(report, "report") is None


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta", "sphere-equator", "flat-loop"])
def test_generated_spec_is_stationary_by_its_own_tolerance(tmp_path, name, n):
    path, out = tmp_path / "spec.json", tmp_path / "res.json"
    assert cli.main(["generate", "--case", name, "--n-samples", str(n), "--out", str(path)]) == 0
    assert cli.main(["check", "--spec", str(path), "--out", str(out)]) == 0
    stationarity = json.loads(out.read_text())["report"]["stationarity"]
    assert stationarity["stationary"] is True
    # the smallest power of ten above twice the residual, and never below 1e-8
    tol = json.loads(path.read_text())["options"]["tol"]
    assert tol == 1e-8 or stationarity["aggregate"] > tol / 20.0


def test_every_exported_name_resolves():
    import ast
    import importlib
    import pathlib

    package = pathlib.Path(geodesicnets.__file__).parent
    for source in sorted(package.glob("*.py")):
        name = "geodesicnets" if source.stem == "__init__" else f"geodesicnets.{source.stem}"
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.__all__ names {attr!r}"
    for node in ast.walk(ast.parse((package / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"geodesicnets.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module} has no {alias.name!r}"
                assert hasattr(geodesicnets, alias.asname or alias.name)
