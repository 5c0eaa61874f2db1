"""Mutated specs are answered or refused, never with a traceback.

Each example changes one field of a valid spec (a built-in case at N = 16,
or a spec whose edges come from the generators): its JSON type, its shape,
a non-finite or huge number, a missing key or an unknown key.  ``check``
and ``jacobi`` must then exit 0, 2 or 3 through ``cli.main``, and a
document written with exit 0 must be strict JSON.
"""

import copy
import json
import warnings
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geodesicnets import cli, specfile
from geodesicnets.cases import CASE_NAMES

N = 16
NAN, INF = float("nan"), float("inf")
# what a field may be replaced by
REPLACEMENTS = (None, True, "x", 0, -1, 1.5, [], {}, [[1, 2]], [{}], {"zz": 1},
                NAN, INF, -INF, 1e308, -1e308)
MUTATIONS = ("replace", "wrap", "first", "drop-last", "append", "delete", "unknown-key")


def generated_doc() -> dict:
    """sphere-theta with generated edges: two meridians, a circle arc and a
    straight chord between the poles."""
    doc = specfile.spec_from_case("sphere-theta", N)
    north, south = (np.asarray(doc["net"]["vertices"][v]) for v in ("N", "S"))
    chord = south - north
    center = 0.5 * (north + south) + 0.5 * np.array([-chord[1], chord[0]])
    angles = [float(np.arctan2(*(p - center)[::-1])) for p in (north, south)]
    doc["graph"]["edges"].append({"id": "E4", "v0": "N", "v1": "S", "multiplicity": 1})
    doc["net"]["edges"] = {
        "E1": {"generator": "meridian", "longitude": 0.0},
        "E2": {"generator": "meridian", "longitude": 120.0},
        "E3": {"generator": "circle-arc", "center": center.tolist(),
               "radius": float(np.linalg.norm(north - center)), "angles": angles},
        "E4": {"generator": "straight"},
    }
    return doc


@lru_cache(maxsize=1)
def base_docs() -> dict:
    docs = {name: specfile.spec_from_case(name, N) for name in CASE_NAMES}
    docs["generated"] = generated_doc()
    return docs


def paths(node, path=()):
    """Every field of a document; of a long array, only the first, middle
    and last entries, so that sample lists do not crowd out the rest."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, path + (key,))
    elif isinstance(node, list):
        picks = range(len(node)) if len(node) <= 3 else (0, len(node) // 2, len(node) - 1)
        for i in picks:
            yield from paths(node[i], path + (i,))


def mutate(doc, path, mutation, replacement):
    """doc with the field at path changed; the root only by replacement,
    wrapping or an unknown key."""
    if not path:
        if mutation == "unknown-key":
            return dict(doc, zz=1)
        return [doc] if mutation == "wrap" else replacement
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    if mutation == "delete":
        del parent[key]
    elif mutation == "unknown-key":
        target = value if isinstance(value, dict) else parent
        if isinstance(target, dict):
            target["zz"] = 1
        else:
            target.append(1)
    elif mutation == "wrap":
        parent[key] = [value]
    elif mutation == "first" and isinstance(value, list) and value:
        parent[key] = value[0]
    elif mutation == "drop-last" and isinstance(value, list):
        parent[key] = value[:-1]
    elif mutation == "append" and isinstance(value, list):
        parent[key] = value + value[-1:]
    else:
        parent[key] = replacement
    return doc


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(sorted(base_docs())))
    doc = copy.deepcopy(base_docs()[name])
    path = draw(st.sampled_from(list(paths(doc))))
    mutation = draw(st.sampled_from(MUTATIONS))
    replacement = draw(st.sampled_from(REPLACEMENTS))
    return mutate(doc, path, mutation, replacement)


def _refuse(token):
    raise ValueError(f"non-finite number {token} in a results document")


@settings(max_examples=200)
@given(doc=mutants())
def test_mutated_specs_exit_cleanly(tmp_path_factory, doc):
    work = tmp_path_factory.mktemp("mutant")
    spec, out = work / "spec.json", work / "result.json"
    spec.write_text(json.dumps(doc))
    for command in ("check", "jacobi"):
        out.unlink(missing_ok=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main([command, "--spec", str(spec), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            json.loads(out.read_text(), parse_constant=_refuse)
