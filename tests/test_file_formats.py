"""Every file kind is written as json.dumps(doc, indent=1), numbers in rows
as repr strings, and loads back to the same doubles."""

import json

import numpy as np

from combdim.cli import main
from combdim.experiments import run_dudley_experiment
from combdim.family import FunctionFamily, ProbabilityMeasure, load_family, save_family
from combdim.geometry import (
    PolyhedralNorm,
    VPolytope,
    load_norm,
    load_polytope,
    save_norm,
    save_polytope,
)
from combdim.septree import SeparatingTree, TreeNode, load_tree, save_tree


def assert_bit_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_family_file_bytes_and_round_trip(tmp_path):
    path = tmp_path / "fam.json"
    family = FunctionFamily([[1 / 3, -2 / 7, 0.1], [1.0, -1.0, 0.0]])
    measure = ProbabilityMeasure([0.1, 0.2, 0.7])
    save_family(path, family, measure)
    expected = {
        "domain_size": 3,
        "value_kind": "real",
        "values": [["0.3333333333333333", "-0.2857142857142857", "0.1"],
                   ["1.0", "-1.0", "0.0"]],
        "measure": ["0.1", "0.2", "0.7"],
    }
    assert path.read_text() == json.dumps(expected, indent=1)
    again, again_measure = load_family(path)
    assert_bit_equal(again.values, family.values)
    assert_bit_equal(again_measure.weights, measure.weights)

    save_family(path, FunctionFamily([[2, 0]], "integer", 3))
    expected = {"domain_size": 2, "value_kind": {"integer": 3}, "values": [["2.0", "0.0"]]}
    assert path.read_text() == json.dumps(expected, indent=1)
    assert load_family(path)[0].range_max == 3


def test_polytope_file_bytes_and_round_trip(tmp_path):
    path = tmp_path / "poly.json"
    poly = VPolytope(2, [[1 / 3, 0.0], [-1 / 3, 0.0], [0.0, 1.0], [0.0, -1.0]])
    save_polytope(path, poly)
    expected = {
        "dimension": 2,
        "vertices": [["0.3333333333333333", "0.0"], ["-0.3333333333333333", "0.0"],
                     ["0.0", "1.0"], ["0.0", "-1.0"]],
    }
    assert path.read_text() == json.dumps(expected, indent=1)
    assert_bit_equal(load_polytope(path).vertices, poly.vertices)


def test_norm_file_bytes_and_round_trip(tmp_path):
    path = tmp_path / "norm.json"
    norm = PolyhedralNorm(2, [[1.0, 0.0], [0.0, 1.0], [0.1, 2 / 3]])
    save_norm(path, norm)
    expected = {
        "dimension": 2,
        "functionals": [["1.0", "0.0"], ["0.0", "1.0"], ["0.1", "0.6666666666666666"]],
    }
    assert path.read_text() == json.dumps(expected, indent=1)
    assert_bit_equal(load_norm(path).functionals, norm.functionals)


def test_tree_file_bytes_and_round_trip(tmp_path):
    path = tmp_path / "tree.json"
    tree = SeparatingTree((TreeNode((0, 1, 2), 1, 1 / 3, 1, 2), TreeNode((0,)),
                           TreeNode((1, 2), 0, -0.1, 3, 4), TreeNode((2,)), TreeNode((1,))),
                          1.2, 0.2)
    save_tree(path, tree)
    expected = {"scale": 1.2, "gap": 0.2, "nodes": [
        {"indices": [0, 1, 2], "coordinate": 1, "threshold": 0.3333333333333333,
         "plus": 1, "minus": 2},
        {"indices": [0]},
        {"indices": [1, 2], "coordinate": 0, "threshold": -0.1, "plus": 3, "minus": 4},
        {"indices": [2]},
        {"indices": [1]},
    ]}
    assert path.read_text() == json.dumps(expected, indent=1)
    again = load_tree(path)
    assert (again.scale, again.gap) == (tree.scale, tree.gap)
    assert again.nodes == tree.nodes


def test_report_file_bytes(tmp_path, capsys):
    path = tmp_path / "dudley.json"
    assert main(["dudley", "--seed", "0", "--samples", "200", "--out", str(path)]) == 0
    assert path.read_text() == json.dumps(run_dudley_experiment(0, samples=200), indent=1)
