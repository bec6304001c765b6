import json
import math
import shlex
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from combdim.cli import build_parser, main
from combdim.experiments import ExperimentConfig, run_dudley_experiment
from combdim.family import FunctionFamily, save_family, write_json


@pytest.fixture()
def family_file(tmp_path):
    path = tmp_path / "fam.json"
    save_family(path, FunctionFamily([[1, 1], [1, -1], [-1, 1], [-1, -1]]))
    return path


def test_gen_integer_grid_names_the_grid_max_flag(tmp_path, capsys):
    fam = tmp_path / "f.json"
    base = ["gen", "--m", "10", "--n", "4", "--kind", "integer-grid", "--seed", "3", "--out", str(fam)]
    for extra in ([], ["--grid-max", "-1"]):
        assert main(base + extra) == 1
        assert "error: --kind integer-grid needs --grid-max N" in capsys.readouterr().err
        assert not fam.exists()
    assert main(base + ["--grid-max", "5"]) == 0
    assert "kind=integer" in capsys.readouterr().out


def test_gen_then_entropy(tmp_path, capsys):
    fam = tmp_path / "f.json"
    assert main(["gen", "--m", "6", "--n", "3", "--kind", "uniform-real",
                 "--seed", "3", "--out", str(fam)]) == 0
    out = tmp_path / "entropy.csv"
    assert main(["entropy", "--family", str(fam), "--scale", "0.4",
                 "--scale", "0.8", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,packing,packing_flag,covering,covering_flag"
    assert len(lines) == 3
    assert "exact" in lines[1]


def test_entropy_deterministic_output(tmp_path, family_file):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["entropy", "--family", str(family_file),
                     "--scale", "1.2", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_vc_command(family_file, capsys):
    assert main(["vc", "--family", str(family_file), "--scale", "2.0"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_vc_on_an_integer_family_without_scale_is_vc_integer(tmp_path, capsys):
    # integer shattering needs values on both sides of a level, so steps
    # of 2 shatter both coordinates and steps of 1 shatter none
    fam = tmp_path / "int.json"
    for step, dim in ((2, "2"), (1, "0")):
        save_family(fam, FunctionFamily([[0, 0], [0, step], [step, 0], [step, step]],
                                        "integer", step))
        assert main(["vc", "--family", str(fam)]) == 0
        assert capsys.readouterr().out.strip() == dim


def test_centers_command(tmp_path, capsys):
    fam = tmp_path / "int.json"
    save_family(fam, FunctionFamily([[0, 0], [0, 2], [2, 0], [2, 2]], "integer", 2))
    assert main(["centers", "--family", str(fam), "--max-dim", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 4
    assert doc[0]["support"] == []


def test_centers_witnesses_match_shatters(tmp_path, capsys):
    from combdim import enumerate_shattered_centers, gen_random_family, shatters

    fam_path = tmp_path / "grid.json"
    family = gen_random_family(12, 4, "integer-grid", 17, grid_max=5)
    save_family(fam_path, family)
    assert main(["centers", "--family", str(fam_path), "--max-dim", "4"]) == 0
    expected = [
        {
            "support": list(c.support),
            "levels": list(c.levels),
            "witness": {str(k): v for k, v in shatters(family, c).assignments.items()},
        }
        for c in enumerate_shattered_centers(family, 4)
    ]
    assert len(expected) > 10
    assert capsys.readouterr().out == json.dumps(expected, indent=1) + "\n"


def test_tree_emit_and_validate_round_trip(tmp_path, family_file, capsys):
    tree_path = tmp_path / "tree.json"
    assert main(["tree", "--family", str(family_file), "--scale", "1.4",
                 "--emit", str(tree_path), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "leaves=4" in out and "ok" in out
    assert main(["validate", "--family", str(family_file),
                 "--tree", str(tree_path)]) == 0


def test_tree_reports_before_it_saves(tmp_path, family_file, capsys, monkeypatch):
    from combdim import septree
    from combdim.errors import FamilyError

    tree_path = tmp_path / "tree.json"
    argv = ["tree", "--family", str(family_file), "--scale", "1.4",
            "--emit", str(tree_path), "--validate"]

    def refuse(path, tree):
        raise FamilyError(f"cannot write tree file {path}")

    with monkeypatch.context() as patch:
        patch.setattr(septree, "save_tree", refuse)
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "leaves=4 sqrt_m=2.0000\nvalidate(gap=0.2333333333333333): ok\n"
    assert f"cannot write tree file {tree_path}" in captured.err
    assert not tree_path.exists()
    # a tree that fails validation is still written, and the exit code stays 2
    monkeypatch.setattr(septree, "validate_tree",
                        lambda tree, family, gap: septree.TreeValidation(False, "broken"))
    assert main(argv) == 2
    assert capsys.readouterr().out.endswith("): broken\n")
    assert json.loads(tree_path.read_text())["gap"] == 1.4 / 6.0


def test_validate_detects_corruption(tmp_path, family_file, capsys):
    tree_path = tmp_path / "tree.json"
    assert main(["tree", "--family", str(family_file), "--scale", "1.4",
                 "--emit", str(tree_path)]) == 0
    doc = json.loads(tree_path.read_text())
    root = doc["nodes"][0]
    doc["nodes"][root["plus"]]["indices"] = doc["nodes"][root["minus"]]["indices"]  # overlap
    tree_path.write_text(json.dumps(doc))
    assert main(["validate", "--family", str(family_file),
                 "--tree", str(tree_path)]) == 2


def _chain_tree(depth):
    # breadth first, split k sits at position 2k - 1 (the root at 0), its
    # plus son is the next split and its minus son the leaf after it; every
    # split holds rows (0, 1), so validation stops at the root, where the
    # sons overlap: the file only has to load
    split = {"indices": [0, 1], "coordinate": 0, "threshold": 0.0}
    nodes = [dict(split, plus=1, minus=2)]
    for k in range(1, depth):
        nodes += [dict(split, plus=2 * k + 1, minus=2 * k + 2), {"indices": [1]}]
    return {"scale": 0.6, "gap": 0.1, "nodes": nodes + [{"indices": [0]}, {"indices": [1]}]}


def test_validate_deep_tree_files(tmp_path, family_file, capsys):
    tree_path = tmp_path / "deep.json"
    validate = ["validate", "--family", str(family_file), "--tree", str(tree_path)]
    for depth in (2, 900, 3000):  # a flat file of any depth loads
        tree_path.write_text(json.dumps(_chain_tree(depth)))
        assert main(validate) == 2
        assert "sons overlap at node (0, 1)" in capsys.readouterr().out
    # a document that itself nests too deep for the JSON parser is refused
    tree_path.write_text('{"scale": 0.6, "gap": 0.1, "nodes": ' + "[" * 3000 + "]" * 3000 + "}")
    assert main(validate) == 1
    assert f"tree file {tree_path} nests too deep to load" in capsys.readouterr().err


def _sign_square_tree(root=None, plus=None, minus=None):
    nodes = [{"indices": [0, 1, 2, 3], "coordinate": 0, "threshold": 0.0, "plus": 1, "minus": 2},
             {"indices": [0, 1]}, {"indices": [2, 3]}]
    for node, change in zip(nodes, (root, plus, minus)):
        node.update(change or {})
    return {"scale": 0.6, "gap": 0.1, "nodes": nodes}


def test_validate_names_each_broken_node(tmp_path, family_file, capsys):
    tree_path = tmp_path / "tree.json"
    validate = ["validate", "--family", str(family_file), "--tree", str(tree_path)]
    tree_path.write_text(json.dumps(_sign_square_tree()))
    assert main(validate) == 0
    assert "valid=ok" in capsys.readouterr().out
    cases = [
        (({"indices": []}, {"indices": []}, {"indices": [1]}), "empty node"),
        (({"indices": [0, 1, 2, 4]},), "row index out of range in node (0, 1, 2, 4)"),
        (({"coordinate": 2},), "bad split coordinate at node (0, 1, 2, 3)"),
        (({}, {"indices": []}), "empty son at node (0, 1, 2, 3)"),
        (({"indices": [0, 2, 2]}, {"indices": [0]}, {"indices": [2]}),
         "row listed twice in node (0, 2, 2)"),
        (({"minus": 3},), "son position 3 out of range at node (0, 1, 2, 3)"),
        (({"plus": 0},), "son at position 0 is not listed after its parent at position 0"),
    ]
    for nodes, failure in cases:
        tree_path.write_text(json.dumps(_sign_square_tree(*nodes)))
        assert main(validate) == 2, failure
        assert f"valid={failure}" in capsys.readouterr().out
    tree_path.write_text(json.dumps({"scale": 0.6, "gap": 0.1, "nodes": []}))
    assert main(validate) == 2
    assert "leaves=0 sqrt_m=2.0000 valid=tree has no nodes" in capsys.readouterr().out


def test_tree_file_rows_and_coordinates_are_json_integers(tmp_path, family_file, capsys):
    # each of these once loaded, by int(), as a tree that validated
    tree_path = tmp_path / "tree.json"
    validate = ["validate", "--family", str(family_file), "--tree", str(tree_path)]
    cases = [
        (({"coordinate": 0.9},), "row index or coordinate 0.9"),
        (({"indices": [0, 1], "coordinate": True}, {"indices": [0]}, {"indices": [1]}),
         "row index or coordinate True"),
        (({"indices": [0.7, 1.2], "coordinate": 1}, {"indices": [0.3]}, {"indices": [1.9]}),
         "row index or coordinate 0.7"),
        (({"indices": ["0", "1"], "coordinate": 1}, {"indices": [0]}, {"indices": [1]}),
         "row index or coordinate '0'"),
        (({"plus": 1.0},), "son position 1.0"),
        (({"minus": False},), "son position False"),
    ]
    for nodes, value in cases:
        tree_path.write_text(json.dumps(_sign_square_tree(*nodes)))
        assert main(validate) == 1, value
        assert (f"error: bad node in tree file {tree_path}: "
                f"{value} is not an integer") in capsys.readouterr().err


@pytest.mark.parametrize("field", ["scale", "gap", "threshold"])
def test_tree_file_numbers_are_checked(tmp_path, family_file, capsys, field):
    # each once loaded by float(): "gap": true as 1.0, and validate printed valid=ok
    tree_path = tmp_path / "tree.json"
    validate = ["validate", "--family", str(family_file), "--tree", str(tree_path)]
    where = "'threshold' in node 0 of" if field == "threshold" else f"{field!r} in"
    for value in (True, False, math.nan, math.inf, "nan", "-Infinity", "x", None, [1.0], {}):
        doc = _sign_square_tree()
        (doc["nodes"][0] if field == "threshold" else doc)[field] = value
        tree_path.write_text(json.dumps(doc))
        assert main(validate) == 1, value
        err = capsys.readouterr().err
        assert f"error: {where} tree file {tree_path} is not a finite number: {value!r}" in err


def test_extract_command(tmp_path, capsys):
    fam = tmp_path / "pair.json"
    save_family(fam, FunctionFamily([[1.0] * 8, [-1.0] * 8]))
    assert main(["extract", "--family", str(fam), "--scale", "1.9",
                 "--target-size", "3", "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1 <= len(doc["subset"]) <= 3
    assert doc["achieved_separation"] > doc["target_separation"]


def test_extract_of_a_single_row_writes_strict_json(tmp_path, capsys):
    # one row leaves no pair to separate: the library's inf is written as null
    fam = tmp_path / "one.json"
    fam.write_text(json.dumps({"domain_size": 3, "value_kind": "real",
                               "values": [[0.5, -0.25, 0.75]]}))
    assert main(["extract", "--family", str(fam), "--scale", "0.5", "--target-size", "2"]) == 0

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert doc["achieved_separation"] is None
    assert doc["target_separation"] == 0.25 and doc["attempts"] >= 1


def test_extract_out_of_attempts_exits_2(tmp_path, capsys):
    # the pair differs on one coordinate of eight; seed 2's one draw misses it
    fam = tmp_path / "pair.json"
    save_family(fam, FunctionFamily([[1.0] + [0.0] * 7, [-1.0] + [0.0] * 7]))
    assert main(["extract", "--family", str(fam), "--scale", "0.5", "--target-size", "1",
                 "--seed", "2", "--max-attempts", "1"]) == 2
    assert capsys.readouterr().err == (
        "extraction failed: no accepted subset in 1 attempts "
        "(best separation seen: 0.0, target 0.25)\n")


def test_extract_curve_command(tmp_path, capsys):
    fam = tmp_path / "pair.json"
    save_family(fam, FunctionFamily([[1.0] * 8, [-1.0] * 8]))
    argv = ["extract-curve", "--family", str(fam), "--scale", "1.9", "--k-grid", "1,2,4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,success_rate"
    assert len(lines) == 5 and lines[-1].startswith("#")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trials", "400"])
    assert exc.value.code == 2


def test_gsup_command(tmp_path, capsys):
    fam = tmp_path / "point.json"
    save_family(fam, FunctionFamily([[1.0, 0.0], [-1.0, 0.0]]))
    assert main(["gsup", "--family", str(fam), "--samples", "20000", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["mean"] - math.sqrt(2 / math.pi)) <= 4 * doc["stderr"]
    # on {+-e1, +-e2} every Rademacher draw's supremum is exactly 1
    save_family(fam, FunctionFamily([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    assert main(["gsup", "--family", str(fam), "--samples", "500", "--seed", "2",
                 "--kind", "rademacher"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["mean"], doc["stderr"], doc["samples"], doc["kind"]) == (1.0, 0.0, 500, "rademacher")


def test_dudley_command(tmp_path, capsys):
    # runs both scipy.special calls (ndtri, gammaincc) through the CLI
    out, expected = tmp_path / "dudley.json", tmp_path / "expected.json"
    assert main(["dudley", "--seed", "0", "--samples", "2000", "--out", str(out)]) == 0
    report = run_dudley_experiment(0, samples=2000)
    write_json(expected, report)
    assert out.read_bytes() == expected.read_bytes()
    assert capsys.readouterr().out == (
        f"e_hat={report['e_hat']:.4f} dudley_k={report['dudley_k']:.4f} "
        f"vc_chain_k={report['vc_chain_k']:.4f}\n")


def test_budget_exit_code(tmp_path, capsys):
    from combdim.geometry import CUBE_DIM_BUDGET, VPolytope, save_polytope

    n = CUBE_DIM_BUDGET + 1
    poly = tmp_path / "cross.json"
    save_polytope(poly, VPolytope(n, np.vstack([np.eye(n), -np.eye(n)])))
    sigma = ",".join(map(str, range(n)))
    assert main(["cube-test", "--polytope", str(poly), "--sigma", sigma, "--scale", "0.5"]) == 3
    assert f"exceeds the exponent budget {CUBE_DIM_BUDGET}" in capsys.readouterr().err


def test_cube_test_checks_sigma_against_the_body_before_the_budget(tmp_path, capsys):
    from combdim.geometry import CUBE_DIM_BUDGET, VPolytope, save_polytope

    poly = tmp_path / "cross.json"
    save_polytope(poly, VPolytope(3, np.vstack([np.eye(3), -np.eye(3)])))
    sigma = ",".join(map(str, range(CUBE_DIM_BUDGET + 1)))
    assert main(["cube-test", "--polytope", str(poly), "--sigma", sigma, "--scale", "0.5"]) == 1
    err = capsys.readouterr().err
    assert f"coordinate {CUBE_DIM_BUDGET} out of range for domain size 3" in err
    assert "budget" not in err


def test_entropy_past_the_exact_limits_prints_bounds(tmp_path, capsys):
    fam = tmp_path / "big.json"
    rng = np.random.default_rng(0)
    save_family(fam, FunctionFamily(rng.uniform(-1, 1, (31, 2))))
    assert main(["entropy", "--family", str(fam), "--scale", "0.4"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[2] == "lower-bound" and row[4] == "upper-bound"
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--family", str(fam), "--scale", "0.4", "--mode", "exact"])
    assert exc.value.code == 2


def _scaled_l1_const_repro(tmp_path, scale):
    # norm 1 of random_norm_instances(1) with its vectors scaled
    from combdim.experiments import random_norm_instances
    from combdim.geometry import save_norm

    norm, vectors, _ = random_norm_instances(1)[1]
    save_norm(tmp_path / "norm.json", norm)
    vec_path = tmp_path / "vecs.json"
    vec_path.write_text(json.dumps((vectors * scale).tolist()))
    return main(["l1-const", "--norm", str(tmp_path / "norm.json"), "--vectors", str(vec_path)])


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    # an iteration cap of zero stops the first orthant LP before its first pivot
    from combdim import simplex

    monkeypatch.setattr(simplex, "ITER_FACTOR", 0)
    assert _scaled_l1_const_repro(tmp_path, 1.0) == 4
    assert "solver failure:" in capsys.readouterr().err


def test_l1_constant_is_homogeneous_down_to_1e_minus_12(tmp_path, capsys):
    # the l1 constant is homogeneous in the vectors, and the orthant LPs
    # are solved on points rescaled by a power of two, so tiny vectors
    # neither raise against the solver's absolute tolerances nor read 0
    assert _scaled_l1_const_repro(tmp_path, 1.0) == 0
    unscaled = json.loads(capsys.readouterr().out)["l1_constant"]
    for scale in (1e-7, 1e-8, 1e-9, 1e-12):
        assert _scaled_l1_const_repro(tmp_path, scale) == 0
        scaled = json.loads(capsys.readouterr().out)["l1_constant"]
        assert scaled == pytest.approx(scale * unscaled, rel=1e-12, abs=0.0), scale


def test_nan_scale_exits_1(tmp_path, family_file, capsys):
    # NaN fails every comparison, so a guard written t <= 0 lets it through:
    # entropy's greedy cover then never ends and cube-test answers "contained"
    from combdim.geometry import VPolytope, save_polytope

    poly = tmp_path / "poly.json"
    save_polytope(poly, VPolytope(2, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    fam = ["--family", str(family_file)]
    for argv in (["entropy", *fam], ["vc", *fam], ["tree", *fam],
                 ["extract", *fam, "--target-size", "2"],
                 ["cube-test", "--polytope", str(poly), "--sigma", "0,1"],
                 ["convex-vc", "--polytope", str(poly)]):
        assert main(argv + ["--scale", "nan"]) == 1, argv
        assert "must be positive" in capsys.readouterr().err, argv


def test_negative_counts_exit_1(tmp_path, family_file, capsys):
    # each used to be read as an empty range: rudelson and centers exited 0,
    # extract exited 2 with "no accepted subset in -5 attempts"
    ints = tmp_path / "int.json"
    save_family(ints, FunctionFamily([[0, 0], [0, 2], [2, 0], [2, 2]], "integer", 2))
    extract = ["extract", "--family", str(family_file), "--scale", "1.0", "--target-size", "2"]
    for argv, message in (
        (["rudelson", "--n", "3", "--delta", "0.7", "--net-size", "-3"], "net_size must be >= 0"),
        (extract + ["--max-attempts", "-5"], "max_attempts must be >= 1, got -5"),
        (extract + ["--max-attempts", "0"], "max_attempts must be >= 1, got 0"),
        (["centers", "--family", str(ints), "--max-dim", "-1"], "max_dim must be >= 0"),
        # main-theorem printed instances=-1 and exited 0
        (["main-theorem", "--instances", "-1"], "instances must be >= 0, got -1"),
        (["pipeline", "--instances", "-3"], "instances must be >= 0, got -3"),
    ):
        assert main(argv) == 1, argv
        assert message in capsys.readouterr().err, argv


def test_integer_list_flags_name_the_flag(tmp_path, family_file, capsys):
    # each exited 1 with int()'s message, which names no flag, except
    # l1-const --sigma "", which ran on every coordinate
    from combdim.geometry import PolyhedralNorm, VPolytope, save_norm, save_polytope

    poly, norm, vecs = (tmp_path / f"{name}.json" for name in ("poly", "norm", "vecs"))
    save_polytope(poly, VPolytope(2, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    save_norm(norm, PolyhedralNorm(2, np.eye(2)))
    vecs.write_text("[[1.0, 0.0], [0.0, 1.0]]")
    cube = ["cube-test", "--polytope", str(poly), "--scale", "0.5", "--sigma"]
    l1 = ["l1-const", "--norm", str(norm), "--vectors", str(vecs), "--sigma"]
    curve = ["extract-curve", "--family", str(family_file), "--scale", "1.0", "--k-grid"]
    for argv in (cube + [""], cube + ["0,x"], cube + ["0;1"], l1 + [""], l1 + ["0,,1"],
                 curve + [""], curve + ["1,2.5"]):
        flag, value = argv[-2:]
        assert main(argv) == 1, argv
        assert (f"error: {flag} must be comma-separated integers, got {value!r}"
                in capsys.readouterr().err), argv


def test_rudelson_names_the_n_flag_and_its_limit(capsys):
    # both printed "n must lie in [1, 12]", which names no flag
    for n in ("0", "16"):
        assert main(["rudelson", "--n", n, "--delta", "0.5"]) == 1, n
        assert f"error: --n must lie in [1, 15], got {n}" in capsys.readouterr().err, n


def test_nan_p_exits_1(family_file, capsys):
    # p = nan passed the old p < 1 guard and gave "exact" counts from NaN distances
    assert main(["entropy", "--family", str(family_file), "--p", "nan", "--scale", "1.0"]) == 1
    assert "p must be >= 1 or inf, got nan" in capsys.readouterr().err


def test_validate_rejects_gaps_that_check_nothing(tmp_path, family_file, capsys):
    tree_path = tmp_path / "tree.json"
    assert main(["tree", "--family", str(family_file), "--scale", "1.0",
                 "--emit", str(tree_path)]) == 0
    capsys.readouterr()
    validate = ["validate", "--family", str(family_file), "--tree", str(tree_path)]
    for gap in ("-1", "0", "nan"):
        assert main(validate + ["--gap", gap]) == 1, gap
        assert "tree gap must be positive" in capsys.readouterr().err, gap
    doc = json.loads(tree_path.read_text())
    doc["gap"] = math.nan
    bad_path = tmp_path / "bad_gap.json"
    bad_path.write_text(json.dumps(doc))
    assert main(["validate", "--family", str(family_file), "--tree", str(bad_path)]) == 1
    assert f"'gap' in tree file {bad_path} is not a finite number: nan" in capsys.readouterr().err
    doc["gap"] = 0
    bad_path.write_text(json.dumps(doc))
    assert main(["validate", "--family", str(family_file), "--tree", str(bad_path)]) == 1
    assert "tree gap must be positive, got 0.0" in capsys.readouterr().err
    assert main(validate + ["--gap", "3"]) == 2  # the sign vectors differ by 2
    out = capsys.readouterr().out
    assert "differ by 2.0 <= 3.0" in out and "np.float64" not in out


def test_error_exit_code(tmp_path):
    assert main(["vc", "--family", str(tmp_path / "missing.json"), "--scale", "1"]) == 1


def test_wrong_kind_of_file_names_key_and_file(tmp_path, family_file, capsys):
    assert main(["convex-vc", "--polytope", str(family_file), "--scale", "1"]) == 1
    err = capsys.readouterr().err
    assert "missing key 'dimension'" in err and str(family_file) in err
    vec_path = tmp_path / "vecs.json"
    vec_path.write_text(json.dumps(np.eye(2).tolist()))
    assert main(["l1-const", "--norm", str(family_file), "--vectors", str(vec_path)]) == 1
    err = capsys.readouterr().err
    assert "missing key 'dimension'" in err and "norm file" in err and str(family_file) in err
    vec_path.write_text("[1, 2")
    assert main(["cube-test", "--polytope", str(vec_path), "--sigma", "0", "--scale", "1"]) == 1
    assert f"cannot parse polytope file {vec_path}" in capsys.readouterr().err
    tree_path = tmp_path / "tree.json"
    for doc, message in (
        ({"scale": 1.4, "gap": 0.2}, "missing key 'nodes' in tree file"),
        # a nested tree file from before the flat node list
        ({"scale": 1.4, "gap": 0.2, "root": {"indices": [0]}}, "missing key 'nodes' in tree file"),
        ({"scale": 1.4, "gap": 0.2, "nodes": [{"indices": [0, 1], "plus": 1, "minus": 2},
                                             {"indices": [0]}, {"indices": [1]}]},
         "missing key 'coordinate' in a node of tree file"),
        ({"scale": 1.4, "gap": 0.2, "nodes": [{"indices": ["x"]}]}, "bad node in tree file"),
        ({"scale": 1.4, "gap": 0.2, "nodes": 5}, "bad node in tree file"),
        ({"scale": 1.4, "gap": 0.2, "nodes": [[0]]}, "bad node in tree file"),
    ):
        tree_path.write_text(json.dumps(doc))
        assert main(["validate", "--family", str(family_file), "--tree", str(tree_path)]) == 1
        err = capsys.readouterr().err
        assert message in err and str(tree_path) in err


def test_zero_dimensional_bodies_exit_1(tmp_path, capsys):
    poly, norm, vecs = (tmp_path / f"{name}.json" for name in ("poly", "norm", "vecs"))
    poly.write_text(json.dumps({"dimension": 0, "vertices": [[]]}))
    norm.write_text(json.dumps({"dimension": 0, "functionals": [[]]}))
    vecs.write_text("[[]]")
    assert main(["convex-vc", "--polytope", str(poly), "--scale", "1"]) == 1
    assert "polytope dimension must be at least 1, got 0" in capsys.readouterr().err
    assert main(["l1-const", "--norm", str(norm), "--vectors", str(vecs)]) == 1
    assert "norm dimension must be at least 1, got 0" in capsys.readouterr().err


def test_vectors_file_is_checked(tmp_path, family_file, capsys):
    import itertools

    from combdim.geometry import PolyhedralNorm, save_norm

    norm_path = tmp_path / "norm.json"
    save_norm(norm_path, PolyhedralNorm(2, np.array(list(itertools.product((-1.0, 1.0), repeat=2)))))
    vec_path = tmp_path / "vecs.json"
    cases = (
        (family_file.read_text(), "does not hold a nonempty list of rows"),
        (json.dumps([[1.0, 0.0], [0.0]]), "row 1 of vectors file"),  # ragged
        (json.dumps([[1.0, 0.0, 0.0]]), "is not a list of 2 numbers"),  # wrong dimension
        (json.dumps([[1.0, "a"]]), "row 0 of vectors file"),  # not a number
        ("[[1.0, 0.0], [true, 0.0]]", "row 1 of vectors file"),  # a JSON boolean
        ("[[NaN, 0.0]]", "row 0 of vectors file"),  # not finite
        ("[[1.0, Infinity]]", "row 0 of vectors file"),
        (json.dumps([["NaN", 0.0]]), "row 0 of vectors file"),
        ("[]", "does not hold a nonempty list of rows"),
        ("[[1.0, 0.0], 1.0]", "row 1 of vectors file"),  # not a list
    )
    for text, message in cases:
        vec_path.write_text(text)
        for command in ("l1-const", "elton"):
            assert main([command, "--norm", str(norm_path), "--vectors", str(vec_path)]) == 1
            err = capsys.readouterr().err
            assert message in err and f"vectors file {vec_path}" in err


def test_number_rows_of_every_file_kind_are_checked(tmp_path, capsys):
    vec_path = tmp_path / "vecs.json"
    vec_path.write_text("[[1.0, 0.0], [0.0, 1.0]]")
    kinds = (
        ("family", "values", "domain_size",
         {"domain_size": 2, "value_kind": "real", "values": [["0.5", "0.5"], ["-0.5", "0.5"]]},
         ["entropy", "--scale", "0.1", "--family"]),
        ("polytope", "vertices", "dimension",
         {"dimension": 2, "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]]},
         ["convex-vc", "--scale", "0.5", "--polytope"]),
        ("norm", "functionals", "dimension",
         {"dimension": 2, "functionals": [["1.0", "0.0"], ["0.0", "1.0"]]},
         ["l1-const", "--vectors", str(vec_path), "--norm"]),
    )
    bad_rows = (  # rows, the row the message names
        ([[0.5, 0.5], [0.5]], 1),  # ragged
        ([[0.5, True]], 0),
        ([[0.5, math.nan]], 0),
        ([["NaN", "0.5"]], 0),
        ([[0.5, math.inf]], 0),
        ([["-Infinity", "0.5"]], 0),
        ([["0.5", "half"]], 0),
        ([[0.5, 0.5], 0.5], 1),  # not a list
    )
    for kind, key, size_key, doc, command in kinds:
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        assert main(command + [str(path)]) == 0
        capsys.readouterr()
        cases = [({key: rows}, f"row {r} of '{key}' in {kind} file {path}") for rows, r in bad_rows]
        cases.append(({key: []}, f"'{key}' in {kind} file {path} does not hold a nonempty list"))
        cases += [({size_key: size}, f"'{size_key}' in {kind} file {path} is not a nonnegative")
                  for size in (2.7, True, "two", -2)]
        if kind == "family":
            cases += [
                ({"measure": ["NaN", "0.5"]}, f"row 0 of 'measure' in family file {path}"),
                ({"measure": ["1.0"]}, f"row 0 of 'measure' in family file {path}"),
                ({"value_kind": {"integer": 2.7}}, f"'integer' in family file {path}"),
            ]
        for change, message in cases:
            path.write_text(json.dumps({**doc, **change}))
            assert main(command + [str(path)]) == 1, (kind, change)
            assert message in capsys.readouterr().err, (kind, change)


def test_elton_and_rudelson_commands(tmp_path, capsys):
    import itertools

    from combdim.geometry import PolyhedralNorm, save_norm

    n = 3
    norm_path = tmp_path / "norm.json"
    save_norm(norm_path, PolyhedralNorm(n, np.array(list(itertools.product((-1.0, 1.0), repeat=n)))))
    vec_path = tmp_path / "vecs.json"
    vec_path.write_text(json.dumps(np.eye(n).tolist()))
    report = tmp_path / "elton.json"
    assert main(["elton", "--norm", str(norm_path), "--vectors", str(vec_path),
                 "--samples", "200", "--seed", "3", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["sigma"] == [0, 1, 2] and abs(doc["t_certified"] - 1.0) < 1e-9
    assert doc["config"]["samples"] == 200 and "kind" not in doc["config"]

    assert main(["rudelson", "--n", "4", "--delta", "0.6", "--net-size", "16",
                 "--samples", "200", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound_holds"] is True


def test_geometry_commands(tmp_path, capsys):
    from combdim.geometry import VPolytope, save_polytope

    poly_path = tmp_path / "cross.json"
    save_polytope(poly_path, VPolytope(2, [[1, 0], [-1, 0], [0, 1], [0, -1]]))
    assert main(["cube-test", "--polytope", str(poly_path), "--sigma", "0,1",
                 "--scale", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["contained"] is True and doc["translation"] == [-0.5, -0.5]

    assert main(["convex-vc", "--polytope", str(poly_path), "--scale", "1.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"dimension": 1, "sigma": [0]}

    # a triangle is not symmetric: its cubes come from the translated route
    triangle_path = tmp_path / "triangle.json"
    save_polytope(triangle_path, VPolytope(2, [[0, 0], [1, 0], [0, 1]]))
    cube = ["cube-test", "--polytope", str(triangle_path), "--sigma", "0,1", "--scale"]
    assert main(cube + ["0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["contained"] is True and len(doc["translation"]) == 2
    corner = np.array(doc["translation"])
    assert corner.min() >= -1e-9 and corner.sum() + 1.0 <= 1.0 + 1e-9
    assert main(cube + ["0.6"]) == 0
    assert json.loads(capsys.readouterr().out)["contained"] is False
    for scale, answer in (("0.5", {"dimension": 2, "sigma": [0, 1]}),
                          ("0.6", {"dimension": 1, "sigma": [0]}),
                          ("1.1", {"dimension": 0, "sigma": []})):
        assert main(["convex-vc", "--polytope", str(triangle_path), "--scale", scale]) == 0
        assert json.loads(capsys.readouterr().out) == answer, scale

    import itertools

    from combdim.geometry import PolyhedralNorm, save_norm

    norm_path = tmp_path / "l1.json"
    save_norm(norm_path, PolyhedralNorm(3, np.array(list(itertools.product((-1.0, 1.0), repeat=3)))))
    vec_path = tmp_path / "vecs.json"
    vec_path.write_text(json.dumps(np.eye(3).tolist()))
    assert main(["l1-const", "--norm", str(norm_path), "--vectors", str(vec_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["l1_constant"] == pytest.approx(1.0, abs=1e-9)


def test_pipeline_command(capsys):
    assert main(["pipeline", "--instances", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("all stages passed") == 2


def test_pipeline_stage_failure_exits_2(capsys):
    # seed 98's extraction draws none of its accepted subsets in 100 attempts
    assert main(["pipeline", "--instances", "1", "--seed", "98"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("assertion failure: [extraction] ")
    doc = json.loads(err.split("[extraction] ", 1)[1])
    assert doc["k"] == 5 and doc["p_accept"] == pytest.approx(0.0348, abs=1e-4)
    assert doc["error"].startswith("no accepted subset in 100 attempts")


def test_main_theorem_command(tmp_path, capsys):
    out = tmp_path / "mt.json"
    assert main(["main-theorem", "--instances", "6", "--seed", "2026",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k_emp_count"] >= 1
    assert doc["config"]["seed"] == 2026


def test_main_theorem_runs_in_one_process():
    # jobs is accepted only as 1 and is not stored, so the report's config
    # does not depend on the machine; the CLI has no --jobs
    with pytest.raises(ValueError, match="jobs must be 1, got 2"):
        ExperimentConfig(jobs=2)
    assert list(asdict(ExperimentConfig(jobs=1))) == ["seed", "instances", "max_rows", "max_coords"]
    with pytest.raises(SystemExit) as exit_:
        main(["main-theorem", "--jobs", "2"])
    assert exit_.value.code == 2


def test_old_symmetric_key_is_ignored(tmp_path, capsys):
    path = tmp_path / "cross.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                                "symmetric": "no"}))
    assert main(["convex-vc", "--polytope", str(path), "--scale", "1.5"]) == 0
    assert json.loads(capsys.readouterr().out) == {"dimension": 1, "sigma": [0]}


def test_readme_cli_synopsis_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("combdim ")]
    assert len(lines) >= 17
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
        parser.parse_args(argv)  # a stale flag exits 2
