import json
import math

import numpy as np
import pytest

from combdim.cli import main
from combdim.family import FunctionFamily, save_family


@pytest.fixture()
def family_file(tmp_path):
    path = tmp_path / "fam.json"
    save_family(path, FunctionFamily([[1, 1], [1, -1], [-1, 1], [-1, -1]]))
    return path


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


def test_validate_detects_corruption(tmp_path, family_file, capsys):
    tree_path = tmp_path / "tree.json"
    assert main(["tree", "--family", str(family_file), "--scale", "1.4",
                 "--emit", str(tree_path)]) == 0
    doc = json.loads(tree_path.read_text())
    doc["root"]["plus"]["indices"] = doc["root"]["minus"]["indices"]  # overlap
    tree_path.write_text(json.dumps(doc))
    assert main(["validate", "--family", str(family_file),
                 "--tree", str(tree_path)]) == 2


def _chain_tree_text(depth):
    # every node holds rows (0, 1), so validation stops at the root, where
    # the sons overlap; the file only has to load
    text = '{"indices": [0]}'
    for _ in range(depth):
        text = (
            '{"indices": [0, 1], "coordinate": 0, "threshold": 0.0, "gap": 0.1, '
            f'"plus": {text}, "minus": {{"indices": [1]}}}}'
        )
    return f'{{"scale": 0.6, "gap": 0.1, "root": {text}}}'


def test_validate_deep_tree_files(tmp_path, family_file, capsys):
    tree_path = tmp_path / "deep.json"
    tree_path.write_text(_chain_tree_text(900))
    assert main(["validate", "--family", str(family_file), "--tree", str(tree_path)]) == 2
    assert "sons overlap at node (0, 1)" in capsys.readouterr().out
    tree_path.write_text(_chain_tree_text(3000))
    assert main(["validate", "--family", str(family_file), "--tree", str(tree_path)]) == 1
    assert f"tree file {tree_path} nests too deep to load" in capsys.readouterr().err


def test_extract_command(tmp_path, capsys):
    fam = tmp_path / "pair.json"
    save_family(fam, FunctionFamily([[1.0] * 8, [-1.0] * 8]))
    assert main(["extract", "--family", str(fam), "--scale", "1.9",
                 "--target-size", "3", "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1 <= len(doc["subset"]) <= 3
    assert doc["achieved_separation"] > doc["target_separation"]


def test_extract_curve_command(tmp_path, capsys):
    fam = tmp_path / "pair.json"
    save_family(fam, FunctionFamily([[1.0] * 8, [-1.0] * 8]))
    assert main(["extract-curve", "--family", str(fam), "--scale", "1.9",
                 "--k-grid", "1,2,4", "--trials", "400", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,success_rate,stderr"
    assert len(lines) == 5 and lines[-1].startswith("#")


def test_gsup_command(tmp_path, capsys):
    fam = tmp_path / "point.json"
    save_family(fam, FunctionFamily([[1.0, 0.0], [-1.0, 0.0]]))
    assert main(["gsup", "--family", str(fam), "--samples", "20000", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["mean"] - math.sqrt(2 / math.pi)) <= 4 * doc["stderr"]


def test_budget_exit_code(tmp_path, capsys):
    fam = tmp_path / "big.json"
    rng = np.random.default_rng(0)
    save_family(fam, FunctionFamily(rng.uniform(-1, 1, (31, 2))))
    assert main(["entropy", "--family", str(fam), "--scale", "0.4"]) == 3


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
        ({"scale": 1.4, "gap": 0.2}, "missing key 'root' in tree file"),
        ({"scale": 1.4, "gap": 0.2, "root": {"indices": [0, 1], "plus": {"indices": [0]},
                                            "minus": {"indices": [1]}}},
         "missing key 'coordinate' in a node of tree file"),
        ({"scale": 1.4, "gap": 0.2, "root": {"indices": ["x"]}}, "bad node in tree file"),
    ):
        tree_path.write_text(json.dumps(doc))
        assert main(["validate", "--family", str(family_file), "--tree", str(tree_path)]) == 1
        err = capsys.readouterr().err
        assert message in err and str(tree_path) in err


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
         {"dimension": 2, "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]], "symmetric": True},
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
        if kind == "polytope":
            cases += [({"symmetric": flag}, f"'symmetric' in polytope file {path}")
                      for flag in ("false", "no", 1)]
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
    assert doc["config"]["samples"] == 200

    assert main(["rudelson", "--n", "4", "--delta", "0.6", "--net-size", "16",
                 "--samples", "200", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound_holds"] is True


def test_geometry_commands(tmp_path, capsys):
    from combdim.geometry import VPolytope, save_polytope

    poly_path = tmp_path / "cross.json"
    save_polytope(poly_path, VPolytope(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], symmetric=True))
    assert main(["cube-test", "--polytope", str(poly_path), "--sigma", "0,1",
                 "--scale", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["contained"] is True

    assert main(["convex-vc", "--polytope", str(poly_path), "--scale", "1.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"dimension": 1, "sigma": [0]}

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


def test_main_theorem_command(tmp_path, capsys):
    out = tmp_path / "mt.json"
    assert main(["main-theorem", "--instances", "6", "--seed", "2026",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k_emp_count"] >= 1
    assert doc["config"]["seed"] == 2026
