"""End-to-end tests of the command-line interface."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from shapes import realize
from shapes.cli import main
from shapes.deflation import LevelBasis
from shapes.polycore import SlaterState, euler_power, vandermonde
from shapes.shapegen import ShapeCatalog, generate_shapes
from shapes.counting import BOSON, FERMION


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoly:
    def test_golden_3_2(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "3", "--d", "2", "--stat", "fermion")
        assert code == 0
        assert out.strip() == "q^2 + 4q^3 + q^4"

    def test_one_dimension(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "3", "--d", "1")
        assert code == 0
        assert out.strip() == "q^3"

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "poly.json"
        code, _, _ = run(capsys, "poly", "--n", "3", "--d", "2", "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["lowest"] == 2
        assert payload["coeffs"] == [1, 4, 1]

    def test_invalid_args_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--n", "0", "--d", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestGenerate:
    def test_catalog_2_3(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        code, out, _ = run(capsys, "generate", "--n", "2", "--d", "3", "--out", str(path))
        assert code == 0
        catalog = ShapeCatalog.from_json_obj(json.loads(path.read_text()))
        assert catalog.total_count == 4

    def test_round_trip_identity(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        run(capsys, "generate", "--n", "3", "--d", "2", "--out", str(path))
        reloaded = ShapeCatalog.from_json_obj(json.loads(path.read_text()))
        direct = generate_shapes(3, 2, FERMION)
        assert [(s.id, dict(s.coeffs)) for s in reloaded.shapes] == [
            (s.id, dict(s.coeffs)) for s in direct.shapes
        ]

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "generate", "--n", "2", "--d", "2", "--out", str(a))
        run(capsys, "generate", "--n", "2", "--d", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_state_cap_exit_three(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "generate", "--n", "3", "--d", "3",
            "--state-cap", "50", "--out", str(tmp_path / "x.json"),
        )
        assert code == 3
        assert "internal consistency failure" in err

    @pytest.mark.parametrize("max_grade", ["-3", "5", "50"])
    def test_max_grade_out_of_range_exit_two(self, capsys, tmp_path, max_grade):
        # (3,2) fermion: the shape polynomial q^2 + 4q^3 + q^4 has degree 4.
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys,
            "generate", "--n", "3", "--d", "2",
            "--max-grade", max_grade, "--out", str(out),
        )
        assert code == 2
        assert "between 0 and 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_state_cap_not_positive_exit_two(self, capsys, tmp_path, cap):
        code, _, err = run(
            capsys,
            "generate", "--n", "2", "--d", "2",
            "--state-cap", cap, "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert f"positive number of states, got {cap}" in err

    def test_state_cap_environment_not_positive_exit_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SHAPES_STATE_CAP", "0")
        code, _, err = run(
            capsys, "generate", "--n", "2", "--d", "2", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "SHAPES_STATE_CAP must be a positive number of states" in err

    @pytest.mark.parametrize("value", ["abc", "1e5"])
    def test_state_cap_environment_not_an_integer_exit_two(
        self, capsys, tmp_path, monkeypatch, value
    ):
        monkeypatch.setenv("SHAPES_STATE_CAP", value)
        code, _, err = run(
            capsys, "generate", "--n", "2", "--d", "2", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert (
            f"SHAPES_STATE_CAP must be a positive integer number of states, got {value!r}" in err
        )


def _set_exponent(value):
    def edit(payload):
        payload["terms"][0]["matrix"][0][0] = value

    return edit


def _repeat_term(payload):
    payload["terms"][1]["matrix"] = payload["terms"][0]["matrix"]


def _drop_from_first_term(key):
    def edit(payload):
        del payload["terms"][0][key]

    return edit


class TestDeflate:
    def test_vandermonde_roundtrip(self, capsys, tmp_path):
        poly_path = tmp_path / "poly.json"
        payload = {"format_version": "1", "kind": "polynomial"}
        payload.update(vandermonde(3).to_json_obj())
        poly_path.write_text(json.dumps(payload))
        out_path = tmp_path / "vec.json"
        code, _, _ = run(
            capsys,
            "deflate", "--poly", str(poly_path), "--grade", "3",
            "--stat", "fermion", "--out", str(out_path),
        )
        assert code == 0
        vec = json.loads(out_path.read_text())
        assert vec["coeffs"] == ["1"]  # the 1D level has a single state

    def test_product_vector_bytes(self, capsys, tmp_path):
        # (1/2) e1(t) e1(t) g0 over the 14 states of grade 4 of (3,2,fermion):
        # the full vector, zeros included, with fraction strings.
        g0 = SlaterState.from_orbitals([(1, 0), (0, 1), (0, 0)], FERMION).expand()
        e1t = euler_power(1, 1, 0, 3, 2)
        payload = {"format_version": "1", "kind": "polynomial"}
        payload.update((Fraction(1, 2) * e1t * e1t * g0).to_json_obj())
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(json.dumps(payload))
        coeffs = ["0", "1/2", "-1/2", "0", "0", "0", "0", "0", "1", "0", "-1/2", "0", "0", "0"]
        expected = (
            '{\n  "coeffs": [\n'
            + ",\n".join(f'    "{c}"' for c in coeffs)
            + '\n  ],\n  "d": 2,\n  "format_version": "1",\n  "grade": 4,\n'
            '  "kind": "deflation_vector",\n  "n": 3,\n  "statistics": "fermion"\n}\n'
        )
        deflate = ["deflate", "--poly", str(poly_path), "--grade", "4"]
        code, out, _ = run(capsys, *deflate)
        assert code == 0
        assert out == expected
        out_path = tmp_path / "vec.json"
        assert run(capsys, *deflate, "--out", str(out_path))[0] == 0
        assert out_path.read_text() == expected

    def test_outside_span_exit_three(self, capsys, tmp_path):
        poly_path = tmp_path / "poly.json"
        payload = {"format_version": "1", "kind": "polynomial"}
        payload.update(euler_power(2, 1, 0, 3, 1).to_json_obj())
        poly_path.write_text(json.dumps(payload))
        code, _, err = run(
            capsys, "deflate", "--poly", str(poly_path), "--grade", "2",
        )
        assert code == 3
        assert "leading monomial" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, _ = run(
            capsys, "deflate", "--poly", "/nonexistent.json", "--grade", "2",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_set_exponent(1.5), "polynomial term [[1.5], [1], [0]]: exponents must be"),
            (_set_exponent(True), "polynomial term [[True], [1], [0]]: exponents must be"),
            (_set_exponent(-1), "polynomial term [[-1], [1], [0]]: exponents must be"),
            (_repeat_term, "polynomial term [[2], [1], [0]]: listed twice"),
            (lambda payload: payload.update(n="3"), "n must be an integer >= 1, got '3'"),
            (lambda payload: [payload], "a polynomial is a JSON object, got list"),
            (
                lambda payload: payload["terms"].append(1),
                "polynomial terms entry 1 is not an object",
            ),
            (lambda payload: payload.update(terms=5), "terms must be a list, got 5"),
            (_drop_from_first_term("matrix"), "polynomial terms entry 0 has no 'matrix'"),
            (_drop_from_first_term("coeff"), "polynomial term [[2], [1], [0]] has no 'coeff'"),
            (
                lambda payload: payload["terms"][0].update(coeff="1/0"),
                "polynomial term [[2], [1], [0]]: coefficient '1/0' has a zero denominator",
            ),
        ],
        ids=["float-exponent", "bool-exponent", "negative-exponent", "repeated-term",
             "string-n", "list", "term-not-object", "terms-not-list", "no-matrix", "no-coeff",
             "zero-denominator"],
    )
    def test_malformed_polynomial_exit_two(self, capsys, tmp_path, edit, message):
        # The Vandermonde determinant of n=3, d=1; its first term is [[2], [1], [0]].
        payload = {"format_version": "1", "kind": "polynomial"}
        payload.update(vandermonde(3).to_json_obj())
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(json.dumps(edit(payload) or payload))
        out = tmp_path / "vec.json"
        code, _, err = run(
            capsys, "deflate", "--poly", str(poly_path), "--grade", "3", "--out", str(out),
        )
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_wrong_grade_exit_two(self, capsys, tmp_path):
        poly_path = tmp_path / "poly.json"
        payload = {"format_version": "1", "kind": "polynomial"}
        payload.update(vandermonde(3).to_json_obj())
        poly_path.write_text(json.dumps(payload))
        code, _, err = run(
            capsys, "deflate", "--poly", str(poly_path), "--grade", "5",
        )
        assert code == 2
        assert "error" in err


class TestSchur:
    def test_ssyt(self, capsys):
        code, out, _ = run(capsys, "schur", "--partition", "1,1", "--nvars", "3")
        assert code == 0
        assert out.strip() == "t1*t2 + t1*t3 + t2*t3"

    def test_ratio_route_matches(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "schur", "--partition", "2,1", "--nvars", "3", "--out", str(a))
        run(capsys, "schur", "--partition", "2,1", "--nvars", "3",
            "--route", "ratio", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def catalog_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cat") / "cat32.json"
    with open(path, "w") as fh:
        json.dump(generate_shapes(3, 2, FERMION).to_json_obj(), fh)
    return str(path)


class TestDensityAndCoulomb:
    def test_density_csv(self, capsys, tmp_path, catalog_path):
        out = tmp_path / "rho.csv"
        code, _, _ = run(
            capsys,
            "density", "--catalog", catalog_path, "--shape-id", "3:0",
            "--grid", "x:-6:6:41,y:-6:6:41", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 41 * 41
        meta = json.loads((tmp_path / "rho.csv.json").read_text())
        assert meta["normalization"] == 3.0
        assert abs(meta["riemann_integral"] - 3.0) < 1e-6

    def test_density_two_particle_cut(self, capsys, tmp_path, catalog_path):
        out = tmp_path / "cut.csv"
        code, _, _ = run(
            capsys,
            "density", "--catalog", catalog_path, "--shape-id", "2:0",
            "--grid", "x:-5:5:21,y:-5:5:21", "--two-particle-cut",
            "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 21 * 21

    @pytest.mark.parametrize("cut", [[], ["--two-particle-cut"]], ids=["one", "cut"])
    def test_density_bytes_repeat(self, capsys, tmp_path, catalog_path, cut):
        written = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            code, _, _ = run(
                capsys,
                "density", "--catalog", catalog_path, "--shape-id", "4:0",
                "--grid", "x:-5:5:21,y:-4:6:17", *cut, "--out", str(out),
            )
            assert code == 0
            written.append((out.read_bytes(), Path(f"{out}.json").read_bytes()))
        assert written[0] == written[1]

    @pytest.mark.parametrize("cut", [[], ["--two-particle-cut"]], ids=["one", "cut"])
    def test_density_expands_no_state(self, capsys, tmp_path, catalog_path, monkeypatch, cut):
        # The densities read the shape's state vector over its level basis.
        monkeypatch.setattr(LevelBasis, "materialize", _never_expanded)
        monkeypatch.setattr(SlaterState, "expand", _never_expanded)
        out = tmp_path / "rho.csv"
        code, _, _ = run(
            capsys,
            "density", "--catalog", catalog_path, "--shape-id", "4:0",
            "--grid", "x:-5:5:21,y:-4:6:17", *cut, "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 21 * 17

    def test_coulomb_diagonal(self, capsys, tmp_path, catalog_path):
        out = tmp_path / "vee.csv"
        code, _, _ = run(
            capsys,
            "coulomb", "--catalog", catalog_path, "--grade", "3", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "state,vee"
        assert len(lines) == 1 + 6  # 4 shapes + 2 trivial states

    def test_coulomb_pairwise(self, capsys, tmp_path, catalog_path):
        out = tmp_path / "vee.csv"
        code, _, _ = run(
            capsys,
            "coulomb", "--catalog", catalog_path, "--grade", "3",
            "--pairwise", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 6
        table = [line.split(",")[1:] for line in lines[1:]]
        assert all(len(row) == 6 for row in table)
        assert table == [list(col) for col in zip(*table)]
        diag_out = tmp_path / "diag.csv"
        code, _, _ = run(
            capsys,
            "coulomb", "--catalog", catalog_path, "--grade", "3", "--out", str(diag_out),
        )
        assert code == 0
        diagonal = [line.split(",")[1] for line in diag_out.read_text().splitlines()[1:]]
        assert [table[i][i] for i in range(6)] == diagonal

    def test_pairwise_table_above_the_state_cap_exit_two(
        self, capsys, tmp_path, catalog_path, monkeypatch
    ):
        # Grade 4 has 14 states: its diagonal fits under a cap of 100, its
        # 196-cell table does not; grade 3's 36 cells do.
        monkeypatch.setenv("SHAPES_STATE_CAP", "100")
        out = tmp_path / "vee.csv"
        coulomb = ["coulomb", "--catalog", catalog_path, "--out", str(out)]
        code, _, err = run(capsys, *coulomb, "--grade", "4", "--pairwise")
        assert code == 2
        assert (
            "--pairwise table at grade 4 has 14 vectors, 196 cells, above the state cap 100"
        ) in err
        assert not out.exists()
        assert run(capsys, *coulomb, "--grade", "4")[0] == 0
        assert run(capsys, *coulomb, "--grade", "3", "--pairwise")[0] == 0


class TestDensityArguments:
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--length-scale", "nan"], "length scale must be finite and positive, got nan"),
            (["--length-scale", "inf"], "length scale must be finite and positive, got inf"),
            (["--length-scale", "1e-300"], "length scale 1e-300 out of range"),
            (["--length-scale", "1e-300", "--two-particle-cut"], "length scale 1e-300 out of range"),
            (["--length-scale", "1e300"], "length scale 1e+300 out of range"),
            (["--length-scale", "1e-158"], "length scale 1e-158 out of range"),
        ],
        ids=["nan", "inf", "tiny", "tiny-cut", "huge", "grid-overflow"],
    )
    def test_bad_length_scale_exit_two(self, capsys, tmp_path, catalog_path, extra, message):
        out = tmp_path / "rho.csv"
        code, _, err = run(
            capsys,
            "density", "--catalog", catalog_path, "--shape-id", "3:0",
            "--grid", "x:-6:6:31,y:-6:6:31", "--out", str(out), *extra,
        )
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_unknown_shape_id_exit_two(self, capsys, tmp_path, catalog_path):
        # The message is printed bare, not as the repr a KeyError's str gives.
        out = tmp_path / "rho.csv"
        density = ["density", "--catalog", catalog_path, "--shape-id", "9:9", "--out", str(out)]
        code, _, err = run(capsys, *density, "--grid", "x:-6:6:31,y:-6:6:31")
        assert code == 2
        assert err == "error: no shape with id '9:9'\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["x:nan:6:31,y:-6:6:31", "x:-6:inf:31,y:-6:6:31"])
    def test_non_finite_axis_bound_exit_two(self, capsys, tmp_path, catalog_path, grid):
        out = tmp_path / "rho.csv"
        code, _, err = run(
            capsys,
            "density", "--catalog", catalog_path, "--shape-id", "3:0",
            "--grid", grid, "--out", str(out),
        )
        assert code == 2
        assert "bad axis x: need finite lo < hi" in err
        assert not out.exists()

    def test_grid_above_the_state_cap_exit_two(
        self, capsys, tmp_path, catalog_path, monkeypatch
    ):
        # 31 x 31 = 961 samples fit under a cap of 1000, 32 x 32 = 1024 do not;
        # the refusal comes before any density weight is computed.
        monkeypatch.setenv("SHAPES_STATE_CAP", "1000")
        out = tmp_path / "rho.csv"
        density = ["density", "--catalog", catalog_path, "--shape-id", "3:0", "--out", str(out)]
        with monkeypatch.context() as patch:
            patch.setattr(realize, "_reduced_density_weights", _never_called)
            code, _, err = run(capsys, *density, "--grid", "x:-6:6:32,y:-6:6:32")
        assert code == 2
        assert "--grid has 1024 samples, above the state cap 1000" in err
        assert not out.exists()
        assert not Path(f"{out}.json").exists()
        assert run(capsys, *density, "--grid", "x:-6:6:31,y:-6:6:31")[0] == 0


def _never_called(*args, **kwargs):
    raise AssertionError("called after a refusal")


def _never_expanded(*args, **kwargs):
    raise AssertionError("a state was expanded into its monomials")


def _shape(obj, shape_id):
    return next(entry for entry in obj["shapes"] if entry["id"] == shape_id)


def _set_basis_entry(shape_id, row, orbital, axis, value):
    def edit(obj):
        _shape(obj, shape_id)["basis"][row][orbital][axis] = value

    return edit


def _set(key, value):
    def edit(obj):
        obj[key] = value

    return edit


def _set_in_shape(shape_id, key, value):
    def edit(obj):
        _shape(obj, shape_id)[key] = value

    return edit


def _drop(key):
    def edit(obj):
        del obj[key]

    return edit


def _drop_from_shape(shape_id, key):
    def edit(obj):
        del _shape(obj, shape_id)[key]

    return edit


def _stop_at_grade_two(obj):
    obj["max_grade"] = 2
    obj["shapes"] = [entry for entry in obj["shapes"] if entry["grade"] <= 2]


def _drop_shape(shape_id):
    def edit(obj):
        obj["shapes"].remove(_shape(obj, shape_id))

    return edit


def _repeat_first_row(obj):
    basis = _shape(obj, "3:1")["basis"]
    basis[1] = basis[0]


def _repeat_shape(obj):
    obj["shapes"].append(dict(_shape(obj, "3:1")))


def _reverse_shapes(obj):
    obj["shapes"].reverse()


def _renumber(shape_id, index):
    def edit(obj):
        _shape(obj, shape_id)["index"] = index

    return edit


def _boson_catalog_with_unsorted_row(obj):
    # Shape 3:0 of the (3,2,boson) catalog has the row |(1,0),(1,0),(0,1)|.
    boson = generate_shapes(3, 2, BOSON).to_json_obj()
    _shape(boson, "3:0")["basis"][3] = [[1, 0], [0, 1], [1, 0]]
    return boson


class TestCatalogValidation:
    """Malformed catalogs exit 2 with a message naming what is wrong.

    Shape 3:1 of the (3,2,fermion) catalog has the rows |(2,0),(0,1),(0,0)|
    and |(1,1),(1,0),(0,0)| with coefficients 1 and 1.  Every case asks
    for the Coulomb table at grade 3.
    """

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_set("format_version", "99"), "catalog format_version is '99', expected '1'"),
            (_set("kind", "nonsense"), "catalog kind is 'nonsense', expected 'shape_catalog'"),
            (_repeat_shape, "catalog shape 3:1: listed twice"),
            (_repeat_first_row, "catalog shape 3:1: row [[2, 0], [0, 1], [0, 0]] is listed twice"),
            (_set_in_shape("3:1", "coeffs", ["1"]), "catalog shape 3:1: 2 basis rows but 1 coefficients"),
            (_set("max_grade", 3), "catalog shape 4:0: grade 4 is outside 0..3"),
            (_set_in_shape("3:1", "coeffs", ["1", "1/2"]), "catalog shape 3:1: coefficients are not canonical"),
            (_set_in_shape("3:1", "coeffs", ["1", "0"]), "catalog shape 3:1: coefficients are not canonical"),
            (_set_in_shape("3:1", "coeffs", ["2", "2"]), "catalog shape 3:1: coefficients are not canonical"),
            (_set_in_shape("3:1", "coeffs", ["-1", "-1"]), "catalog shape 3:1: coefficients are not canonical"),
            (
                _set_in_shape("3:1", "basis", [[[3, 0], [0, 1], [0, 0]], [[1, 1], [1, 0], [0, 0]]]),
                "catalog shape 3:1: row [[3, 0], [0, 1], [0, 0]] is not a state of grade 3",
            ),
            (_set("n", 4), "catalog shape 2:0: row [[1, 0], [0, 1], [0, 0]] is not a state of grade 2 (n=4, d=2, fermion)"),
            (
                _set_in_shape("3:1", "basis", [[[2, 0], [0, 1], [0, 0]], [[0, 2], [1, 0], [0, 0]]]),
                "catalog shape 3:1: rows lie in 2 sectors [(1, 2), (2, 1)], not one",
            ),
            (
                _set("shape_polynomial", {"lowest": 2, "coeffs": [1, 4, 2]}),
                "catalog shape_polynomial is not that of n=3, d=2, fermion",
            ),
            (_set_basis_entry("3:1", 0, 1, 1, 1.5), "catalog shape 3:1: orbital exponent 1.5 is not an integer"),
            (_set("n", "3"), "n must be an integer >= 1, got '3'"),
            (_set("max_grade", "4"), "max_grade must be an integer >= 0, got '4'"),
            (lambda obj: [obj], "a catalog is a JSON object, got list"),
            (lambda obj: obj["shapes"].append(1), "catalog shapes entry 1 is not an object"),
            (_set("shapes", 5), "shapes must be a list, got 5"),
            (_set_in_shape("3:1", "basis", 5), "catalog shape 3:1: basis must be a list, got 5"),
            (
                _set_in_shape("3:1", "basis", [1, [[1, 1], [1, 0], [0, 0]]]),
                "catalog shape 3:1: row 1 is not a list of orbitals",
            ),
            (
                _set_in_shape("3:1", "basis", [[1, [0, 1], [0, 0]], [[1, 1], [1, 0], [0, 0]]]),
                "catalog shape 3:1: row [1, [0, 1], [0, 0]] is not a list of orbitals",
            ),
            (_set_in_shape("3:1", "coeffs", 5), "catalog shape 3:1: coeffs must be a list, got 5"),
            (_drop_from_shape("3:1", "grade"), "catalog shapes entry 2 has no 'grade'"),
            (_drop_from_shape("3:1", "index"), "catalog shapes entry 2 has no 'index'"),
            (_drop("statistics"), "catalog has no 'statistics'"),
            (
                _stop_at_grade_two,
                "--grade 3 is above the catalog's max_grade 2 and the catalog is incomplete",
            ),
            (_drop_shape("3:1"), "catalog shape count at grade 3 is 3, expected 4"),
            (
                _set_in_shape("3:1", "basis", [[[2, 0], [0, 1], [0, 0]], [[1, 0], [1, 1], [0, 0]]]),
                "catalog shape 3:1: row [[1, 0], [1, 1], [0, 0]] is not in canonical order",
            ),
            (
                _boson_catalog_with_unsorted_row,
                "catalog shape 3:0: row [[1, 0], [0, 1], [1, 0]] is not in canonical order",
            ),
            (
                _reverse_shapes,
                "catalog shape 4:0: listed at position 0, where shape 2:0 belongs "
                "(by grade, then by index from 0)",
            ),
            (
                _renumber("3:0", 9),
                "catalog shape 3:9: listed at position 1, where shape 3:0 belongs",
            ),
            (_set_in_shape("3:1", "id", "3:7"), "catalog shape 3:1: id is '3:7', expected '3:1'"),
            (_drop_from_shape("3:1", "id"), "catalog shape 3:1: id is None, expected '3:1'"),
            (
                _set_in_shape("3:1", "coeffs", ["1/0", "1"]),
                "catalog shape 3:1: coefficient '1/0' has a zero denominator",
            ),
        ],
        ids=[
            "format-version", "kind", "duplicate-shape", "duplicate-row", "short-coeffs",
            "max-grade", "rational-coeff", "zero-coeff", "content", "sign", "wrong-grade-row",
            "wrong-n", "two-sectors", "shape-polynomial", "float-row-entry", "string-n",
            "string-max-grade", "list", "shape-not-object", "shapes-not-list",
            "basis-not-list", "row-not-list", "orbital-not-list", "coeffs-not-list",
            "no-grade", "no-index", "no-statistics", "grade-above-max-grade",
            "missing-shape", "unsorted-fermion-row", "unsorted-boson-row", "reversed",
            "index-gap", "id-mismatch", "no-id", "zero-denominator",
        ],
    )
    def test_malformed_catalog_exit_two(self, capsys, tmp_path, catalog_path, edit, message):
        obj = json.loads(Path(catalog_path).read_text())
        obj = edit(obj) or obj
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "vee.csv"
        code, _, err = run(
            capsys, "coulomb", "--catalog", str(path), "--grade", "3", "--out", str(out),
        )
        assert code == 2
        assert message in err
        assert not out.exists()


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--d", "2")
        assert code == 0
        assert "verify: PASS" in out
        assert "FAIL" not in out.replace("verify: PASS", "")

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_state_cap_not_positive_exit_two(self, capsys, cap):
        code, out, err = run(capsys, "verify", "--n", "2", "--d", "2", "--state-cap", cap)
        assert code == 2
        assert f"--state-cap must be a positive number of states, got {cap}" in err
        assert out == ""

    def test_verify_fermion_only(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--d", "3", "--stat", "fermion")
        assert code == 0
        assert "[fermion]" in out
        assert "[boson]" not in out

    def test_skipped_checks_make_the_verdict_incomplete(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "3", "--d", "2", "--stat", "fermion", "--state-cap", "5"
        )
        assert code == 4
        assert out.splitlines()[-1] == "verify: INCOMPLETE (3 skipped)"
        assert "SKIP  [fermion] enumeration grade 3  6 states exceed the state cap 5" in out
        assert "SKIP  [fermion] catalog checks  level at grade 3 has 6 states" in out
        assert "PASS" not in out.split("enumeration grade 3")[1]

    def test_three_dimensional_top_grade_is_span_checked(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--d", "3", "--stat", "fermion")
        assert code == 0
        assert "SKIP" not in out
        assert "PASS  [fermion] span grade 9  grade 9: rank 3838/3838" in out
        assert out.splitlines()[-1] == "verify: PASS"
