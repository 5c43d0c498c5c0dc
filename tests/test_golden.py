"""Golden catalogs: `shapes generate` must reproduce these JSON bytes exactly.

The digests are SHA-256 of the files written by `shapes generate` for
complete catalogs.  Any change to the construction, the canonical vector
normalization or the serialization that alters a single byte fails here.
Each golden catalog must also pass the loader's validation, which builds
no level, and the density and Coulomb commands build only the levels they
read.  Small systems,
in two and three dimensions so that shapes are also carried between
sectors by axis permutations, are also generated with every sector forced
onto the exact echelon, and with a denominator bound of 1 under which
the certificates of some blocks fail and fall back to it.
Coulomb tables written by `shapes coulomb` from golden catalogs are pinned
the same way, so a change to the exact kernel or its one rounding that
alters a printed digit fails here.  Densities are floating-point sums whose
order may change, so their Riemann integrals and largest samples are
pinned to 1e-12 relative instead; a sample that is rounding noise, such as
the pair cut's corner on its Pauli node, is pinned at exactly 0.
"""

import hashlib
import json

import numpy as np
import pytest

from shapes import coulomb, polycore, shapegen
from shapes.cli import main
from shapes.counting import FERMION, total_shape_count
from shapes.deflation import LevelBasis, StateVector
from shapes.errors import StateCapExceeded
from shapes.realize import (
    Realization,
    one_particle_density,
    parse_grid,
    two_particle_density_cut,
)
from shapes.shapegen import ShapeCatalog, generate_shapes

GOLDEN_SHA256 = {
    (3, 2, "fermion"): "0d5a948c2a04cec3dc082c3efb381adb03ba8f4d331f606b50b49c713180a953",
    (3, 2, "boson"): "f5ebf9d8fa247c4d0da315fb5683d4a62f3772da96f87017bd2c32156c6f28b8",
    (2, 3, "fermion"): "e192550380a42e6b0287fe1ad70565b90ac59dddcce2db9b30b6cb6855fb05ae",
    (2, 3, "boson"): "9b62ec1e5bdec02ca101708de9cf758aaa7c8f9d312a4d2e25f206875b5a0a09",
    (4, 2, "fermion"): "7f9d36d4bd238b5dab10348e521c62be6cd528729279f4d47d5e0f5f6fb9ecf8",
    (3, 3, "fermion"): "b356a2efeeaf3b6084295e837fad2ec979c871d0e764f69681e6937652917a01",
    (3, 3, "boson"): "0e924d3c73060a45b3ecf523c1ead665a41cd48e104bb81341b882822052cf29",
    (4, 2, "boson"): "d207846dd172bb533cca9fdf4c2e4ff11aa25f14829fff5bf8ed090fe0b6e459",
    (5, 2, "fermion"): "a3fe5ee508fd77f5e7b5a28f48cd4b4c0f0446318c5f716954fff5af9283ac06",
    (3, 4, "fermion"): "938a822a1536f3298fe602a3eafbc4c4391ed4ca5044d67bfdce8171bc6be3a2",
}

GOLDEN_COULOMB_SHA256 = {
    ((4, 2, "fermion"), "--grade 7"): "ccbf0f70657c84507575de99cba195a6c982e929bae5b6c31b4b509574f63329",
    ((4, 2, "fermion"), "--grade 5 --pairwise"): "4ca8731b2710e0a52a441c2cc24a30b2e4e5f623beec620a9f6229632b2fbe96",
    ((3, 2, "boson"), "--grade 4 --pairwise"): "dfa9d327a1b85d0bbcc14df3e24ac2bcc8721d28905ccfeb940f3ad02f75c97d",
    # Its pair values pass int64, so they run on Python ints.
    ((5, 2, "fermion"), "--grade 14"): "d9184d7bae2032ce6a2fe0ed102a55bf8111357db34fe0c4948473f850377f81",
}
# The tables whose pair values run in int64; the grade-14 table takes
# about 9 s when read one vector a chunk.
INT64_TABLES = sorted(key for key in GOLDEN_COULOMB_SHA256 if key[0] != (5, 2, "fermion"))

# (4, 2, fermion) shape 8:0 on the grid x:-6:6:61,y:-6:6:61 at length scale
# 1: (Riemann integral, largest sample) of each density.
GOLDEN_DENSITY = {
    "one-particle": (one_particle_density, 3.99999999999946, 0.4057118692731417),
    "pair-cut": (two_particle_density_cut, 0.4281056968300464, 0.12449628970901339),
}


def levels_built(call):
    """(call(), the grades of the levels built while it ran, in order)."""
    built, real = [], LevelBasis.__init__

    def spy(self, n, d, grade, *args, **kwargs):
        built.append(grade)
        real(self, n, d, grade, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LevelBasis, "__init__", spy)
        return call(), built


def assert_golden(tmp_path, capsys, system):
    n, d, stat = system
    out = tmp_path / "catalog.json"
    argv = ["generate", "--n", str(n), "--d", str(d), "--stat", stat, "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[system]
    obj = json.loads(out.read_text())
    catalog, built = levels_built(lambda: ShapeCatalog.from_json_obj(obj))
    assert built == []
    assert catalog.total_count == total_shape_count(n, d)
    return catalog


@pytest.mark.parametrize("system", sorted(GOLDEN_SHA256), ids=lambda s: "%d-%d-%s" % s)
def test_generate_is_byte_identical(tmp_path, capsys, system):
    assert_golden(tmp_path, capsys, system)


@pytest.mark.parametrize(
    "setting, value",
    [("DENSE_SECTOR_CAP", 0), ("DENOMINATOR_BOUND", 1)],
    ids=["exact", "unit-denominators"],
)
@pytest.mark.parametrize(
    "system",
    [(3, 2, "fermion"), (3, 2, "boson"), (4, 2, "fermion"), (2, 3, "fermion"), (2, 3, "boson")],
    ids=lambda s: "%d-%d-%s" % s,
)
def test_forced_paths_are_byte_identical(tmp_path, capsys, monkeypatch, system, setting, value):
    proven = []
    real = shapegen._certify

    def spy(block):
        result = real(block)
        proven.append(result is not None)
        return result

    monkeypatch.setattr(shapegen, setting, value)
    monkeypatch.setattr(shapegen, "_certify", spy)
    catalog = assert_golden(tmp_path, capsys, system)
    if setting == "DENSE_SECTOR_CAP":
        assert not proven
    else:
        # With denominator 1, a block whose shapes are all 1 or -1 at their
        # largest index is proven, and one whose shape is not is refused.
        fractional = any(abs(s.coeffs[max(s.coeffs)]) != 1 for s in catalog.shapes)
        assert any(proven) and all(proven) != fractional


@pytest.mark.parametrize(
    "system", [(3, 3, "fermion"), (4, 2, "boson")], ids=lambda s: "%d-%d-%s" % s
)
def test_no_bundled_openblas_gives_the_same_bytes(tmp_path, capsys, monkeypatch, system):
    # Where numpy's bundled OpenBLAS is not found, the certificates run on
    # the library's own thread count, and the catalog is the same.
    looked = []
    monkeypatch.setattr(shapegen, "_blas_threads", lambda: looked.append(1))
    assert_golden(tmp_path, capsys, system)
    assert looked


@pytest.fixture(scope="module")
def catalog_files(tmp_path_factory):
    """{system: path of its catalog written by `shapes generate`}, made on first use."""
    paths = {}

    def get(system):
        if system not in paths:
            n, d, stat = system
            path = tmp_path_factory.mktemp("golden") / "catalog.json"
            argv = ["generate", "--n", str(n), "--d", str(d), "--stat", stat, "--out", str(path)]
            assert main(argv) == 0
            paths[system] = path
        return paths[system]

    return get


def _table_id(value):
    if isinstance(value, tuple):
        return "%d-%d-%s" % value
    return value[2:].replace(" --", "-").replace(" ", "-")


def assert_coulomb_golden(tmp_path, capsys, catalog_files, system, options):
    """Write the table with `shapes coulomb` and check its digest; return
    the dtypes of the pair-value batches it computed."""
    dtypes, real = [], coulomb._scaled_elements

    def spy(*args):
        values = real(*args)
        dtypes.append(values.dtype)
        return values

    out = tmp_path / "vee.csv"
    argv = ["coulomb", "--catalog", str(catalog_files(system)), *options.split(), "--out", str(out)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coulomb, "_scaled_elements", spy)
        assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_COULOMB_SHA256[(system, options)]
    return dtypes


@pytest.mark.parametrize("system, options", sorted(GOLDEN_COULOMB_SHA256), ids=_table_id)
def test_coulomb_table_is_byte_identical(tmp_path, capsys, catalog_files, system, options):
    dtypes = assert_coulomb_golden(tmp_path, capsys, catalog_files, system, options)
    assert dtypes == [np.int64 if (system, options) in INT64_TABLES else object]


@pytest.mark.parametrize("system, options", INT64_TABLES, ids=_table_id)
def test_coulomb_table_on_python_ints_is_byte_identical(
    tmp_path, capsys, catalog_files, monkeypatch, system, options
):
    monkeypatch.setattr(coulomb, "_INT64_BOUND", 0)
    dtypes = assert_coulomb_golden(tmp_path, capsys, catalog_files, system, options)
    assert dtypes == [object]


@pytest.mark.parametrize("system, options", INT64_TABLES, ids=_table_id)
def test_coulomb_table_in_chunks_is_byte_identical(
    tmp_path, capsys, catalog_files, monkeypatch, system, options
):
    # With a bound of one byte, every vector's entries are read in a chunk
    # of their own, and every bra vector's pairs of entries are summed in
    # one.
    splits, real = [], coulomb.chunks

    def spy(ends, parts=None):
        pieces = [*real(ends, parts)]
        splits.append((len(ends), pieces))
        return iter(pieces)

    monkeypatch.setattr(polycore, "CHUNK_BYTES", 1)
    monkeypatch.setattr(coulomb, "chunks", spy)
    out = tmp_path / "vee.csv"
    argv = ["coulomb", "--catalog", str(catalog_files(system)), *options.split(), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_COULOMB_SHA256[(system, options)]
    assert all(pieces == [slice(k, k + 1) for k in range(count)] for count, pieces in splits)
    assert max(count for count, _ in splits) > 1


@pytest.mark.parametrize("kind", sorted(GOLDEN_DENSITY))
def test_density_integral_and_peak(catalog_files, kind):
    density, integral, peak = GOLDEN_DENSITY[kind]
    catalog = ShapeCatalog.from_json_obj(json.loads(catalog_files((4, 2, "fermion")).read_text()))
    shape = catalog.find("8:0")
    state = StateVector(catalog.level_basis(shape.grade), shape.coeffs)
    grid = density(state, Realization(), parse_grid("x:-6:6:61,y:-6:6:61"))
    assert grid.riemann_integral() == pytest.approx(integral, rel=1e-12, abs=0)
    assert grid.values.max() == pytest.approx(peak, rel=1e-12, abs=0)
    if kind == "pair-cut":
        # The corner x = y = -6 is on the Pauli node, where the summed terms
        # cancel to rounding noise of about 1e-68.
        assert grid.values[0, 0] == 0.0


def test_density_bytes_do_not_depend_on_the_catalog_route(tmp_path, catalog_files):
    """Shape 8:0 of (4, 2, fermion) gives the same CSV bytes whether its
    catalog was generated in this process or loaded from its JSON file."""
    routes = {
        "generated": generate_shapes(4, 2, FERMION),
        "loaded": ShapeCatalog.from_json_obj(
            json.loads(catalog_files((4, 2, "fermion")).read_text())
        ),
    }
    axes = parse_grid("x:-6:6:61,y:-6:6:61")
    for kind, (density, _integral, _peak) in sorted(GOLDEN_DENSITY.items()):
        written = []
        for route, catalog in routes.items():
            shape = catalog.find("8:0")
            state = StateVector(catalog.level_basis(shape.grade), shape.coeffs)
            path = tmp_path / f"{kind}-{route}.csv"
            density(state, Realization(), axes).write_csv(path)
            written.append(path.read_bytes())
        assert written[0] == written[1], kind


def test_the_count_table_names_a_level_above_the_state_cap(catalog_files):
    # The (3, 4, fermion) count table through grade 10 holds under 50 000
    # entries, so the load reads the level dimensions from it; grade 10
    # has 57 340 states.
    obj = json.loads(catalog_files((3, 4, "fermion")).read_text())
    with pytest.raises(StateCapExceeded) as refusal:
        ShapeCatalog.from_json_obj(obj, state_cap=50_000)
    assert (refusal.value.grade, refusal.value.count) == (10, 57_340)


SMALL_GRID = ["--grid", "x:-1:1:3,y:-1:1:3"]


@pytest.mark.parametrize(
    "command, read",
    [
        (["density", "--shape-id", "8:0", *SMALL_GRID], [8]),
        (["density", "--shape-id", "8:0", *SMALL_GRID, "--two-particle-cut"], [8]),
        (["coulomb", "--grade", "7"], [7, 4, 5, 6]),
        (["coulomb", "--grade", "5", "--pairwise"], [5, 4]),
    ],
    ids=["density", "pair-cut", "coulomb-7", "coulomb-5-pairwise"],
)
def test_commands_build_only_the_levels_they_read(tmp_path, capsys, catalog_files, command, read):
    """Loading builds no level: density builds its shape's grade, and a
    Coulomb table its grade and the lower grades of its products."""
    path = str(catalog_files((4, 2, "fermion")))
    argv = [command[0], "--catalog", path, *command[1:], "--out", str(tmp_path / "out.csv")]
    code, built = levels_built(lambda: main(argv))
    capsys.readouterr()
    assert code == 0
    assert built == read
