"""Golden catalogs: `shapes generate` must reproduce these JSON bytes exactly.

The digests are SHA-256 of the files written by `shapes generate` for
complete catalogs.  Any change to the construction, the canonical vector
normalization or the serialization that alters a single byte fails here.
Each golden catalog must also pass the loader's validation.
"""

import hashlib
import json

import pytest

from shapes.cli import main
from shapes.counting import total_shape_count
from shapes.shapegen import ShapeCatalog

GOLDEN_SHA256 = {
    (3, 2, "fermion"): "0d5a948c2a04cec3dc082c3efb381adb03ba8f4d331f606b50b49c713180a953",
    (3, 2, "boson"): "f5ebf9d8fa247c4d0da315fb5683d4a62f3772da96f87017bd2c32156c6f28b8",
    (2, 3, "fermion"): "e192550380a42e6b0287fe1ad70565b90ac59dddcce2db9b30b6cb6855fb05ae",
    (2, 3, "boson"): "9b62ec1e5bdec02ca101708de9cf758aaa7c8f9d312a4d2e25f206875b5a0a09",
    (4, 2, "fermion"): "7f9d36d4bd238b5dab10348e521c62be6cd528729279f4d47d5e0f5f6fb9ecf8",
    (3, 3, "fermion"): "b356a2efeeaf3b6084295e837fad2ec979c871d0e764f69681e6937652917a01",
    (3, 3, "boson"): "0e924d3c73060a45b3ecf523c1ead665a41cd48e104bb81341b882822052cf29",
    (4, 2, "boson"): "d207846dd172bb533cca9fdf4c2e4ff11aa25f14829fff5bf8ed090fe0b6e459",
}


@pytest.mark.parametrize("system", sorted(GOLDEN_SHA256), ids=lambda s: "%d-%d-%s" % s)
def test_generate_is_byte_identical(tmp_path, capsys, system):
    n, d, stat = system
    out = tmp_path / "catalog.json"
    argv = ["generate", "--n", str(n), "--d", str(d), "--stat", stat, "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[system]
    assert ShapeCatalog.from_json_obj(json.loads(out.read_text())).total_count == (
        total_shape_count(n, d)
    )
