"""One timed pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays what a user
of the command line pays: interpreter start, import, and cold process-wide
caches.  After the workload's set-up, every ``functools.lru_cache`` in the
``shapes`` package is cleared as well, because the realize set-up generates
a catalog in the same process and would otherwise warm them.

The pass is the workload's operations run back to back by one caller, each
starting when the previous one returns.  Outputs are checked after the
timed region; a raised exception, a command exit code other than 0, or a
mismatch against ``reference.json`` marks the operation failed.

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import shapes  # noqa: E402
import shapes.cli  # noqa: E402
from shapes import Statistics  # noqa: E402

from tracer import ROOT_SPAN, Tracer, layer_metrics, summarize  # noqa: E402

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

GRID = "x:-6:6:61,y:-6:6:61"
# The one-particle density must integrate to N; a 61-point Riemann sum of
# these Gaussian-decaying functions is exact to about 1e-12.
DENSITY_ABS_TOL = 1e-8
# Coulomb values and the pair-cut integral are compared relative to the
# largest reference value, so a change of summation order passes and a
# wrong element does not.
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An operation returned, but its output does not match the reference."""


def catalog_bytes(catalog):
    """The catalog JSON exactly as ``shapes generate`` writes it."""
    return (json.dumps(catalog.to_json_obj(), indent=2, sort_keys=True) + "\n").encode()


def catalog_digest(catalog):
    return hashlib.sha256(catalog_bytes(catalog)).hexdigest()


def check_catalog(name, catalog):
    """Digest, per-grade count law and (for complete catalogs) saturation."""
    digest = catalog_digest(catalog)
    if digest != REFERENCE["catalog_sha256"][name]:
        raise CheckFailed(f"catalog digest {digest} differs from the reference")
    poly = shapes.shape_polynomial(catalog.n, catalog.d, catalog.statistics)
    for grade in range(poly.lowest_degree(), catalog.max_grade + 1):
        found = len(catalog.shapes_at(grade))
        if found != poly.coefficient(grade):
            raise CheckFailed(
                f"grade {grade}: {found} shapes, shape polynomial says "
                f"{poly.coefficient(grade)}"
            )
    if catalog.max_grade >= poly.degree():
        saturation = math.factorial(catalog.n) ** (catalog.d - 1)
        if catalog.total_count != saturation or not catalog.is_complete():
            raise CheckFailed(
                f"{catalog.total_count} shapes, saturation needs {saturation}"
            )


class Generate:
    """``generate_shapes`` through the public API; the seed is ignored."""

    ops = ("generate",)

    def __init__(self, name, n, d, statistics, max_grade=None):
        self.name = name
        self.args = (n, d, Statistics.parse(statistics))
        self.max_grade = max_grade

    def setup(self, workdir, seed):
        pass

    def operations(self):
        return [self._generate]

    def _generate(self):
        return shapes.generate_shapes(*self.args, max_grade=self.max_grade)

    def check(self, op, catalog):
        check_catalog(self.name, catalog)


class Realize:
    """Densities and Coulomb tables through the in-process CLI.

    Set-up generates the (4, 2, fermion) catalog and writes its JSON; the
    seed picks which shape gets the densities.  Only the grade-8 shapes 8:0
    and 8:2 are candidates: they are mirror images with 432 monomials each,
    while 8:1 has 600 and would make the density time depend on the seed.
    """

    name = "realize-4x2-fermion"
    ops = ("density", "pair_density", "coulomb_diag", "coulomb_pairwise")

    def setup(self, workdir, seed):
        self.workdir = workdir
        catalog = shapes.generate_shapes(4, 2, Statistics.FERMION)
        self.catalog_path = workdir / "catalog.json"
        self.catalog_path.write_bytes(catalog_bytes(catalog))
        check_catalog(self.name, catalog)
        self.n = catalog.n
        candidates = REFERENCE["density_shapes"]
        self.shape_id = candidates[seed % len(candidates)]

    def operations(self):
        cat = str(self.catalog_path)
        out = self.workdir
        density = ["density", "--catalog", cat, "--shape-id", self.shape_id, "--grid", GRID]
        coulomb = ["coulomb", "--catalog", cat, "--grade"]
        return [
            self._cli(density + ["--out", str(out / "rho1.csv")]),
            self._cli(density + ["--two-particle-cut", "--out", str(out / "rho2.csv")]),
            self._cli(coulomb + ["7", "--out", str(out / "vee7.csv")]),
            self._cli(coulomb + ["5", "--pairwise", "--out", str(out / "vee5.csv")]),
        ]

    @staticmethod
    def _cli(argv):
        def call():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = shapes.cli.main(argv)
            if code != 0:
                raise CheckFailed(f"shapes {argv[0]} exited {code}: {err.getvalue().strip()}")

        return call

    def check(self, op, result):
        out = self.workdir
        if op == "density":
            meta = self._density_output(out / "rho1.csv")
            if abs(meta["riemann_integral"] - self.n) > DENSITY_ABS_TOL:
                raise CheckFailed(f"density integrates to {meta['riemann_integral']}, not {self.n}")
        elif op == "pair_density":
            meta = self._density_output(out / "rho2.csv")
            ref = REFERENCE["pair_cut_integral"]
            if abs(meta["riemann_integral"] - ref) > REL_TOL * ref:
                raise CheckFailed(f"pair cut integrates to {meta['riemann_integral']}, not {ref}")
        elif op == "coulomb_diag":
            self._compare_table(out / "vee7.csv", REFERENCE["coulomb_grade7_diagonal"])
        else:
            self._compare_table(out / "vee5.csv", REFERENCE["coulomb_grade5_pairwise"])

    @staticmethod
    def _density_output(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != 1 + 61 * 61 or not all(float(r[-1]) >= 0 for r in rows[1:]):
            raise CheckFailed(f"{path.name}: expected 3721 non-negative samples")
        return json.loads(Path(str(path) + ".json").read_text())

    @staticmethod
    def _compare_table(path, ref):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ref["header"] or [r[0] for r in rows[1:]] != ref["labels"]:
            raise CheckFailed(f"{path.name}: labels differ from the reference")
        values = [[float(v) for v in r[1:]] for r in rows[1:]]
        scale = max(abs(v) for r in ref["values"] for v in r)
        for got, want in zip(values, ref["values"]):
            if len(got) != len(want) or any(
                abs(a - b) > REL_TOL * scale for a, b in zip(got, want)
            ):
                raise CheckFailed(f"{path.name}: values differ from the reference")


WORKLOADS = {
    w.name: w
    for w in (
        Generate("gen-3x3-fermion", 3, 3, "fermion"),
        Generate("gen-4x2-boson", 4, 2, "boson", max_grade=10),
        Realize(),
    )
}


def calibration_kernel():
    """Fixed pure-Python work shaped like the package's inner loops.

    Tuple-keyed dicts accumulating Fractions: 0.15-0.35 s on a shared
    2-vCPU Xeon VM, in a working set of a few MB so that it adds little to
    the pass's peak RSS.  It touches nothing in ``shapes``, so no change to
    the package can change its time; only the speed of the host can.
    """
    total = 0
    for _ in range(6):
        terms = {}
        for i in range(10_000):
            key = (i % 101, i % 103, i % 107, i)
            terms[key] = terms.get(key, 0) + Fraction(i % 13, 1 + i % 7)
        total += len(terms)
    return total


# Times are reported as seconds on a host where the calibration kernel
# takes this long, and the raw seconds alongside.
CAL_REFERENCE_S = 0.25


def calibrate():
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def clear_caches():
    """Empty every lru_cache held at module level in the shapes package."""
    for name, module in list(sys.modules.items()):
        if name == "shapes" or name.startswith("shapes."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(workload, workdir, seed, trace, spawned):
    """Set up, time the operations, check them; return the result record."""
    try:
        workload.setup(workdir, seed)
        operations = workload.operations()
    except Exception as exc:  # a failed set-up fails every operation
        error = f"set-up: {type(exc).__name__}: {exc}"
        return {"ops": [{"name": name, "s": None, "error": error} for name in workload.ops]}
    clear_caches()
    gc.collect()
    setup_s = time.monotonic() - spawned
    # Untraced, the calibration kernel runs before, between and after the
    # operations, and each operation is scaled by the mean of the two
    # calibrations around it; set-up is scaled by the first.  Traced passes
    # calibrate only at the two ends, so the root span holds only operations.
    cals = [calibrate()]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        tracer.begin(ROOT_SPAN)
    ops, outcomes = [], []
    for name, call in zip(workload.ops, operations):
        if ops and not tracer:
            cals.append(calibrate())
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            outcomes.append((call(), None))
        except Exception as exc:
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
        ops.append({
            "name": name,
            "s": time.perf_counter() - start,
            "cpu_s": time.process_time() - cpu_start,
        })
    if tracer:
        tracer.end()
        tracer.uninstall()
    cals.append(calibrate())
    around = (
        [(cals[0] + cals[-1]) / 2] * len(ops) if tracer
        else [(a + b) / 2 for a, b in zip(cals, cals[1:])]
    )

    for op, (value, error) in zip(ops, outcomes):
        if error is None:
            try:
                workload.check(op["name"], value)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        op["error"] = error
    return {
        "setup_s": setup_s * CAL_REFERENCE_S / cals[0],
        "wall_ref_s": sum(op["s"] * CAL_REFERENCE_S / cal for op, cal in zip(ops, around)),
        "setup_raw_s": setup_s,
        "wall_s": sum(op["s"] for op in ops),
        "cpu_s": sum(op["cpu_s"] for op in ops),
        "cal_s": statistics.median(cals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "layers": layer_metrics(tracer) if tracer else None,
        "span_calls": (
            {name: row["calls"] for name, row in summarize(tracer.spans).items()}
            if tracer else None
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument(
        "--spawned", type=float, required=True,
        help="time.monotonic() of the parent just before it started this process",
    )
    args = parser.parse_args(argv)
    if not Path(shapes.__file__).resolve().is_relative_to(SRC):
        print(f"imported shapes from {shapes.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = run_pass(
        WORKLOADS[args.workload], Path(args.workdir), args.seed, args.trace, args.spawned
    )
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
