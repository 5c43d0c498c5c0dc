"""Command-line entry point.

Subcommands: poly, generate, deflate, schur, density, coulomb, verify.
All outputs are deterministic; exit status 0 on full success, 2 on invalid
arguments, 3 on an internal-consistency failure (the failed assertion is
named on stderr), 4 when verify skipped a check and none failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import cache

from .counting import (
    Statistics,
    FERMION,
    level_dimension,
    shape_polynomial,
    total_shape_count,
)
from .deflation import LevelBasis, StateVector, deflate_sparse
from .errors import InternalConsistencyError, StateCapExceeded
from .polycore import ExactPolynomial, enumerate_basis, format_fraction
from .realize import (
    Realization,
    one_particle_density,
    parse_grid,
    two_particle_density_cut,
)
from .products import trivial_products
from .schur import Partition, schur_ratio, schur_ssyt
from .shapegen import (
    ShapeCatalog,
    check_state_cap,
    default_state_cap,
    generate_shapes,
    verify_span,
)

FORMAT_VERSION = "1"


@cache
def build_parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="shapes",
        description=(
            "Exact shape generators, Euler-boson counting, densities and "
            "Coulomb tables for N identical particles in d dimensions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print a shape polynomial")
    _add_system_args(p)
    p.add_argument("--out", help="write JSON {lowest, coeffs} to this path")

    p = sub.add_parser("generate", help="generate a shape catalog")
    _add_system_args(p)
    p.add_argument("--max-grade", type=int, default=None)
    p.add_argument("--state-cap", type=int, default=None)
    p.add_argument("--out", required=True, help="catalog JSON path")

    p = sub.add_parser("deflate", help="expand a polynomial over a level basis")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--grade", type=int, required=True)
    p.add_argument("--stat", default="fermion", choices=["fermion", "boson"])
    p.add_argument("--n", type=int, help="cross-check against the file's particle count")
    p.add_argument("--d", type=int, help="cross-check against the file's dimension")
    p.add_argument("--out", help="write the coefficient vector JSON here")

    p = sub.add_parser("schur", help="print a Schur polynomial")
    p.add_argument("--partition", required=True, help='comma list, e.g. "2,1"')
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument(
        "--route",
        default="ssyt",
        choices=["ssyt", "ratio"],
        help="tableau generation or determinant ratio",
    )
    p.add_argument("--out", help="write canonical polynomial JSON here")

    p = sub.add_parser("density", help="sample a density on a grid")
    p.add_argument("--catalog", required=True)
    p.add_argument("--shape-id", required=True, help="grade:index, e.g. 3:0")
    p.add_argument("--length-scale", type=float, default=1.0)
    p.add_argument("--grid", required=True, help='e.g. "x:-4:4:81,y:-4:4:81"')
    p.add_argument(
        "--two-particle-cut",
        action="store_true",
        help="diagonal two-particle cut instead of the one-particle density",
    )
    p.add_argument("--out", required=True, help="CSV output path (+ .json sidecar)")

    p = sub.add_parser(
        "coulomb", help="Coulomb expectations among shapes and trivial states"
    )
    p.add_argument("--catalog", required=True)
    p.add_argument("--grade", type=int, required=True)
    p.add_argument(
        "--pairwise",
        action="store_true",
        help="emit the full matrix instead of the diagonal only",
    )
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("verify", help="run the invariant suite for one system")
    _add_system_args(p, stat_default="both")
    p.add_argument("--state-cap", type=int, default=None)

    return parser


def _add_system_args(p, stat_default="fermion"):
    p.add_argument("--n", type=int, required=True, help="particle count")
    p.add_argument("--d", type=int, required=True, help="space dimension")
    choices = ["fermion", "boson"]
    if stat_default == "both":
        choices.append("both")
    p.add_argument("--stat", default=stat_default, choices=choices)


def _validate_system(parser, args):
    if args.n is not None and args.n < 1:
        parser.error("--n must be at least 1")
    if args.d is not None and args.d < 1:
        parser.error("--d must be at least 1")


def cmd_poly(args):
    poly = shape_polynomial(args.n, args.d, Statistics.parse(args.stat))
    print(poly)
    if args.out:
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": "shape_polynomial",
            "n": args.n,
            "d": args.d,
            "statistics": args.stat,
        }
        payload.update(poly.to_json_obj())
        _write_json(args.out, payload)
    return 0


def cmd_generate(args):
    catalog = generate_shapes(
        args.n,
        args.d,
        Statistics.parse(args.stat),
        max_grade=args.max_grade,
        state_cap=args.state_cap,
    )
    _write_json(args.out, catalog.to_json_obj())
    print(
        f"wrote {catalog.total_count} shapes "
        f"(expected total {total_shape_count(args.n, args.d)}) to {args.out}"
    )
    return 0


def cmd_deflate(args):
    with open(args.poly) as fh:
        poly = ExactPolynomial.from_json_obj(json.load(fh))
    if args.n is not None and args.n != poly.n:
        raise ValueError(f"--n {args.n} does not match the file's n={poly.n}")
    if args.d is not None and args.d != poly.d:
        raise ValueError(f"--d {args.d} does not match the file's d={poly.d}")
    basis = LevelBasis(
        poly.n, poly.d, args.grade, Statistics.parse(args.stat),
        max_states=default_state_cap(),
    )
    vector = deflate_sparse(poly, basis)
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "deflation_vector",
        "n": poly.n,
        "d": poly.d,
        "grade": args.grade,
        "statistics": args.stat,
        "coeffs": [format_fraction(vector.get(i, 0)) for i in range(len(basis))],
    }
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_schur(args):
    parts = tuple(int(p) for p in args.partition.split(",") if p.strip())
    partition = Partition(parts)
    fn = schur_ssyt if args.route == "ssyt" else schur_ratio
    poly = fn(partition, args.nvars)
    print(poly)
    if args.out:
        payload = {"format_version": FORMAT_VERSION, "kind": "polynomial"}
        payload.update(poly.to_json_obj())
        _write_json(args.out, payload)
    return 0


def cmd_density(args):
    axes = parse_grid(args.grid)
    catalog = _load_catalog(args.catalog)
    samples = math.prod(axis.count for axis in axes)
    if samples > catalog.state_cap:
        raise ValueError(
            f"--grid has {samples} samples, above the state cap {catalog.state_cap}"
        )
    shape = catalog.find(args.shape_id)
    state = StateVector(catalog.level_basis(shape.grade), shape.coeffs)
    density = two_particle_density_cut if args.two_particle_cut else one_particle_density
    grid = density(state, Realization(args.length_scale), axes)
    grid.write_csv(args.out)
    grid.write_metadata(args.out + ".json")
    print(
        f"wrote {grid.values.size} samples to {args.out} "
        f"(riemann integral {grid.riemann_integral():.9g})"
    )
    return 0


def cmd_coulomb(args):
    from .coulomb import coulomb_table

    catalog = _load_catalog(args.catalog)
    if args.grade > catalog.max_grade and not catalog.is_complete():
        raise ValueError(
            f"--grade {args.grade} is above the catalog's max_grade {catalog.max_grade} "
            f"and the catalog is incomplete: shapes above grade {catalog.max_grade} are missing"
        )
    basis = catalog.level_basis(args.grade)
    # The shapes and products of a grade span its level freely: V = dim.
    cells = len(basis) ** 2
    if args.pairwise and cells > catalog.state_cap:
        raise ValueError(
            f"--pairwise table at grade {args.grade} has {len(basis)} vectors, "
            f"{cells} cells, above the state cap {catalog.state_cap}"
        )
    labels = []
    vectors = []
    for rec in catalog.shapes_at(args.grade):
        labels.append(f"shape {rec.id}")
        vectors.append(rec.coeffs)
    for rec, euler, vec in trivial_products(catalog, args.grade):
        if rec.grade < args.grade:
            labels.append(f"{euler.label()}*{rec.id}")
            vectors.append(vec)
    # One contraction for the table; <a|V|b> = <b|V|a> exactly, so a
    # pairwise table holds the upper triangle and mirrors it.
    table = coulomb_table(vectors, basis, args.pairwise)
    table = {cell: f"{value:.12e}" for cell, value in table.items()}
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        if args.pairwise:
            writer.writerow(["state"] + labels)
            for i, la in enumerate(labels):
                writer.writerow([la] + [table[min(i, j), max(i, j)] for j in range(len(labels))])
        else:
            writer.writerow(["state", "vee"])
            for i, la in enumerate(labels):
                writer.writerow([la, table[i, i]])
    print(f"wrote Coulomb table for {len(labels)} states to {args.out}")
    return 0


def cmd_verify(args):
    stats = (
        [FERMION, Statistics.BOSON]
        if args.stat == "both"
        else [Statistics.parse(args.stat)]
    )
    cap = (
        default_state_cap()
        if args.state_cap is None
        else check_state_cap(args.state_cap, "--state-cap")
    )
    failures = skipped = 0
    for stat in stats:
        failed, skips = _verify_one(args.n, args.d, stat, cap)
        failures += failed
        skipped += skips
    if failures:
        print(f"verify: FAIL ({failures} checks)")
        return 3
    if skipped:
        print(f"verify: INCOMPLETE ({skipped} skipped)")
        return 4
    print("verify: PASS")
    return 0


def _verify_one(n, d, stat, cap):
    """Run the checks for one statistics; return (failed, skipped) counts."""
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}

    def emit(tag, name, detail=""):
        counts[tag] += 1
        suffix = f"  {detail}" if detail else ""
        print(f"{tag}  [{stat.value}] {name}{suffix}")

    def report(name, ok, detail=""):
        emit("PASS" if ok else "FAIL", name, detail)

    poly = shape_polynomial(n, d, stat)
    report(
        "saturation",
        poly.evaluate_at_one() == total_shape_count(n, d),
        f"P(1)={poly.evaluate_at_one()}",
    )
    if d % 2 == 0:
        report("palindrome", poly.is_palindromic())
    else:
        mirror = shape_polynomial(
            n, d, Statistics.BOSON if stat is FERMION else FERMION
        )
        _, own = poly.coefficient_list()
        _, other = mirror.coefficient_list()
        report("mirror", own == other[::-1])
    top = poly.degree()
    for grade in range(0, top + 1):
        expected = level_dimension(n, d, grade, stat)
        if expected > cap:
            emit("SKIP", f"enumeration grade {grade}", f"{expected} states exceed the state cap {cap}")
            continue
        count = len(enumerate_basis(n, d, grade, stat))
        report(
            f"enumeration grade {grade}",
            count == expected,
            f"{count} states",
        )
    try:
        catalog = generate_shapes(n, d, stat, state_cap=cap)
        report(
            "count law",
            catalog.total_count == total_shape_count(n, d),
            f"{catalog.total_count} shapes",
        )
        for grade in range(poly.lowest_degree(), top + 1):
            found = len(catalog.shapes_at(grade))
            report(
                f"per-grade law grade {grade}",
                found == poly.coefficient(grade),
                f"{found} shapes",
            )
        probe = catalog.shapes[-1]
        basis = catalog.level_basis(probe.grade)
        report(
            "deflation round trip",
            deflate_sparse(basis.materialize(probe.coeffs), basis) == probe.coeffs,
        )
        for grade in range(poly.lowest_degree(), top + 1):
            rep = verify_span(catalog, grade)
            report(f"span grade {grade}", rep.passed, str(rep))
    except StateCapExceeded as exc:
        emit("SKIP", "catalog checks", str(exc))
    return counts["FAIL"], counts["SKIP"]


def _load_catalog(path):
    with open(path) as fh:
        return ShapeCatalog.from_json_obj(json.load(fh))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


COMMANDS = {
    "poly": cmd_poly,
    "generate": cmd_generate,
    "deflate": cmd_deflate,
    "schur": cmd_schur,
    "density": cmd_density,
    "coulomb": cmd_coulomb,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "n"):
        _validate_system(parser, args)
    try:
        return COMMANDS[args.command](args)
    except (InternalConsistencyError, StateCapExceeded) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, ValueError, KeyError, json.JSONDecodeError) as exc:
        # str of a KeyError is the repr of its argument; print the message bare.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
