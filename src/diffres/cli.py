"""Command-line surface.

Verbs: gen, sets, build, carra-ferro, certificate, det, lp-partition,
moves, oracle, check, export.  Every command is deterministic given its
flags and seed.  Exit codes: 0 success, 1 check failure, 2 usage error
(argparse's convention), 3 internal invariant violation.

An optional JSON config file supplies lifting/perturbation defaults:

    {"liftings": [7, -4, -5, 5, -9, 5, 6, 2, 1, 8, 4, 7],
     "delta": ["1/100", "1/100", "1/100"]}

Flags override the config.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence

from .certificate import certify
from .determinant import (SIGN_NOTE, SYMBOLIC_CAP_DEFAULT,
                          common_zero_specialization, det_modular,
                          det_specialized, det_symbolic, random_specialization)
from .diffsys import (SystemSpec, YMonomial, delta, generic_system,
                      system_symbols, ym_render)
from .errors import CapExceeded, DiffresError, IllegalMove
from .matrices import (build_carra_ferro, build_sparse_matrix,
                       build_square_matrix, zero_columns)
from .monomials import (closed_form_sets, column_set, default_main_monomials,
                        partition_divisibility)
from .oracle import eliminate_iterated
from .output import dumps
from .sympoly import Specialization, parse_rational


def _spec(args) -> SystemSpec:
    return SystemSpec(args.d1, args.d2).validate()


def _read_json(path: str, kind: type, what: str):
    """A JSON file's content, which must be of the given type (a ValueError,
    so exit code 2, otherwise).  Numbers with a fraction or exponent are
    read exactly, as Fractions."""
    with open(path) as fh:
        data = json.load(fh, parse_float=parse_rational)
    if not isinstance(data, kind):
        raise ValueError(f"{path}: {what} must hold a JSON "
                         f"{'object' if kind is dict else 'list'}")
    return data


def _ints(values, count: int, what: str) -> tuple:
    # a boolean, a string or a fraction such as 7.9 is not an integer here
    if not (isinstance(values, (list, tuple)) and len(values) == count
            and all(isinstance(v, (int, Fraction)) and not isinstance(v, bool)
                    and v.denominator == 1 for v in values)):
        raise ValueError(f"{what}: expected {count} integers, got {values!r}")
    return tuple(map(int, values))


def _move(entry) -> tuple:
    if not isinstance(entry, dict) or not {"monomial", "from", "to"} <= entry.keys():
        raise ValueError(f'a move needs "monomial", "from" and "to": {entry!r}')
    src, dst = _ints((entry["from"], entry["to"]), 2, "move blocks")
    if not {src, dst} <= {1, 2, 3, 4}:
        raise ValueError(f"a move's blocks must lie in 1..4: {entry!r}")
    return YMonomial(*_ints(entry["monomial"], 3, "move monomial")), src, dst


def _rationals(values, what: str) -> tuple:
    # a string is not read as a list; `parse_rational` refuses a boolean
    try:
        out = (tuple(map(parse_rational, values))
               if isinstance(values, (list, tuple)) else ())
    except (TypeError, ZeroDivisionError, OverflowError):
        out = ()
    if len(out) != 3:
        raise ValueError(f"{what}: expected 3 rationals, got {values!r}")
    return out


def _lp_inputs(args) -> tuple:
    """The liftings and the perturbation of `lp-partition` and `moves`, each
    from its flags, else from the --config file, else the default."""
    from .lattice import DEFAULT_PERTURBATION
    from .sparse import DEFAULT_LIFTINGS, Liftings
    config = _read_json(args.config, dict, "a config file") if args.config else {}
    lift, values = DEFAULT_LIFTINGS, args.liftings or config.get("liftings")
    if values is not None:
        v = _ints(values, 12, "liftings")
        lift = Liftings(v[:3], v[3:6], v[6:9], v[9:])
    values = args.delta or config.get("delta")
    return lift, DEFAULT_PERTURBATION if values is None else _rationals(values, "delta")


def _load_specialization(path: str, spec: SystemSpec) -> Specialization:
    data = _read_json(path, dict, "a specialization file")
    return Specialization.from_json(data, system_symbols(spec))


def _write(pieces: Iterable[str], args, end: str = "\n") -> None:
    """Write a document, given in pieces, to the --out file (then print
    `wrote PATH`) or to stdout followed by `end`."""
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.writelines(pieces)
        print(f"wrote {args.out}")
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.write(end)


def _emit(payload: dict, args) -> None:
    _write([dumps(payload)], args)


def _emit_matrix(matrix, args, **extra) -> None:
    _write(matrix.json_pieces(extra), args)


def _eq1_legend(degree: int, system: str) -> List[str]:
    """Positional coefficient names, highest degree then highest y1 first."""
    monos = [(k, l) for k in range(degree + 1) for l in range(degree - k + 1)]
    monos.sort(key=lambda kl: (-(kl[0] + kl[1]), -kl[1]))
    return [f"{system}{i} = {system}({k},{l})" for i, (k, l) in enumerate(monos)]


def cmd_gen(args) -> int:
    spec = _spec(args)
    f1, f2 = generic_system(spec)
    payload = {"spec": [spec.d1, spec.d2],
               "f1": f1.to_json(), "f2": f2.to_json(),
               "df1": delta(f1).to_json(), "df2": delta(f2).to_json()}
    if args.legend:
        payload["legend"] = (_eq1_legend(spec.d1, "a")
                             + _eq1_legend(spec.d2, "b"))
    _emit(payload, args)
    return 0


def cmd_sets(args) -> int:
    spec = _spec(args)
    E = column_set(spec)
    mm = default_main_monomials(spec)
    part = partition_divisibility(E, mm)
    m1, m2, t1, t2 = closed_form_sets(spec)
    payload = {
        "spec": [spec.d1, spec.d2], "D": spec.D, "N": spec.N,
        "columns": E.to_json(),
        "main_monomials": [ym_render(m) for m in mm.as_tuple()],
        "partition": part.to_json(),
        "multiplier_sets": [s.to_json() for s in (m1, m2, t1, t2)],
    }
    _emit(payload, args)
    return 0


def cmd_build(args) -> int:
    spec = _spec(args)
    matrix = build_square_matrix(spec)
    _emit_matrix(matrix, args, spec=[spec.d1, spec.d2])
    return 0


def cmd_carra_ferro(args) -> int:
    matrix = build_carra_ferro(args.d1, args.d2, args.n, args.m)
    _emit_matrix(matrix, args,
                 zero_columns=[ym_render(c) for c in zero_columns(matrix)])
    return 0


def cmd_certificate(args) -> int:
    spec = _spec(args)
    _, cert = certify(spec)
    payload = {
        "spec": [spec.d1, spec.d2],
        "counts": list(cert.counts),
        "unique_monomial": " * ".join(
            f"{sym.render()}^{e}" for sym, e in cert.unique_monomial),
        "coefficient": str(cert.coefficient),
        "sign": cert.sign,
        "steps": [{
            "symbol": step.symbol.render(),
            "block": step.block,
            "rows": len(step.deleted_rows),
            "columns": [ym_render(c) for c in step.deleted_cols],
        } for step in cert.steps],
    }
    _emit(payload, args)
    return 0


DEFAULT_MODULI = ("2147483647", "2147483629")


def cmd_det(args) -> int:
    spec = _spec(args)
    if args.mode == "symbolic" and (args.spec_file or args.common_zero):
        raise ValueError("--mode symbolic takes no --spec-file or --common-zero")
    if args.mode != "modular" and args.moduli is not None:
        raise ValueError(f"--mode {args.mode} takes no --moduli")
    if args.mode != "symbolic" and args.cap is not None:
        raise ValueError(f"--mode {args.mode} takes no --cap")
    if args.spec_file and args.common_zero:
        raise ValueError("--spec-file and --common-zero exclude each other")
    matrix = build_square_matrix(spec)
    if args.mode == "symbolic":
        cap = SYMBOLIC_CAP_DEFAULT if args.cap is None else args.cap
        try:
            value = det_symbolic(matrix, cap=cap)
        except CapExceeded as exc:
            raise ValueError(f"--cap {cap}: {exc}") from exc
        payload = {"mode": "Symbolic", "value": value.render(),
                   "sign_convention": SIGN_NOTE}
    else:
        if args.spec_file:
            s = _load_specialization(args.spec_file, spec)
        elif args.common_zero:
            point = _rationals(args.common_zero, "common zero")
            s = common_zero_specialization(spec, point, rng_seed=args.seed)
        else:
            s = random_specialization(spec, args.seed)
        if args.mode == "specialized":
            value = det_specialized(matrix, s)
            payload = {"mode": "SpecializedExact", "value": str(value),
                       "sign_convention": SIGN_NOTE}
        else:
            moduli = [int(p) for p in args.moduli or DEFAULT_MODULI]
            residues, bound, lifted = det_modular(matrix, s, moduli)
            payload = {"mode": "Modular", "moduli": moduli,
                       "residues": residues,
                       "crt": None if lifted is None else str(lifted)}
            if lifted is None:
                payload["crt_note"] = (
                    "moduli insufficient: their product does not exceed "
                    f"twice the Hadamard bound {bound}")
    _emit(payload, args)
    return 0


def cmd_lp_partition(args) -> int:
    from .sparse import grc_partition, validate_liftings
    spec = _spec(args)
    lift, delta_vec = _lp_inputs(args)
    report = validate_liftings(lift)
    result = grc_partition(spec, lift, delta_vec)
    payload = {
        "spec": [spec.d1, spec.d2],
        "liftings": [list(v) for v in lift.as_tuple()],
        "delta": [str(d) for d in delta_vec],
        "lifting_report": {"passed": report.passed,
                           "violations": list(report.violations),
                           "degenerate": list(report.degenerate)},
        "partition": result.partition.to_json(),
        "points": [{
            "point": list(q),
            "grc": [a.case, a.vertex_index],
            "basis": a.basis_id,
            "lambda": [str(v) for v in a.lam],
        } for q, a in sorted(result.assignments.items())],
    }
    _emit(payload, args)
    return 0


def cmd_moves(args) -> int:
    from .sparse import apply_moves, grc_partition, moves_to_divisibility
    spec = _spec(args)
    lift, delta_vec = _lp_inputs(args)
    moves = ([_move(m) for m in _read_json(args.moves_file, list, "a moves file")]
             if args.moves_file else None)
    result = grc_partition(spec, lift, delta_vec)
    if moves is None:
        moves = moves_to_divisibility(result.partition, spec)
    try:
        moved = apply_moves(result.partition, moves, spec)
    except IllegalMove as exc:
        raise ValueError(f"{args.moves_file or 'derived moves'}: {exc}") from None
    matrix = build_sparse_matrix(moved, spec)
    payload = {"before": result.partition.to_json(),
               "after": moved.to_json(),
               "matrix_shape": [matrix.nrows, matrix.ncols]}
    _emit(payload, args)
    return 0


def cmd_oracle(args) -> int:
    spec = _spec(args)
    candidate = eliminate_iterated(spec)
    payload = {"spec": [spec.d1, spec.d2],
               "terms": len(candidate),
               "degree": candidate.total_degree(),
               "polynomial": candidate.render() if args.full else None}
    _emit(payload, args)
    return 0


def cmd_check(args) -> int:
    from .checks import run_checks
    reports = run_checks(args.suite, seed=args.seed)
    for report in reports:
        print(report.line())
        if args.verbose and report.witness:
            print(f"       {json.dumps(report.witness, default=str)}")
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def cmd_export(args) -> int:
    spec = _spec(args)
    if args.format == "csv" and not args.spec_file:
        raise ValueError("csv export needs --spec-file (numeric entries only)")
    if args.what == "matrix":
        matrix = build_square_matrix(spec)
    else:
        matrix = build_carra_ferro(spec.d1, spec.d2, 1, 1)
    if args.format == "json":
        _emit_matrix(matrix, args)
        return 0
    _write([matrix.to_csv(_load_specialization(args.spec_file, spec))], args, end="")
    return 0


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d1", type=int, required=True)
    parser.add_argument("--d2", type=int, required=True)
    parser.add_argument("--out", help="write JSON here instead of stdout")


def _add_lp_args(parser: argparse.ArgumentParser) -> None:
    # the flags `_lp_inputs` reads
    parser.add_argument("--liftings", nargs=12, type=int, metavar="L",
                        help="the four lifting vectors, twelve integers")
    parser.add_argument("--delta", nargs=3, metavar="D",
                        help="perturbation components, exact rationals")
    parser.add_argument("--config", help="JSON file with lifting/delta defaults")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls:
    parsing leaves it unchanged, and each `add_argument` costs a formatter."""
    parser = argparse.ArgumentParser(
        prog="diffres",
        description="Matrix constructions for first-order generic "
                    "differential systems, with exact verification tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print the generic system and derivatives")
    _add_spec_args(p)
    p.add_argument("--legend", action="store_true",
                   help="positional coefficient names for the degree shown")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("sets", help="column set, main monomials, partition")
    _add_spec_args(p)
    p.set_defaults(fn=cmd_sets)

    p = sub.add_parser("build", help="build the square matrix")
    _add_spec_args(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("carra-ferro", help="build the rectangular matrix")
    _add_spec_args(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(fn=cmd_carra_ferro)

    p = sub.add_parser("certificate",
                       help="run the nonsingularity certificate")
    _add_spec_args(p)
    p.set_defaults(fn=cmd_certificate)

    p = sub.add_parser("det", help="determinant in one of three exact modes")
    _add_spec_args(p)
    p.add_argument("--mode", choices=["symbolic", "specialized", "modular"],
                   default="specialized")
    p.add_argument("--cap", type=int,
                   help="size cap for the symbolic mode (default "
                        f"{SYMBOLIC_CAP_DEFAULT})")
    p.add_argument("--spec-file", help="JSON symbol-to-rational map")
    p.add_argument("--common-zero", nargs=3, metavar=("Y", "Y1", "Y2"),
                   help="build a common-zero specialization at this point")
    # argparse takes "-3/4" for an option unless it reads as a negative number
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--moduli", nargs="+",
                   help="primes for the modular mode (default "
                        f"{' '.join(DEFAULT_MODULI)})")
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("lp-partition",
                       help="partition the columns via exact LPs")
    _add_spec_args(p)
    _add_lp_args(p)
    p.set_defaults(fn=cmd_lp_partition)

    p = sub.add_parser("moves", help="apply partition moves and rebuild")
    _add_spec_args(p)
    p.add_argument("--moves-file",
                   help='JSON list of {"monomial": [e,e,e], "from": i, "to": j} '
                        '(default: the moves to the divisibility partition)')
    _add_lp_args(p)
    p.set_defaults(fn=cmd_moves)

    p = sub.add_parser("oracle", help="iterated-resultant elimination")
    _add_spec_args(p)
    p.add_argument("--full", action="store_true",
                   help="include the full polynomial text")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("--suite", default="all",
                   help="a suite name, or all (the default) for every suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("export", help="JSON or CSV matrix export")
    _add_spec_args(p)
    p.add_argument("--what", choices=["matrix", "carra-ferro"],
                   default="matrix")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--spec-file", help="specialization for numeric CSV")
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DiffresError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
