"""The three workloads: their inputs, their ops and the checks of each output.

A workload is built from the imported package (`dr`, a namespace of its
modules), the seed and the run length.  `setup()` makes every input the run
needs and returns the ops; `run(op)` is the timed call into the program;
`check(op, output)` runs afterwards and raises `CheckFailed` on a wrong
output.  The op set depends only on the seed and the run length, never on
how fast the machine is, so `wall_s` compares like with like.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

import refcheck
from refcheck import expect


class Op(NamedTuple):
    kind: str
    spec: Tuple[int, int]
    data: object


def _rounds(seconds: float, round_seconds: float) -> int:
    return max(1, round(seconds / round_seconds))


def _rational_point(rng: random.Random) -> Tuple[Fraction, ...]:
    """Three nonzero non-integer rationals with random signs."""
    coords = []
    while len(coords) < 3:
        v = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
        if v.denominator != 1:
            coords.append(v)
    return tuple(coords)


# --- det-sweep ---------------------------------------------------------------

class DetSweep:
    """`det_specialized` on the (2,3) and (3,3) square matrices.

    One round is ten (2,3) ops and four (3,3) ops, half random integer and
    half common-zero specializations; each op draws its own.  By count the
    (2,3) ops are the majority, so the median op is a (2,3) determinant; by
    time the (3,3) ops dominate.
    """

    name = "det-sweep"
    ROUND = {(2, 3): 10, (3, 3): 4}
    ROUND_SECONDS = 3.5

    def __init__(self, dr, seed: int, seconds: float):
        self.dr, self.seed, self.seconds = dr, seed, seconds
        self._parsed: Dict[Tuple[int, int], list] = {}

    def setup(self) -> List[Op]:
        det = self.dr.determinant
        rng = random.Random(f"{self.name}:{self.seed}")
        self.matrices = {d: self.dr.matrices.build_square_matrix(d)
                         for d in self.ROUND}
        ops = []
        for _ in range(_rounds(self.seconds, self.ROUND_SECONDS)):
            for d, count in self.ROUND.items():
                for k in range(count):
                    if k % 2:
                        s = det.common_zero_specialization(
                            d, _rational_point(rng), rng_seed=rng.getrandbits(62))
                        ops.append(Op("common-zero", d, s))
                    else:
                        s = det.random_specialization(d, rng.getrandbits(62))
                        ops.append(Op("random", d, s))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        return self.dr.determinant.det_specialized(self.matrices[op.spec], op.data)

    def check(self, op: Op, value) -> None:
        expect(isinstance(value, Fraction), f"det is a {type(value).__name__}")
        if op.kind == "common-zero":
            expect(value == 0, f"{op.spec}: common-zero determinant is {value}")
            return
        expect(value != 0, f"{op.spec}: random determinant vanished")
        expect(value.denominator == 1, f"{op.spec}: integer matrix, det {value}")
        entries = self._entries(op.spec)
        values = {k: Fraction(v) for k, v in op.data.to_json().items()}
        n = refcheck.square_size(*op.spec)
        for p in refcheck.PRIMES:
            vals = {k: refcheck.residue(v, p) for k, v in values.items()}
            rows = [[0] * n for _ in range(n)]
            for i, j, terms in entries:
                rows[i][j] = refcheck.eval_poly_mod(terms, vals, p)
            expect(refcheck.residue(value, p) == refcheck.det_mod_p(rows, p),
                   f"{op.spec}: det differs from the elimination mod {p}")

    def _entries(self, spec) -> list:
        """The matrix from its JSON export, parsed once per degree pair."""
        if spec not in self._parsed:
            exported = self.matrices[spec].to_json()
            n = refcheck.square_size(*spec)
            expect(exported["shape"] == [n, n], f"{spec}: shape {exported['shape']}")
            self._parsed[spec] = [(i, j, refcheck.parse_poly(text))
                                  for i, j, text in exported["entries"]]
        return self._parsed[spec]


# --- lp-partition ------------------------------------------------------------

DELTA = (Fraction(1, 100),) * 3


def draw_liftings(rng: random.Random) -> Tuple[Tuple[int, int, int], ...]:
    """Integer heights meeting the merged optimality constraints by construction.

    The constraints are the chains L21 <= L31 <= L11 <= L41 and
    L22 <= L12 <= L32 <= L42, L13 <= L23, L11 - L12 - L21 + L22 <= 0 and
    L31 = L32 + L41 - L42; each height is drawn inside the interval the
    earlier ones leave, so no draw is rejected.
    """
    r = rng.randint
    l32, l41 = r(-8, 8), r(-8, 8)
    l42 = l32 + r(0, 6)
    l31 = l32 + l41 - l42
    l11 = r(l31, l41)
    l21 = l31 - r(0, 6)
    l12 = l32 - r(0, 6)
    l22 = l12 - (l11 - l21) - r(0, 6)
    l13 = r(-8, 8)
    l23 = l13 + r(0, 6)
    return ((l11, l12, l13), (l21, l22, l23), (l31, l32, r(-8, 8)),
            (l41, l42, r(-8, 8)))


class LpPartition:
    """`grc_partition` at (1,2), (2,2) and (2,3), each op with its own liftings.

    One round is eight (1,2) ops, two (2,2) ops and one (2,3) op.  The
    median op is a (1,2) op: one (1,2) op varies by a tenth or more from
    the host alone, so the median rests on eight of them rather than on the
    single middle op of a handful.  By time the (2,2) and (2,3) ops are
    three fifths of the run.  The first (2,2) op of the run uses the
    default liftings, which pins the partition sizes and the moves to the
    divisibility partition.
    """

    name = "lp-partition"
    ROUND = {(1, 2): 8, (2, 2): 2, (2, 3): 1}
    ROUND_SECONDS = 31.0

    def __init__(self, dr, seed: int, seconds: float):
        self.dr, self.seed, self.seconds = dr, seed, seconds

    def setup(self) -> List[Op]:
        sparse = self.dr.sparse
        rng = random.Random(f"{self.name}:{self.seed}")
        default = sparse.DEFAULT_LIFTINGS
        seen = {default.as_tuple()}
        ops = []
        for _ in range(_rounds(self.seconds, self.ROUND_SECONDS)):
            for d, count in self.ROUND.items():
                for _ in range(count):
                    if d == (2, 2) and not any(op.data is default for op in ops):
                        ops.append(Op("default", d, default))
                        continue
                    heights = draw_liftings(rng)
                    while heights in seen:
                        heights = draw_liftings(rng)
                    seen.add(heights)
                    lift = sparse.Liftings(*heights)
                    if not sparse.validate_liftings(lift).passed:
                        raise RuntimeError(f"drawn liftings {heights} rejected")
                    ops.append(Op("drawn", d, lift))
        return ops

    def run(self, op: Op):
        return self.dr.sparse.grc_partition(op.spec, op.data, DELTA)

    def check(self, op: Op, result) -> None:
        d1, d2 = op.spec
        columns = refcheck.column_set(d1, d2)
        shifted = {(a + 1, b + 1, c + 1) for a, b, c in columns}
        expect(set(result.assignments) == shifted,
               f"{op.spec}: lattice points differ from the shifted column set")
        heights = op.data.as_tuple()
        for q, a in result.assignments.items():
            expect(a.case in (1, 2, 3, 4), f"{q}: case {a.case}")
            expect(a.vertex_index == refcheck.TARGET_VERTEX[a.case],
                   f"{q}: vertex {a.vertex_index} in block {a.case}")
            refcheck.check_decomposition(d1, d2, q, DELTA, heights, a.case,
                                         a.lam, a.objective)
        blocks = [{tuple(m) for m in s} for s in result.partition.sets()]
        expect(sum(len(b) for b in blocks) == refcheck.square_size(d1, d2),
               f"{op.spec}: block sizes {[len(b) for b in blocks]}")
        expect(set().union(*blocks) == columns,
               f"{op.spec}: blocks do not tile the column set")
        for q, a in result.assignments.items():
            expect((q[0] - 1, q[1] - 1, q[2] - 1) in blocks[a.case - 1],
                   f"{q}: not in block {a.case}")
        if op.kind == "default":
            self._check_default(op, blocks)

    def _check_default(self, op: Op, blocks: List[set]) -> None:
        expect(op.spec == (2, 2), f"default liftings at {op.spec}")
        expect([len(b) for b in blocks] == [6, 10, 8, 12],
               f"default partition sizes {[len(b) for b in blocks]}")
        moved = [set(b) for b in blocks]
        for monomial, src, dst in self.dr.sparse.MOVES_TO_DIVISIBILITY_2_2:
            monomial = tuple(monomial)
            expect(monomial in moved[src - 1], f"move of {monomial} from S{src}")
            moved[src - 1].remove(monomial)
            moved[dst - 1].add(monomial)
        expect(moved == refcheck.divisibility_partition(2, 2),
               "the moves do not reach the divisibility partition")


# --- symbolic ----------------------------------------------------------------

VERBS = ("gen", "sets", "build", "certificate", "carra-ferro")
# cumulative seconds of the verb sweep up to each degree bound, measured once
# when the benchmark was written; the sweep takes the largest bound that fits
# the run, so the op set never depends on how fast the machine is today
SWEEP_SECONDS = {3: 0.3, 4: 1.5, 5: 5.0, 6: 12.5, 7: 28.0}
# common-zero ops per six seconds of run, by degree pair.  About as many CLI
# calls take less than a (2,2) determinant (12-22 ms) as take more, so with
# few (1,1) and (1,2) ops the median op falls in the middle of the (2,2)
# ops, where latencies lie close together, and not on the sparse edge of
# that group, where neighbouring latencies lie far apart
COMMON_ZERO_SHARE = {(1, 1): 1, (1, 2): 1, (2, 2): 16}
SYMBOLIC_POINTS = 6


class Symbolic:
    """In-process CLI calls over a degree sweep, plus small common-zero dets.

    Each (verb, degree pair) runs once; `det --mode symbolic` and
    `oracle --full` run at (1,1).  The common-zero ops are library calls at
    seeded points with negative fractional coordinates, which the command
    line cannot take.
    """

    name = "symbolic"

    def __init__(self, dr, seed: int, seconds: float):
        self.dr, self.seed, self.seconds = dr, seed, seconds

    def setup(self) -> List[Op]:
        rng = random.Random(f"{self.name}:{self.seed}")
        bound = max([3] + [b for b, s in SWEEP_SECONDS.items() if s <= self.seconds])
        cli_ops = [Op(verb, (d1, d2), [verb, "--d1", str(d1), "--d2", str(d2)])
                   for d1 in range(1, bound + 1) for d2 in range(d1, bound + 1)
                   for verb in VERBS]
        cli_ops.append(Op("det", (1, 1), ["det", "--d1", "1", "--d2", "1",
                                          "--mode", "symbolic"]))
        cli_ops.append(Op("oracle", (1, 1), ["oracle", "--d1", "1", "--d2", "1",
                                             "--full"]))
        self.matrices = {d: self.dr.matrices.build_square_matrix(d)
                         for d in COMMON_ZERO_SHARE}
        units = max(1, int(self.seconds) // 6)
        cz_ops = [Op("common-zero", d, (_rational_point(rng), rng.getrandbits(62)))
                  for _ in range(units) for d, share in COMMON_ZERO_SHARE.items()
                  for _ in range(share)]
        # spread the common-zero ops evenly through the sweep
        ops: List[Op] = []
        n, m = len(cli_ops), len(cz_ops)
        for k, op in enumerate(cli_ops):
            ops.append(op)
            ops.extend(cz_ops[k * m // n:(k + 1) * m // n])
        return ops

    def run(self, op: Op):
        if op.kind == "common-zero":
            point, rng_seed = op.data
            s = self.dr.determinant.common_zero_specialization(op.spec, point,
                                                               rng_seed=rng_seed)
            return self.dr.determinant.det_specialized(self.matrices[op.spec], s)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.dr.cli.main(op.data)
        return code, buf.getvalue()

    def check(self, op: Op, output) -> None:
        if op.kind == "common-zero":
            expect(output == 0, f"{op.spec}: common-zero determinant is {output}")
            return
        code, text = output
        expect(code == 0, f"{op.data}: exit code {code}")
        payload = json.loads(text)
        getattr(self, "_check_" + op.kind.replace("-", "_"))(op.spec, payload)

    def _check_gen(self, spec, payload) -> None:
        d1, d2 = spec
        expect(payload["spec"] == [d1, d2], f"gen spec {payload['spec']}")
        for key, d, size in (("f1", d1, (d1 + 1) * (d1 + 2) // 2),
                             ("f2", d2, (d2 + 1) * (d2 + 2) // 2),
                             ("df1", d1, (d1 + 1) ** 2), ("df2", d2, (d2 + 1) ** 2)):
            expect(len(payload[key]) == size,
                   f"{spec}: {key} has {len(payload[key])} terms, expected {size}")

    def _check_sets(self, spec, payload) -> None:
        n = refcheck.square_size(*spec)
        expect(payload["N"] == n and payload["D"] == 2 * sum(spec) - 3,
               f"{spec}: N={payload['N']} D={payload['D']}")
        columns = {tuple(m) for m in payload["columns"]["elems"]}
        expect(columns == refcheck.column_set(*spec), f"{spec}: column set")
        blocks = [{tuple(m) for m in s["elems"]} for s in payload["partition"]["sets"]]
        expect(blocks == refcheck.divisibility_partition(*spec),
               f"{spec}: partition differs from the divisibility cascade")

    def _check_build(self, spec, payload) -> None:
        n = refcheck.square_size(*spec)
        expect(payload["shape"] == [n, n], f"{spec}: shape {payload['shape']}")
        expect({tuple(c) for c in payload["cols"]} == refcheck.column_set(*spec),
               f"{spec}: columns")
        rows_hit = {i for i, j, _ in payload["entries"] if 0 <= j < n}
        expect(rows_hit == set(range(n)), f"{spec}: empty or out-of-range rows")

    def _check_carra_ferro(self, spec, payload) -> None:
        rows, cols = refcheck.carra_ferro_shape(*spec)
        expect(payload["shape"] == [rows, cols],
               f"{spec}: shape {payload['shape']}, expected {[rows, cols]}")
        hit = {j for _, j, _ in payload["entries"]}
        empty = [c for j, c in enumerate(payload["cols"]) if j not in hit]
        expect(len(empty) == len(payload["zero_columns"]),
               f"{spec}: {len(empty)} empty columns, {len(payload['zero_columns'])} listed")
        if spec == (2, 2):
            expect(empty == [[0, 0, 5]] and payload["zero_columns"] == ["y2^5"],
                   f"(2,2) zero columns {payload['zero_columns']}")

    def _check_certificate(self, spec, payload) -> None:
        d1, d2 = spec
        D = 2 * d1 + 2 * d2 - 3
        counts = payload["counts"]
        expect(sum(counts) == refcheck.square_size(d1, d2), f"{spec}: counts {counts}")
        expect(counts[0] == (D - d1 + 1) * (D - d1 + 2) // 2,
               f"{spec}: df1 block {counts[0]}")
        expect(abs(Fraction(payload["coefficient"])) == d1 ** counts[0],
               f"{spec}: coefficient {payload['coefficient']} is not +-d1^n1")

    def _check_det(self, spec, payload) -> None:
        terms = refcheck.parse_poly(payload["value"])
        rng = random.Random(f"{self.name}-points:{self.seed}")
        signs = set()
        for _ in range(SYMBOLIC_POINTS):
            values = {s: Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                      for s in refcheck.SYMBOLS_1_1}
            expected = refcheck.leibniz_det(refcheck.matrix_1_1(values))
            got = refcheck.eval_poly(terms, values)
            expect(abs(got) == abs(expected), f"(1,1) det {got} != +-{expected}")
            if expected:
                signs.add(got / expected)
        expect(len(signs) == 1, "the sign against the Leibniz value is not global")
        zero = refcheck.common_zero_1_1(values, _rational_point(rng))
        expect(refcheck.leibniz_det(refcheck.matrix_1_1(zero)) == 0,
               "the benchmark's own common zero does not kill its 4x4 det")
        expect(refcheck.eval_poly(terms, zero) == 0,
               "symbolic det does not vanish at a common zero")

    def _check_oracle(self, spec, payload) -> None:
        terms = refcheck.parse_poly(payload["polynomial"])
        expect(payload["terms"] == len(terms) > 0, f"oracle terms {payload['terms']}")
        expect(payload["degree"] == max(map(refcheck.term_degree, terms)),
               f"oracle degree {payload['degree']}")
        rng = random.Random(f"{self.name}-oracle:{self.seed}")
        values = {s: Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                  for s in refcheck.SYMBOLS_1_1}
        expect(refcheck.eval_poly(terms, values) != 0,
               "oracle vanishes at a generic point")
        zero = refcheck.common_zero_1_1(values, _rational_point(rng))
        expect(refcheck.eval_poly(terms, zero) == 0,
               "oracle does not vanish at a common zero")


WORKLOADS = {cls.name: cls for cls in (DetSweep, LpPartition, Symbolic)}
