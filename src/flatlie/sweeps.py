"""Seeded random instance generators and the randomized property sweeps.

Random Lie algebras come from families that satisfy Jacobi by construction
(abelian, scalar-bracket, nilpotent, torus-rotation, simple dim-3).  Each
family draws a bracket table, the arguments of `LieAlgebra.from_brackets`,
and builds no algebra: `scramble` clears the table to its integer view with
`lie.integer_view`, the routine that also clears the table of
`from_brackets`.  It then builds the instance once, in a random unimodular
integer basis P, where its constructor checks run once: the bracket view
moves through the 2 x 2 minors of P, one term per nonzero bracket of the
table (`linalg.integer_transport`), and the Gram matrix as P^T G P
(`linalg.transport_form`), both reading the int P as it is.  Antisymmetry,
Jacobi, symmetry and nondegeneracy are all kept by an invertible change of
basis, so that one check covers the table too.  Gram matrices are built by
congruence from a chosen diagonal so their signatures are exact.  Every
sweep returns a list of human-readable failure strings, empty when the
property held on every instance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from . import linalg, metric
from .classc import theorem2_check
from .lie import integer_view
from .linalg import ONE, ZERO
from .metric import MetricLieAlgebra, is_flat, verify_killing_triple_identity
from .theorems import same_connection, theorem1_check

#: (dim, brackets): the arguments of `LieAlgebra.from_brackets`, keys
#: (i, j) with i < j and Fraction coefficients.
Table = tuple[int, dict[tuple[int, int], list[Fraction]]]


#: The draws of `rational` and `unimodular_int_matrix`: rng.choice over a
#: tuple spends one _randbelow(len), as rng.randint(a, b) spends one
#: _randbelow(b - a + 1) for the values range(a, b + 1), so the draws are
#: those of randint, in fewer calls.
NUMERATORS = tuple(range(-3, 4))
DENOMINATORS = (1, 1, 2, 3)
UNIT_STEPS = (-1, 0, 1)


def rational(rng: random.Random, zero_ok: bool = True) -> Fraction:
    choice = rng.choice
    num = choice(NUMERATORS)
    if not zero_ok:
        while num == 0:
            num = choice(NUMERATORS)
    return Fraction(num, choice(DENOMINATORS))


def unimodular_int_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """Random invertible integer matrix built as L U with unit diagonals
    (det = 1, entries stay small), its columns shuffled.  Row i of L and
    then row i of U are drawn, i by i."""
    choice = rng.choice
    L, U = [], []
    for i in range(n):
        L.append([choice(UNIT_STEPS) for _ in range(i)] + [1] + [0] * (n - 1 - i))
        U.append([0] * i + [1] + [choice(UNIT_STEPS) for _ in range(n - 1 - i)])
    perm = list(range(n))
    rng.shuffle(perm)
    cols = list(zip(*U))
    return [[linalg.dot(row, cols[c]) for c in perm] for row in L]


def gram_with_signature(rng: random.Random, n_plus: int, n_minus: int) -> list[list[int]]:
    """P^T diag(+-1) P for random invertible P: exact prescribed signature."""
    diag = [1] * n_plus + [-1] * n_minus
    rng.shuffle(diag)
    P = unimodular_int_matrix(rng, n_plus + n_minus)
    DP = [[d * x for x in row] for d, row in zip(diag, P)]  # diag(+-1) P
    return [[linalg.dot(a, b) for b in zip(*DP)] for a in zip(*P)]


def scramble(table: Table, gram: list[list], rng: random.Random) -> MetricLieAlgebra:
    """The metric Lie algebra (table, gram) in a random unimodular integer
    basis, built once, in that basis, from the table's `lie.integer_view`
    (`MetricLieAlgebra.in_basis`); no algebra is built in the table's basis."""
    return MetricLieAlgebra.in_basis(integer_view(*table), gram, unimodular_int_matrix(rng, table[0]))


# ---------------------------------------------------------------------------
# algebra shapes: bracket tables that satisfy Jacobi by construction
# ---------------------------------------------------------------------------

def rotation_algebra(rng: random.Random, dim: int) -> Table:
    """k >= 1 commuting generators rotating p = (dim - k) / 2 planes."""
    p = rng.randint(1, (dim - 1) // 2)
    k = dim - 2 * p
    brackets: dict[tuple[int, int], list[Fraction]] = {}
    for plane in range(p):
        x, y = k + 2 * plane, k + 2 * plane + 1
        nonzero_somewhere = False
        lams = []
        for a in range(k):
            lam = rational(rng)
            lams.append(lam)
            nonzero_somewhere = nonzero_somewhere or lam != 0
        if not nonzero_somewhere:
            lams[rng.randrange(k)] = rational(rng, zero_ok=False)
        for a, lam in enumerate(lams):
            if lam:
                vx = [ZERO] * dim
                vx[y] = lam
                vy = [ZERO] * dim
                vy[x] = -lam
                brackets[(a, x)] = vx
                brackets[(a, y)] = vy
    return dim, brackets


def class_c_algebra(rng: random.Random, dim: int) -> Table:
    """[t, u_j] = alpha u_j on the codimension-1 abelian ideal."""
    alpha = rational(rng, zero_ok=False)
    brackets = {}
    for j in range(1, dim):
        v = [ZERO] * dim
        v[j] = alpha
        brackets[(0, j)] = v
    return dim, brackets


def heisenberg_like(rng: random.Random, dim: int) -> Table:
    """[e_1, e_2] = c e_3 (+ abelian directions)."""
    v = [ZERO] * dim
    v[2] = rational(rng, zero_ok=False)
    return dim, {(0, 1): v}


def simple3(dim: int) -> Table:
    """so(3) in the first three coordinates."""
    def unit(k):
        v = [ZERO] * dim
        v[k] = ONE
        return v

    return dim, {(0, 1): unit(2), (1, 2): unit(0), (0, 2): [-x for x in unit(1)]}


def random_algebra(rng: random.Random, dim: int) -> Table:
    shapes = ["abelian", "classc"]
    if dim >= 2:
        shapes.append("solvable2")
    if dim >= 3:
        shapes += ["rotation", "heisenberg", "simple3"]
    shape = rng.choice(shapes)
    if shape == "abelian":
        return dim, {}
    if shape == "classc":
        return class_c_algebra(rng, dim)
    if shape == "solvable2":
        v = [ZERO] * dim
        v[1] = rational(rng, zero_ok=False)
        return dim, {(0, 1): v}
    if shape == "rotation":
        return rotation_algebra(rng, dim)
    if shape == "heisenberg":
        return heisenberg_like(rng, dim)
    return simple3(dim)


def random_metric_algebra(rng: random.Random, dim: int, kind: str = "any") -> MetricLieAlgebra:
    """Random valid metric Lie algebra; kind "lorentzian" fixes one negative
    direction, kind "any" draws the number of negative directions."""
    table = random_algebra(rng, dim)
    n_minus = 1 if kind == "lorentzian" else rng.randint(0, dim)
    return scramble(table, gram_with_signature(rng, dim - n_minus, n_minus), rng)


def theorem1_true_instance(rng: random.Random, dim: int) -> MetricLieAlgebra:
    """Flat Lorentzian instance with a timelike Killing vector: rotation
    algebra with an adapted block metric (Lorentzian on the torus factor,
    equal positive weights inside each rotation plane), then scrambled."""
    if dim < 3:
        return scramble((dim, {}), gram_with_signature(rng, dim - 1, 1), rng)
    table = rotation_algebra(rng, dim)
    p = len({j for _, j in table[1]}) // 2  # every plane has keys (a, x) and (a, y)
    k = dim - 2 * p
    gram = linalg.zeros(dim, dim)
    S_block = gram_with_signature(rng, k - 1, 1) if k > 1 else [[-ONE]]
    for i in range(k):
        for j in range(k):
            gram[i][j] = S_block[i][j]
    for plane in range(p):
        weight = Fraction(rng.randint(1, 3))
        gram[k + 2 * plane][k + 2 * plane] = weight
        gram[k + 2 * plane + 1][k + 2 * plane + 1] = weight
    return scramble(table, gram, rng)


def arrow_gram(rng: random.Random, n: int, degenerate: bool) -> list[list[Fraction]]:
    """One draw of the Gram matrix of `class_c_instance`: nonzero only in row
    and column 0 and on the diagonal, with g_jj != 0 for j >= 2.  Its
    restriction to span(u_1..u_{n-1}) is diagonal, and degenerate exactly
    when <u_1, u_1> = 0."""
    gram = linalg.zeros(n, n)
    gram[0][0] = rational(rng)
    if degenerate:
        # <u_1, u_1> = 0 is the radical direction; <t, u_1> = 1 rescues
        # ambient nondegeneracy (determinant is -product of the others).
        gram[0][1] = gram[1][0] = ONE
    for j in range(2 if degenerate else 1, n):
        gram[0][j] = gram[j][0] = rational(rng)
        gram[j][j] = rational(rng, zero_ok=False)
    return gram


def arrow_nonsingular(gram: list[list[Fraction]]) -> bool:
    """Whether a Gram matrix of `arrow_gram` is nonsingular, by the closed
    form of its determinant.  With g_11 = 0 (the degenerate branch) it is
    -g_01^2 prod_{j>=2} g_jj, never 0 there since g_01 = 1; otherwise it is
    (g_00 - sum_{j>=1} g_0j^2 / g_jj) prod_{j>=1} g_jj."""
    n = len(gram)
    if n > 1 and not gram[1][1]:
        return gram[0][1] != 0
    return gram[0][0] != sum(gram[0][j] ** 2 / gram[j][j] for j in range(1, n))


def class_c_instance(rng: random.Random, dim: int, degenerate: bool) -> MetricLieAlgebra:
    """Class-C algebra with a metric whose restriction to the derived ideal
    is degenerate (1-dimensional radical) or nondegenerate, by construction;
    a singular Gram draw is drawn again."""
    table = class_c_algebra(rng, dim)
    while True:
        gram = arrow_gram(rng, dim, degenerate)
        if arrow_nonsingular(gram):
            return scramble(table, gram, rng)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class SweepResult(NamedTuple):
    name: str
    count: int
    failures: tuple[str, ...]
    notes: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures


def _connection_failures(m: MetricLieAlgebra, tag: str) -> list[str]:
    """Defining identity of the product plus the connection axioms, exactly.

    Decided in ints on c = C / E, p = P / D and G = Gi / g, with the lowered
    constants low = Gi C computed here rather than read from the metric's
    memo, so the solve is checked against an independent right-hand side:
    2 E (Gi P_ij)_k == D (low_ijk - low_jki + low_kij), compared per
    (i, j) as two whole rows over k, whose differing k are listed in order,
    E (L_a - R_a) == D ad_a, L_a^T Gi + Gi L_a == 0 and
    E (P_ab - P_ba) == D C_ab.  The matrices are read off the int planes:
    column b of L_a, R_a and ad_a is P[a][b], P[b][a] and C[a][b], so column
    b of E (L_a - R_a) - D ad_a is the torsion residual at (a, b), and
    (Gi L_a)[r][b] is (Gi P_ab)_r, which the defining identity already
    formed; Gi is symmetric, so L_a^T Gi + Gi L_a = Gi L_a + (Gi L_a)^T."""
    failures = []
    n = m.dim
    dot = linalg.dot
    C, E = m.algebra.C, m.algebra.E
    P, D = metric.integer_product(m)
    Gi = m.G
    low = [[[dot(row, cij) for row in Gi] for cij in plane] for plane in C]
    paired = [[[dot(row, pij) for row in Gi] for pij in plane] for plane in P]  # paired[i][j] = Gi P_ij

    for i in range(n):
        for j in range(n):
            lhs = [2 * E * x for x in paired[i][j]]
            rhs = [D * (x - y + z) for x, y, z in zip(low[i][j], (row[i] for row in low[j]), (plane[i][j] for plane in low))]
            if lhs != rhs:
                failures += [f"{tag}: defining identity fails at ({i}, {j}, {k})" for k in range(n) if lhs[k] != rhs[k]]

    for a in range(n):
        torsion = [
            b for b in range(n) if any(E * (x - y) != D * z for x, y, z in zip(P[a][b], P[b][a], C[a][b]))
        ]
        if torsion:
            failures.append(f"{tag}: L - R != ad for basis vector {a}")
        GL = paired[a]  # GL[b][r] = (Gi L_a)[r][b]
        if any(GL[b][r] + GL[r][b] for b in range(n) for r in range(b, n)):
            failures.append(f"{tag}: L_u not skew-symmetric for basis vector {a}")
        failures += [f"{tag}: torsion-freeness fails at ({a}, {b})" for b in torsion]
    return failures


def sweep_connection_axioms(seed: int, count: int) -> SweepResult:
    rng = random.Random(seed)
    failures: list[str] = []
    for idx in range(count):
        dim = rng.choice((2, 3, 4, 5))
        m = random_metric_algebra(rng, dim)
        failures += _connection_failures(m, f"instance {idx} (dim {dim})")
    return SweepResult("connection_axioms", count, tuple(failures))


def sweep_theorem1(seed: int, count: int) -> SweepResult:
    """direct side == structural side on every Lorentzian instance; on flat
    ones additionally the triple Killing identity and even derived dim."""
    rng = random.Random(seed)
    failures: list[str] = []
    flat_count = 0
    for idx in range(count):
        dim = rng.choice((2, 3, 4, 5))
        if idx % 3 == 0 and dim >= 3:
            m = theorem1_true_instance(rng, dim)
        else:
            m = random_metric_algebra(rng, dim, kind="lorentzian")
        tag = f"instance {idx} (dim {dim})"
        report = theorem1_check(m)
        if not report.equivalent:
            failures.append(f"{tag}: direct {report.direct_side} != structural {report.structural_side}")
        if report.structural_side:
            if report.even_dim_derived is False:
                failures.append(f"{tag}: split holds but derived dimension is odd")
            if report.eq2_verified is False:
                failures.append(f"{tag}: split holds but closed-form product fails")
        if report.flat:
            flat_count += 1
            triple = verify_killing_triple_identity(m)
            if not (triple.all_equal and triple.abelian):
                failures.append(f"{tag}: flat-case Killing triple identity fails")
    return SweepResult("theorem1_equivalence", count, tuple(failures), notes=f"{flat_count} flat instances")


def sweep_theorem2(seed: int, count: int) -> SweepResult:
    """Flatness-by-curvature == degeneracy-of-restriction on class-C
    instances, both branches forced to appear."""
    rng = random.Random(seed)
    failures: list[str] = []
    n_deg = n_nondeg = 0
    for idx in range(count):
        dim = rng.choice((2, 3, 4, 5, 6))
        degenerate = idx % 2 == 0
        m = class_c_instance(rng, dim, degenerate)
        report = theorem2_check(m)
        tag = f"instance {idx} (dim {dim})"
        if report.degenerate_restriction != degenerate:
            failures.append(f"{tag}: generator produced the wrong restriction type")
        if not report.equivalent:
            failures.append(
                f"{tag}: flat {report.flat} != degenerate restriction {report.degenerate_restriction}"
            )
        if report.degenerate_restriction:
            n_deg += 1
        else:
            n_nondeg += 1
    return SweepResult(
        "theorem2_equivalence", count, tuple(failures), notes=f"{n_deg} degenerate / {n_nondeg} nondegenerate"
    )


def sweep_gram_scaling(seed: int, count: int) -> SweepResult:
    """Positive rescaling of the inner product changes neither the product
    constants nor the flatness verdict."""
    rng = random.Random(seed)
    failures: list[str] = []
    for idx in range(count):
        dim = rng.choice((2, 3, 4, 5))
        m = random_metric_algebra(rng, dim)
        factor = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = m.scale_gram(factor)
        tag = f"instance {idx} (dim {dim}, factor {factor})"
        if not same_connection(m, scaled):
            failures.append(f"{tag}: product changed under gram scaling")
        if is_flat(m).flat != is_flat(scaled).flat:
            failures.append(f"{tag}: flatness verdict changed under gram scaling")
    return SweepResult("gram_scaling_invariance", count, tuple(failures))


def run_all(seed: int, count: int) -> list[SweepResult]:
    return [
        sweep_connection_axioms(seed, count),
        sweep_theorem1(seed + 1, count),
        sweep_theorem2(seed + 2, count),
        sweep_gram_scaling(seed + 3, max(10, count // 4)),
    ]
