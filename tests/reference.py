"""A from-definition reference analyzer in Fractions, for the tests.

It imports no `flatlie` module.  `read` parses an input document itself,
and `analyze` computes every field of `flatlie analyze --json` that no
choice of the program fixes, straight from the definitions:

- the Levi-Civita product from the Koszul formula
  2 <e_i e_j, e_k> = <[e_i,e_j],e_k> - <[e_j,e_k],e_i> + <[e_k,e_i],e_j>,
  solved pair by pair with the inverse Gram matrix (`product`);
- the curvature K(e_i, e_j) = L_[e_i,e_j] - (L_i L_j - L_j L_i) by matrix
  products (`curvature`), the first nonzero pair being the witness;
- the Killing subalgebra, the null space of the Killing equations
  <[u, x], y> + <x, [u, y]> = 0 (`killing`), and [g, g], the span of the
  brackets (`derived`);
- the Killing/derived split of Theorem 1 and the class-C ideal, its
  scalar action and the degenerate-restriction criterion of Theorem 2.

`check` compares a report with `analyze` on those fields, and checks each
field that depends on a choice of the program by its defining property:
the class-C generator `b` ([b, u] = u on the ideal), the null transversal
`d` (<d, e> = 1, <d, d> = 0), the B-sector (the canonical basis of the
complement of span{e, d}) and the companion Gram matrix (positive definite
with the same Levi-Civita product).

Vectors are lists of Fractions and matrices lists of rows; a subspace is
its canonical basis, the nonzero rows of its reduced row echelon form, as
a tuple of tuples (what `Subspace.basis` holds).  The one solver is
Gauss-Jordan elimination in Fractions (`rref`).  Sums start at the int 0,
so int input stays int.  The differential tests of the exact kernel use
these functions as their oracles, one per quantity.
"""

import json
from fractions import Fraction as F
from typing import NamedTuple

#: stands in `analyze`'s result for a field that depends on a choice
CHOSEN = "<chosen: checked by its defining property>"


# -- linear algebra over Q ---------------------------------------------------

def dot(x, y):
    return sum(a * b for a, b in zip(x, y) if a and b)


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[dot(row, col) for col in cols] for row in A]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def units(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def rref(A):
    """(R, pivots): Gauss-Jordan elimination in Fractions; each pivot row
    is normalized and its column cleared in every other row."""
    rows = [[F(x) for x in r] for r in A]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(A):
    return len(rref(A)[1])


def row_space(A):
    """The canonical basis of the span of the rows of A."""
    R, pivots = rref(A)
    return tuple(map(tuple, R[:len(pivots)]))


def kernel(A):
    """{v : A v = 0} for A with at least one row: for each free column f of
    `rref`'s form, the vector with 1 at f and -R[r][f] at each pivot p_r,
    brought to canonical form."""
    n = len(A[0])
    R, pivots = rref(A)
    vectors = []
    for f in range(n):
        if f not in pivots:
            v = [F(0)] * n
            v[f] = F(1)
            for r, p in enumerate(pivots):
                v[p] = -R[r][f]
            vectors.append(v)
    return row_space(vectors)


def inverse(A):
    """A^-1, the right half of the reduced form of [A | I]; ValueError for
    a singular A."""
    n = len(A)
    R, pivots = rref([list(row) + unit for row, unit in zip(A, units(n))])
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in R]


def form(G, x, y):
    """<x, y> for the Gram matrix G."""
    return dot(x, [dot(row, y) for row in G])


def restrict(G, V, W=None):
    """The values <v, w> on the rows of V and of W (V by default)."""
    return [[form(G, v, w) for w in (V if W is None else W)] for v in V]


def complement(V, G):
    """V-perp {x : <v, x> = 0 for every row v of V} in the form G."""
    if not V:
        return row_space(units(len(G)))
    return kernel([[dot(row, v) for row in G] for v in V])


def radical(G, V):
    """{e in span V : <e, x> = 0 for all x in span V}: the null space of the
    restricted Gram matrix, in ambient coordinates."""
    if not V:
        return ()
    return row_space([[dot(k, col) for col in zip(*V)] for k in kernel(restrict(G, V))])


def congruence(S):
    """(E, d) with E S E^T = diag(d): symmetric pivoting, and when the
    remaining diagonal vanishes e_r += e_c for the first nonzero
    off-diagonal entry, which makes a nonzero pivot."""
    n = len(S)
    A = [[F(x) for x in row] for row in S]
    E = units(n)

    def add_row_col(dst, src, f):
        A[dst] = [x + f * y for x, y in zip(A[dst], A[src])]
        for r in range(n):
            A[r][dst] += f * A[r][src]
        E[dst] = [x + f * y for x, y in zip(E[dst], E[src])]

    def swap(i, j):
        A[i], A[j] = A[j], A[i]
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        E[i], E[j] = E[j], E[i]

    for i in range(n):
        if A[i][i] == 0:
            j = next((j for j in range(i + 1, n) if A[j][j] != 0), None)
            if j is not None:
                swap(i, j)
            else:
                found = next(((r, c) for r in range(i, n) for c in range(r + 1, n) if A[r][c] != 0), None)
                if found is None:
                    break
                r, c = found
                add_row_col(r, c, F(1))
                if r != i:
                    swap(i, r)
        piv = A[i][i]
        for r in range(i + 1, n):
            if A[r][i] != 0:
                add_row_col(r, i, -A[r][i] / piv)
    return E, [A[i][i] for i in range(n)]


def signature(S):
    """(#positive, #negative, #zero) of the diagonal of `congruence`
    (Sylvester's law of inertia)."""
    d = congruence(S)[1]
    return sum(x > 0 for x in d), sum(x < 0 for x in d), sum(x == 0 for x in d)


def transport(T, P):
    """The 3-tensor T in the basis of the columns of P: entry (a, b) is
    P^-1 T(P_a, P_b)."""
    Pinv, cols = inverse(P), transpose(P)
    moved = []
    for Pa in cols:
        L = left_mult(T, Pa)
        images = ([dot(Lk, Pb) for Lk in L] for Pb in cols)  # T(P_a, P_b)
        moved.append(tuple(tuple(dot(row, v) for row in Pinv) for v in images))
    return tuple(moved)


def transport_form(G, P):
    """The bilinear form G in the basis of the columns of P: P^T G P."""
    return tuple(map(tuple, mat_mul(transpose(P), mat_mul(G, P))))


# -- tensors: T[i][j][k] is the e_k coefficient of T(e_i, e_j) ---------------

def bilinear(T, x, y):
    """T(x, y); with the structure constants c, the bracket [x, y]."""
    terms = [(xi * yj, T[i][j]) for i, xi in enumerate(x) if xi for j, yj in enumerate(y) if yj]
    return [sum(f * row[k] for f, row in terms) for k in range(len(T))]


def left_mult(T, u):
    """Matrix of v -> T(u, v): entry (k, j) is the e_k coefficient of T(u, e_j)."""
    n, terms = len(T), [(ui, plane) for ui, plane in zip(u, T) if ui]
    return [[sum(ui * plane[j][k] for ui, plane in terms) for j in range(n)] for k in range(n)]


def right_mult(T, u):
    """Matrix of v -> T(v, u): entry (k, i) is the e_k coefficient of T(e_i, u)."""
    n = len(T)
    return [[sum(u[j] * T[i][j][k] for j in range(n)) for i in range(n)] for k in range(n)]


def trace(A):
    return sum(A[k][k] for k in range(len(A)))


def product(c, gram):
    """The Levi-Civita product p[i][j][k]: for each pair (i, j) the Koszul
    formula gives the values 2 <e_i e_j, e_l> for every l, and e_i e_j is
    G^-1 times half of them."""
    n = len(gram)
    Ginv = inverse(gram)
    low = [[[dot(c[i][j], col) for col in zip(*gram)] for j in range(n)] for i in range(n)]  # <[e_i,e_j], e_l>
    p = []
    for i in range(n):
        plane = []
        for j in range(n):
            rhs = [(low[i][j][l] - low[j][l][i] + low[l][i][j]) / 2 for l in range(n)]
            plane.append(tuple(dot(row, rhs) for row in Ginv))
        p.append(tuple(plane))
    return tuple(p)


def curvature(c, p, u, v):
    """K(u, v) = L_[u,v] - (L_u L_v - L_v L_u)."""
    Lu, Lv = left_mult(p, u), left_mult(p, v)
    return mat_sub(left_mult(p, bilinear(c, u, v)), mat_sub(mat_mul(Lu, Lv), mat_mul(Lv, Lu)))


def killing(c, gram):
    """{u : <[u, e_x], e_y> + <e_x, [u, e_y]> = 0 for all x, y}."""
    n = len(gram)
    return kernel([
        [dot(gram[y], c[a][x]) + dot(gram[x], c[a][y]) for a in range(n)]
        for x in range(n) for y in range(n)
    ])


def derived(c):
    """[g, g], the span of the brackets [e_i, e_j]."""
    n = len(c)
    return row_space([c[i][j] for i in range(n) for j in range(i + 1, n)])


def is_abelian(c, V):
    return all(not any(bilinear(c, x, y)) for x in V for y in V)


def scalar_action(c, U, t):
    """alpha with [t, u] = alpha u for every u in span U, or None: the
    coordinates of [t, u] in U's canonical basis are its entries at the
    pivots, [t, u] must be their combination, and they must form alpha id."""
    if not U:
        return None
    pivots = [next(j for j, x in enumerate(u) if x) for u in U]
    alpha = None
    for idx, u in enumerate(U):
        v = bilinear(c, t, u)
        coords = [v[p] for p in pivots]
        if [dot(coords, col) for col in zip(*U)] != v:
            return None
        alpha = coords[idx] if alpha is None else alpha
        if coords != [alpha if i == idx else 0 for i in range(len(U))]:
            return None
    return alpha


def product_span(p):
    """g.g, the span of the products e_i e_j."""
    return row_space([row for plane in p for row in plane])


def right_mult_kernel(p):
    """{u : R_u = 0}: sum_j u_j p[i][j][k] = 0 for every (i, k)."""
    n = len(p)
    return kernel([[p[i][j][k] for j in range(n)] for i in range(n) for k in range(n)])


def eq2(c, p, S, D):
    """Eq. (2) of Theorem 1: L_s = ad_s on the rows of S and L_h = 0 on
    the rows of D."""
    return all(left_mult(p, s) == left_mult(c, s) for s in S) and not any(
        any(row) for h in D for row in left_mult(p, h)
    )


# -- documents and reports ---------------------------------------------------

class Metric(NamedTuple):
    dim: int
    c: list
    gram: list
    labels: list | None


def read(doc):
    """The metric Lie algebra of an input document: its JSON text or the
    parsed object (1-based brackets (i, j), i < j, antisymmetric
    completion implied)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    n = doc["dim"]
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for b in doc["brackets"]:
        i, j = b["i"] - 1, b["j"] - 1
        c[i][j] = [F(x) for x in b["coeffs"]]
        c[j][i] = [-x for x in c[i][j]]
    return Metric(n, c, [[F(x) for x in row] for row in doc["metric"]], doc.get("labels"))


def encode(x):
    """The JSON value of a rational, vector, matrix or subspace."""
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    return str(F(x))


def vector(data):
    return [F(x) for x in data]


def _theorem1(m, p, flat, S, D, lorentzian):
    c, gram = m.c, m.gram
    timelike = bool(S) and signature(restrict(gram, S))[1] > 0
    condition = timelike or not lorentzian
    spans = len(S) + len(D) == m.dim and rank(list(S + D)) == m.dim
    orthogonal = not any(any(row) for row in restrict(gram, S, D))
    s_abelian, d_abelian = is_abelian(c, S), is_abelian(c, D)
    direct = flat and condition
    structural = spans and orthogonal and s_abelian and d_abelian and condition
    return {
        "direct_side": direct,
        "structural_side": structural,
        "equivalent": direct == structural,
        "flat": flat,
        "timelike_killing": timelike,
        "orthogonal_split": orthogonal,
        "killing_abelian": s_abelian,
        "derived_abelian": d_abelian,
        "even_dim_derived": len(D) % 2 == 0 if structural else None,
        "eq2_verified": eq2(c, p, S, D) if structural else None,
        "split": {"killing_basis": encode(S), "derived_basis": encode(D)} if structural else None,
    }


def _closed_form_holds(m, p, alpha, e, d):
    """Whether p is the table of Theorem 2 in the witness basis (e, B, d),
    B the canonical basis of span{e, d}-perp: L_e = 0, de = alpha e,
    dd = -alpha d, du = ue = 0, ud = -alpha u, uu' = alpha <u, u'> e."""
    basis = [e, *complement([e, d], m.gram), d]
    last, zero = len(basis) - 1, [0] * m.dim

    def table(a, b):
        x, y = basis[a], basis[b]
        if a == 0 or (a == last and 0 < b < last) or (b == 0 and a < last):
            return zero
        if a == last:
            return [alpha * v for v in e] if b == 0 else [-alpha * v for v in d]
        if b == last:
            return [-alpha * v for v in x]
        return [alpha * form(m.gram, x, y) * v for v in e]

    return all(bilinear(p, basis[a], basis[b]) == table(a, b) for a in range(last + 1) for b in range(last + 1))


def _class_c(m, p, flat, D):
    """The class-C section: [g, g] abelian of codimension 1, and a vector t
    outside it acting on it by a nonzero scalar."""
    c, gram, n = m.c, m.gram, m.dim
    t = next((u for u in units(n) if rank(list(D) + [u]) > len(D)), None)
    alpha_t = scalar_action(c, D, t) if len(D) == n - 1 and is_abelian(c, D) else None
    if not alpha_t:
        return {"detected": False}
    rad = radical(gram, D)
    witness = None
    if len(rad) == 1:
        (e,) = rad
        # a d with <d, e> = 1 is t / <t, e> modulo the ideal (the ideal is e-perp)
        te = form(gram, t, e)
        alpha = alpha_t / te
        d = [x / te - form(gram, t, t) / (2 * te * te) * y for x, y in zip(t, e)]
        witness = {"e": encode(e), "d": CHOSEN, "b_sector_basis": CHOSEN, "alpha": encode(alpha),
                   "closed_form_matches": _closed_form_holds(m, p, alpha, list(e), d)}
    b = [x / alpha_t for x in t]
    unimodular = all(trace(left_mult(c, u)) == 0 for u in units(n))
    return {
        "detected": True,
        "b": CHOSEN,
        "ideal_basis": encode(D),
        "theorem2": {"degenerate_restriction": bool(rad), "radical_dim": len(rad), "flat": flat,
                     "equivalent": bool(rad) == flat},
        "witness": witness,
        "incompleteness": {
            "unimodular": unimodular,
            "b_trace": encode(trace(left_mult(c, b))),
            "flat": flat,
            "verdict": "incomplete" if flat and not unimodular else "criterion inapplicable",
        },
    }


def analyze(doc):
    """The report of `flatlie analyze --json` on doc, as parsed JSON, with
    CHOSEN for each field that depends on a choice of the program."""
    m = read(doc)
    n, c, gram = m.dim, m.c, m.gram
    n_plus, n_minus, n_zero = signature(gram)
    lorentzian, riemannian = (n_minus, n_zero) == (1, 0), (n_minus, n_zero) == (0, 0)
    p = product(c, gram)
    e = units(n)
    K = next(((i, j, K) for i in range(n) for j in range(i + 1, n)
              for K in [curvature(c, p, e[i], e[j])] if any(map(any, K))), None)
    S, D = killing(c, gram), derived(c)
    t1 = _theorem1(m, p, K is None, S, D, lorentzian) if lorentzian or riemannian else None
    return {
        "validation": {"ok": True, "dim": n, "labels": list(m.labels) if m.labels else None},
        "signature": {"n_plus": n_plus, "n_minus": n_minus, "n_zero": n_zero,
                      "kind": "riemannian" if riemannian else "lorentzian" if lorentzian else "other"},
        "flatness": {"flat": K is None,
                     "witness": K and {"i": K[0] + 1, "j": K[1] + 1, "curvature": encode(K[2])}},
        "killing_subalgebra": {"dim": len(S), "basis": encode(S)},
        "theorem1": t1 if lorentzian else None,
        "riemannian_flat": {key: t1[key] for key in ("direct_side", "structural_side", "equivalent", "orthogonal_split",
                                                     "killing_abelian", "derived_abelian", "eq2_verified")}
        if riemannian else None,
        "class_c": _class_c(m, p, K is None, D),
        "companion": {"gram": CHOSEN, "same_connection": True} if lorentzian and t1["direct_side"] else None,
    }


def _agree(expected, actual, path):
    if expected == CHOSEN:
        return
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), (path, actual)
        for key, value in expected.items():
            _agree(value, actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), (path, actual)
        for k, (x, y) in enumerate(zip(expected, actual)):
            _agree(x, y, f"{path}[{k}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (path, expected, actual)


def check(doc, report):
    """Assert that report, the parsed `analyze --json` output on doc, is
    `analyze(doc)` on every choice-free field, and that each chosen field
    has its defining property; return `analyze(doc)`."""
    expected = analyze(doc)
    _agree(expected, report, "report")
    m = read(doc)
    cc = report["class_c"]
    if cc["detected"]:
        U, b = [vector(u) for u in cc["ideal_basis"]], vector(cc["b"])
        assert rank(U + [b]) == m.dim and all(bilinear(m.c, b, u) == u for u in U), "b"
        w = cc["witness"]
        if w:
            e, d = vector(w["e"]), vector(w["d"])
            assert form(m.gram, d, e) == 1 and form(m.gram, d, d) == 0, "d"
            B = complement([e, d], m.gram)
            assert w["b_sector_basis"] == encode(B) and rank(U + list(B)) == len(U), "b_sector_basis"
    if report["companion"]:
        G2 = [vector(row) for row in report["companion"]["gram"]]
        assert G2 == transpose(G2) and signature(G2) == (m.dim, 0, 0), "companion.gram"
        assert product(m.c, G2) == product(m.c, m.gram), "companion.gram"
    return expected
