"""The benchmark's own exact and modular Lie-algebra arithmetic.

Nothing here imports ``liebider``: the answer checks must not share code
with the program they check.  An algebra is a table of structure constants
``(i, j) -> {k: c}`` over all ordered pairs ``i != j``; elements are sparse
dicts ``{index: Fraction}``.  Ranks are computed modulo the prime ``P``; a
rank modulo ``P`` never exceeds the rational rank, so a kernel dimension
modulo ``P`` is an upper bound on the rational one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Sequence

P = (1 << 61) - 1  # Mersenne prime used for every modular rank


class Alg:
    """Structure constants ``[e_i, e_j] = sum_k c_ij^k e_k`` of a table."""

    def __init__(self, n: int, constants: dict, names=None, factors=None):
        self.n = n
        self.names = tuple(names) if names else tuple(f"e{t + 1}" for t in range(n))
        self.factors = tuple(factors) if factors else None
        self.table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j, k), c in constants.items():
            c = Fraction(c)
            if not c:
                continue
            if i == j:
                raise ValueError("constant on a diagonal pair")
            if i > j:
                i, j, c = j, i, -c
            self.table.setdefault((i, j), {})[k] = c
            self.table.setdefault((j, i), {})[k] = -c

    def pair(self, i: int, j: int) -> dict[int, Fraction]:
        return self.table.get((i, j), {})

    def constants(self) -> dict[tuple[int, int, int], Fraction]:
        """``(i, j, k) -> c`` for ``i < j``, zeros omitted."""
        return {
            (i, j, k): c
            for (i, j), terms in self.table.items()
            if i < j
            for k, c in terms.items()
        }

    def blocks(self) -> tuple[int, ...]:
        """Block index of every basis vector (all 0 for an atomic table)."""
        out: list[int] = []
        for b, size in enumerate(self.factors or (self.n,)):
            out.extend([b] * size)
        return tuple(out)


def bracket(alg: Alg, x: dict, y: dict) -> dict:
    out: dict[int, Fraction] = {}
    for i, xi in x.items():
        for j, yj in y.items():
            terms = alg.table.get((i, j))
            if terms:
                w = xi * yj
                for k, c in terms.items():
                    out[k] = out.get(k, 0) + w * c
    return {k: v for k, v in out.items() if v}


def unit(i: int) -> dict:
    return {i: Fraction(1)}


def dense(vec: dict, n: int) -> list[Fraction]:
    return [Fraction(vec.get(t, 0)) for t in range(n)]


def add_into(acc: dict, vec: dict, scale=1) -> None:
    for k, v in vec.items():
        w = acc.get(k, 0) + scale * v
        if w:
            acc[k] = w
        else:
            acc.pop(k, None)


# ---------------------------------------------------------------------------
# Construction of inputs


def matrix_commutator(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    m = len(a)
    return [
        [
            sum(a[r][s] * b[s][c] - b[r][s] * a[s][c] for s in range(m))
            for c in range(m)
        ]
        for r in range(m)
    ]


def sl(m: int) -> Alg:
    """sl(m) from elementary matrices.

    Basis: E_rc for r != c in row-major order, then H_t = E_tt - E_(t+1)(t+1).
    A traceless diagonal d has H-coordinates h_t = d_0 + ... + d_t.
    """
    off = [(r, c) for r in range(m) for c in range(m) if r != c]
    mats = []
    names = []
    for r, c in off:
        mats.append([[int((a, b) == (r, c)) for b in range(m)] for a in range(m)])
        names.append(f"E{r + 1}{c + 1}")
    for t in range(m - 1):
        mats.append(
            [[(a == b == t) - (a == b == t + 1) for b in range(m)] for a in range(m)]
        )
        names.append(f"H{t + 1}")
    index = {pos: idx for idx, pos in enumerate(off)}
    constants = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = matrix_commutator(mats[i], mats[j])
            for (r, c), idx in index.items():
                if comm[r][c]:
                    constants[(i, j, idx)] = comm[r][c]
            running = 0
            for t in range(m - 1):
                running += comm[t][t]
                if running:
                    constants[(i, j, len(off) + t)] = running
    return Alg(len(mats), constants, names)


def invert(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan; raises ValueError if singular."""
    n = len(mat)
    work = [list(map(Fraction, row)) + [Fraction(int(r == c)) for c in range(n)]
            for r, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        lead = work[col][col]
        work[col] = [v / lead for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def change_basis(alg: Alg, p: list[list[Fraction]], factors=None) -> Alg:
    """Table on the basis f_i = sum_a p[a][i] e_a (columns of ``p``)."""
    n = alg.n
    pinv = invert(p)
    images = [{a: Fraction(p[a][i]) for a in range(n) if p[a][i]} for i in range(n)]
    constants = {}
    for i in range(n):
        for j in range(i + 1, n):
            old = bracket(alg, images[i], images[j])
            for k in range(n):
                c = sum((pinv[k][t] * v for t, v in old.items()), Fraction(0))
                if c:
                    constants[(i, j, k)] = c
    names = tuple(f"f{t + 1}" for t in range(n))
    return Alg(n, constants, names, factors)


def monomial_change(alg: Alg, rng: random.Random) -> Alg:
    """Seeded nonzero rescaling of every basis vector, keeping sparsity."""
    n = alg.n
    scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    p = [[scales[a] if a == b else Fraction(0) for b in range(n)] for a in range(n)]
    return change_basis(alg, p, alg.factors)


# ---------------------------------------------------------------------------
# Identity scans (exact)


def jacobi_first_violation(alg: Alg):
    """First triple i < j < k (lexicographic) with a nonzero Jacobi sum."""
    n = alg.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res: dict = {}
                add_into(res, bracket(alg, alg.pair(i, j), unit(k)))
                add_into(res, bracket(alg, alg.pair(j, k), unit(i)))
                add_into(res, bracket(alg, alg.pair(k, i), unit(j)))
                if res:
                    return (i, j, k), dense(res, n)
    return None


def bider_values(mats) -> list[list[dict]]:
    """``values[i][j]`` = B(e_i, e_j) as a sparse vector."""
    n = len(mats)
    return [
        [{k: mats[k][i][j] for k in range(n) if mats[k][i][j]} for j in range(n)]
        for i in range(n)
    ]


def bider_first_violation(alg: Alg, mats):
    """First failing defining condition of a coordinate-matrix tuple.

    Condition (1) B([x,y],z) = [x,B(y,z)] + [B(x,z),y] is scanned before
    condition (2) B(x,[y,z]) = [B(x,y),z] + [y,B(x,z)], each over basis
    triples (i, j, k) in lexicographic order.  Returns
    ``(condition, (i, j, k), residual)`` or None.
    """
    n = alg.n
    val = bider_values(mats)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res: dict = {}
                for t, c in alg.pair(i, j).items():
                    add_into(res, val[t][k], c)
                add_into(res, bracket(alg, unit(i), val[j][k]), -1)
                add_into(res, bracket(alg, val[i][k], unit(j)), -1)
                if res:
                    return 1, (i, j, k), dense(res, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = {}
                for t, c in alg.pair(j, k).items():
                    add_into(res, val[i][t], c)
                add_into(res, bracket(alg, val[i][j], unit(k)), -1)
                add_into(res, bracket(alg, unit(j), val[i][k]), -1)
                if res:
                    return 2, (i, j, k), dense(res, n)
    return None


def is_derivation(alg: Alg, d: Sequence[Sequence[Fraction]]) -> bool:
    """D[x,y] = [Dx,y] + [x,Dy] on basis pairs; column j of ``d`` is D(e_j)."""
    n = alg.n
    col = [{a: d[a][j] for a in range(n) if d[a][j]} for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            res: dict = {}
            for t, c in alg.pair(i, j).items():
                add_into(res, col[t], c)
            add_into(res, bracket(alg, col[i], unit(j)), -1)
            add_into(res, bracket(alg, unit(i), col[j]), -1)
            if res:
                return False
    return True


# ---------------------------------------------------------------------------
# Modular linear algebra


def mod(value) -> int:
    value = Fraction(value)
    return value.numerator % P * pow(value.denominator % P, P - 2, P) % P


def echelon_mod_p(rows: Iterable[dict]) -> dict[int, dict[int, int]]:
    """Echelon form modulo P of sparse rows ``{column: residue}``, keyed by
    pivot column; each stored row has pivot entry 1."""
    pivots: dict[int, dict[int, int]] = {}
    for raw in rows:
        row = {c: v % P for c, v in raw.items() if v % P}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], P - 2, P)
                pivots[c] = {cc: vv * inv % P for cc, vv in row.items()}
                break
            f = row[c]
            for cc, vv in prow.items():
                w = (row.get(cc, 0) - f * vv) % P
                if w:
                    row[cc] = w
                else:
                    row.pop(cc, None)
    return pivots


def rank_mod_p(rows: Iterable[dict]) -> int:
    return len(echelon_mod_p(rows))


def _mod_table(alg: Alg):
    """``left[(i, r)]`` lists (t, c_it^r); ``right[(j, r)]`` lists (t, c_tj^r)."""
    left: dict = {}
    right: dict = {}
    for (i, j), terms in alg.table.items():
        for k, c in terms.items():
            m = mod(c)
            left.setdefault((i, k), []).append((j, m))
            right.setdefault((j, k), []).append((i, m))
    return left, right


def _row(entries) -> dict:
    row: dict[int, int] = {}
    for col, val in entries:
        row[col] = (row.get(col, 0) + val) % P
    return row


def bider_kernel_dim_mod_p(alg: Alg, mode: str = "all") -> int:
    """Upper bound on dim BiDer (or its symmetric/skew part).

    Unknown b_ij^k sits at column k*n^2 + i*n + j.
    """
    n = alg.n
    nn = n * n
    left, right = _mod_table(alg)
    pairs = {key: [(k, mod(c)) for k, c in terms.items()] for key, terms in alg.table.items()}

    def rows():
        for i in range(n):
            for j in range(n):
                pij = pairs.get((i, j), ())
                for k in range(n):
                    for r in range(n):
                        yield _row(
                            [(r * nn + t * n + k, c) for t, c in pij]
                            + [(t * nn + j * n + k, -c) for t, c in left.get((i, r), ())]
                            + [(t * nn + i * n + k, -c) for t, c in right.get((j, r), ())]
                        )
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    pjk = pairs.get((j, k), ())
                    for r in range(n):
                        yield _row(
                            [(r * nn + i * n + t, c) for t, c in pjk]
                            + [(t * nn + i * n + j, -c) for t, c in right.get((k, r), ())]
                            + [(t * nn + i * n + k, -c) for t, c in left.get((j, r), ())]
                        )
        if mode != "all":
            sign = -1 if mode == "symmetric" else 1
            for k in range(n):
                for i in range(n):
                    for j in range(i, n):
                        yield _row([(k * nn + i * n + j, 1), (k * nn + j * n + i, sign)])

    return n ** 3 - rank_mod_p(rows())


def v_dims_mod_p(alg: Alg) -> tuple[int, int, int]:
    """(dim V, dim V+, dim V-) for V = {M : exists Q, M A_i = A_i Q}.

    With (A_i)_ab = c_ab^i, ``left[(a, i)]`` lists row a of A_i and
    ``right[(b, i)]`` its column b.
    """
    n = alg.n
    nn = n * n
    left, right = _mod_table(alg)
    joint = []
    q_only = []
    for i in range(n):
        for a in range(n):
            for b in range(n):
                m_part = [(a * n + s, c) for s, c in right.get((b, i), ())]
                q_part = [(nn + s * n + b, -c) for s, c in left.get((a, i), ())]
                joint.append(_row(m_part + q_part))
                q_only.append(_row(q_part))
    v_dim = (2 * nn - rank_mod_p(joint)) - (nn - rank_mod_p(q_only))

    def sym_dim(sign: int) -> int:
        # (M A_i)_ab - sign (M A_i)_ba = 0 for a <= b
        rows = []
        for i in range(n):
            for a in range(n):
                for b in range(a, n):
                    rows.append(_row(
                        [(a * n + s, c) for s, c in right.get((b, i), ())]
                        + [(b * n + s, -sign * c) for s, c in right.get((a, i), ())]
                    ))
        return nn - rank_mod_p(rows)

    return v_dim, sym_dim(1), sym_dim(-1)


def derivation_dim_mod_p(alg: Alg) -> int:
    """Upper bound on dim Der; D[r][t] = (D e_t)_r sits at column r*n + t."""
    n = alg.n
    left, right = _mod_table(alg)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            pij = [(k, mod(c)) for k, c in alg.pair(i, j).items()]
            for r in range(n):
                rows.append(_row(
                    [(r * n + t, c) for t, c in pij]
                    + [(t * n + i, -c) for t, c in right.get((j, r), ())]
                    + [(t * n + j, -c) for t, c in left.get((i, r), ())]
                ))
    return n * n - rank_mod_p(rows)


def center_dim_mod_p(alg: Alg) -> int:
    n = alg.n
    right = _mod_table(alg)[1]
    rows = [_row(right.get((j, r), ())) for j in range(n) for r in range(n)]
    return n - rank_mod_p(rows)


def killing_rank_mod_p(alg: Alg) -> int:
    """Rank of K_ij = trace(ad_i ad_j) = sum_{r,t} c_it^r c_jr^t."""
    n = alg.n
    ad = [[[mod(alg.pair(i, t).get(r, 0)) for t in range(n)] for r in range(n)] for i in range(n)]
    rows = []
    for i in range(n):
        row = {}
        for j in range(n):
            v = sum(ad[i][r][t] * ad[j][t][r] for r in range(n) for t in range(n)) % P
            if v:
                row[j] = v
        rows.append(row)
    return rank_mod_p(rows)


def lower_central_dims_mod_p(alg: Alg) -> list[int]:
    """Dimensions of L^1 = [L, L], L^2 = [L, L^1], ... as the program lists
    them: the series stops after the first term that is zero or repeats."""
    n = alg.n

    def span(vectors: list[dict]) -> list[dict]:
        return list(echelon_mod_p(vectors).values())

    def brk(i: int, vec: dict) -> dict:
        out: dict[int, int] = {}
        for t, v in vec.items():
            for k, c in alg.pair(i, t).items():
                out[k] = (out.get(k, 0) + v * mod(c)) % P
        return out

    if n == 0:
        return [0]
    current = span([{k: mod(c) for k, c in alg.pair(i, j).items()}
                    for i in range(n) for j in range(i + 1, n)])
    dims = [len(current)]
    while current:
        nxt = span([brk(i, v) for i in range(n) for v in current])
        dims.append(len(nxt))
        if len(nxt) == len(current):
            break
        current = nxt
    return dims


def derived_dim(alg: Alg) -> int:
    return lower_central_dims_mod_p(alg)[0]


# ---------------------------------------------------------------------------
# Documents


def to_document(alg: Alg, name: str) -> dict:
    grouped: dict = {}
    for (i, j, k), c in sorted(alg.constants().items()):
        grouped.setdefault((i, j), []).append({"coeff": str(c), "index": k})
    doc = {
        "name": name,
        "dim": alg.n,
        "basis": list(alg.names),
        "brackets": [
            {"left": i, "right": j, "result": terms}
            for (i, j), terms in sorted(grouped.items())
        ],
    }
    if alg.factors:
        doc["factors"] = list(alg.factors)
    return doc


def from_document(doc: dict) -> Alg:
    constants: dict = {}
    for entry in doc.get("brackets", []):
        for term in entry["result"]:
            key = (entry["left"], entry["right"], term["index"])
            constants[key] = constants.get(key, 0) + Fraction(term["coeff"])
    return Alg(doc["dim"], constants, doc.get("basis"), doc.get("factors"))


def bider_document(mats) -> dict:
    return {"dim": len(mats), "mats": [[[str(v) for v in row] for row in m] for m in mats]}


def inner_bider(alg: Alg, scalars: Sequence[Fraction]) -> list[list[list[Fraction]]]:
    """B(x, y) = lambda_b [x, y] blockwise: B_k = lambda_block(k) A_k."""
    n = alg.n
    blocks = alg.blocks()
    mats = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), terms in alg.table.items():
        for k, c in terms.items():
            mats[k][i][j] = scalars[blocks[k]] * c
    return mats

