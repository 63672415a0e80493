"""Small dense matrices in Python floats, in one fixed order.

Every p x p and L x p matrix of the package (p and L are a handful) is
factored, solved, inverted and multiplied here instead of in numpy's BLAS
and LAPACK: GMM's weight, steps and sandwich, the OLS normal equations and
the Wald precision. Every result is a sequence of IEEE operations that
this code fixes, each sum added term by term in index order, so its bits
depend on the inputs alone, not on the kernels a host's OpenBLAS or numpy
dispatch picks, and a process that does its small algebra here never loads
those kernels.

A matrix is a list of row lists and a vector a list; anything indexed the
same way (an ndarray's ``tolist()``, or the array itself) will do. Results
are new lists of Python floats. The symmetric positive definite routines
read the lower triangle only.
"""

from __future__ import annotations

import math

# One-sided Jacobi stops rotating a pair of columns once their cosine is at
# most this many ulps times the row count, and after at most this many sweeps.
_JACOBI_TOL = 2.0**-52
_JACOBI_SWEEPS = 40


class Singular(ArithmeticError):
    """A pivot was zero or not finite."""


class NotPositiveDefinite(Singular):
    """A Cholesky pivot was not a finite positive number."""


def dot(x, y) -> float:
    """sum_k x_k y_k, added in order of k."""
    s = 0.0
    for a, b in zip(x, y):
        s += a * b
    return s


def matvec(a, x) -> list[float]:
    """a x."""
    return [dot(row, x) for row in a]


def matmul(a, b) -> list[list[float]]:
    """a b."""
    cols = list(zip(*b))
    return [[dot(row, c) for c in cols] for row in a]


def tmatvec(a, x) -> list[float]:
    """a' x."""
    return [dot(c, x) for c in zip(*a)]


def gram(a) -> list[list[float]]:
    """a' a: the upper triangle, mirrored."""
    cols = list(zip(*a))
    g = []
    for i, ci in enumerate(cols):
        g.append([g[j][i] for j in range(i)] + [dot(ci, cj) for cj in cols[i:]])
    return g


def trace(a) -> float:
    """The sum of the diagonal, in order."""
    s = 0.0
    for i, row in enumerate(a):
        s += row[i]
    return s


def isfinite(a) -> bool:
    """Whether every entry of the matrix ``a`` is finite."""
    return all(math.isfinite(v) for row in a for v in row)


def cholesky(a, shift: float = 0.0) -> list[list[float]]:
    """The lower triangular L with L L' = a + shift I.

    Raises NotPositiveDefinite unless every pivot is finite and positive,
    which refuses any NaN or infinity in the lower triangle too."""
    n = len(a)
    low = [[0.0] * n for _ in range(n)]
    for j in range(n):
        lj = low[j]
        d = a[j][j] + shift
        for k in range(j):
            d -= lj[k] * lj[k]
        if not 0.0 < d < math.inf:
            raise NotPositiveDefinite(f"pivot {j} is {d!r}")
        ljj = lj[j] = math.sqrt(d)
        for i in range(j + 1, n):
            li = low[i]
            s = a[i][j]
            for k in range(j):
                s -= li[k] * lj[k]
            li[j] = s / ljj
    return low


def cho_solve(low, b) -> list[float]:
    """x with L L' x = b, for the factor L from :func:`cholesky`."""
    n = len(low)
    y = [0.0] * n
    for i in range(n):
        li = low[i]
        s = b[i]
        for k in range(i):
            s -= li[k] * y[k]
        y[i] = s / li[i]
    x = [0.0] * n
    for i in reversed(range(n)):
        s = y[i]
        for k in range(i + 1, n):
            s -= low[k][i] * x[k]
        x[i] = s / low[i][i]
    return x


def spd_inverse(a, shift: float = 0.0) -> list[list[float]]:
    """(a + shift I)^-1 = L^-T L^-1 from the Cholesky factor, symmetric bit
    for bit; NotPositiveDefinite as :func:`cholesky`."""
    low = cholesky(a, shift)
    n = len(low)
    inv = [[0.0] * n for _ in range(n)]  # L^-1, lower triangular
    for j in range(n):
        inv[j][j] = 1.0 / low[j][j]
        for i in range(j + 1, n):
            li = low[i]
            s = 0.0
            for k in range(j, i):
                s -= li[k] * inv[k][j]
            inv[i][j] = s / li[i]
    return gram(inv)


def solve(a, b) -> list[list[float]]:
    """x with a x = b for the square ``a`` and the matrix ``b`` of as many rows.

    Gaussian elimination with partial pivoting, each pivot the first entry
    of largest magnitude in its column. Raises Singular unless ``a`` is
    finite and every pivot nonzero and finite."""
    if not isfinite(a):
        raise Singular("matrix is not finite")
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        pk = rows[k]
        if not 0.0 < abs(pk[k]) < math.inf:
            raise Singular(f"pivot {k} is {pk[k]!r}")
        for ri in rows[k + 1 :]:
            f = ri[k] / pk[k]
            for j in range(k + 1, len(ri)):
                ri[j] -= f * pk[j]
    x = [row[n:] for row in rows]
    for i in reversed(range(n)):
        ri, xi = rows[i], x[i]
        for c in range(len(xi)):
            s = xi[c]
            for k in range(i + 1, n):
                s -= ri[k] * x[k][c]
            xi[c] = s / ri[i]
    return x


def singular_values(a) -> list[float]:
    """The singular values of the m x n matrix ``a`` (m >= n, finite), ascending.

    One-sided Jacobi (Hestenes 1958): plane rotations make the columns
    mutually orthogonal, and the singular values are then their norms, with
    a small relative error for the small ones as well as the large ones
    wherever the columns, scaled to unit norm, are well conditioned
    (Demmel & Veselic 1992). The matrix is first scaled by a power of two,
    exactly, so that its largest entry lies in [0.5, 1) and no square
    overflows or underflows for want of scale.
    """
    cols = [list(c) for c in zip(*a)]
    big = max((abs(v) for c in cols for v in c), default=0.0)
    if big == 0.0:
        return [0.0] * len(cols)
    e = math.frexp(big)[1]
    cols = [[math.ldexp(v, -e) for v in c] for c in cols]
    tol = _JACOBI_TOL * len(cols[0])
    n = len(cols)
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                ci, cj = cols[i], cols[j]
                gamma = dot(ci, cj)
                alpha, beta = dot(ci, ci), dot(cj, cj)
                if abs(gamma) <= tol * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                cols[i] = [c * u - s * v for u, v in zip(ci, cj)]
                cols[j] = [s * u + c * v for u, v in zip(ci, cj)]
        if not rotated:
            break
    return sorted(math.ldexp(math.sqrt(dot(c, c)), e) for c in cols)
