"""Exact sparse linear algebra over a field: the package's only matrix layer.

A *row* is a dict mapping column keys to nonzero scalars, and a matrix is a
list of rows.  Column keys can be any hashable, sortable-by-str values;
elimination picks pivots deterministically, so every routine here is
reproducible run to run.  Algebra elements are sparse rows over basis
indices, so :func:`axpy` is also the one loop behind element arithmetic.
"""


def _ckey(col):
    return (str(col), repr(col))


def axpy(dst, pairs, s, field):
    """In place ``dst += s * src`` for ``src`` given as (key, scalar) pairs.

    Entries that cancel are removed, so ``dst`` stays a sparse row with
    nonzero values only.  Returns dst.
    """
    zero = field.zero
    for c, v in pairs:
        w = field.add(dst.get(c, zero), field.mul(s, v))
        if w == zero:
            dst.pop(c, None)
        else:
            dst[c] = w
    return dst


def rows_mul(a, b, field):
    """The product a . b of two matrices given as lists of sparse rows.

    The columns of ``a`` index the rows of ``b``.
    """
    out = []
    for row in a:
        acc = {}
        for k, v in row.items():
            axpy(acc, b[k].items(), v, field)
        out.append(acc)
    return out


class RowSolver:
    """Echelonized span of a list of sparse rows, with transform tracking.

    Supports rank, membership, solving ``x . rows = target`` and the left
    kernel ``{x : x . rows = 0}``.
    """

    def __init__(self, rows, field):
        self.field = field
        # Echelon rows paired with the combination of inputs producing them.
        self.ech = []  # list of (pivot_col, row_dict, transform_dict)
        self.pivots = {}  # pivot_col -> index into self.ech
        self._zero_transforms = []
        for i, row in enumerate(rows):
            r = dict(row)
            t = {i: field.one}
            self._reduce(r, t)
            if r:
                piv = min(r, key=_ckey)
                s = field.inv(r[piv])
                r = axpy({}, r.items(), s, field)
                t = axpy({}, t.items(), s, field)
                self.pivots[piv] = len(self.ech)
                self.ech.append((piv, r, t))
            else:
                self._zero_transforms.append(t)

    def _reduce(self, r, t):
        """Clear the pivot columns of r in place; t (if given) tracks ``-x``.

        Afterwards ``r`` equals its input minus ``x . rows``, and ``t`` has
        gained ``-x``.
        """
        field = self.field
        while True:
            hit = None
            for c in r:
                k = self.pivots.get(c)
                if k is not None:
                    hit = (c, k)
                    break
            if hit is None:
                return
            c, k = hit
            _, er, et = self.ech[k]
            s = field.neg(r[c])
            axpy(r, er.items(), s, field)
            if t is not None:
                axpy(t, et.items(), s, field)

    @property
    def rank(self):
        return len(self.ech)

    def residual(self, target):
        """Reduce ``target`` against the span; empty dict means membership."""
        r = dict(target)
        self._reduce(r, None)
        return r

    def contains(self, target):
        return not self.residual(target)

    def solve(self, target):
        """Return x (dict row-index -> scalar) with ``x . rows = target``.

        Returns None when the target is outside the span.
        """
        field = self.field
        r = dict(target)
        neg_x = {}
        self._reduce(r, neg_x)
        if r:
            return None
        return axpy({}, neg_x.items(), field.neg(field.one), field)

    def kernel(self):
        """Basis of the left kernel, as dicts over original row indices."""
        return [dict(t) for t in self._zero_transforms]


def rank_of_rows(rows, field):
    """Rank of the span of sparse rows, by deterministic elimination."""
    return RowSolver(rows, field).rank


def det_int(mat):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def intersection_dim(rows_u, rows_v, field):
    """Dimension of (span of rows_u) intersected with (span of rows_v)."""
    ru = rank_of_rows(rows_u, field)
    rv = rank_of_rows(rows_v, field)
    rs = rank_of_rows(list(rows_u) + list(rows_v), field)
    return ru + rv - rs
