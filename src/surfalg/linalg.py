"""Exact sparse linear algebra over a field: the package's only matrix layer.

A *row* is a dict mapping column keys to nonzero scalars, and a matrix is a
list of rows.  Column keys can be any hashable, sortable-by-str values.
There are two elimination routines: :func:`rank_of_rows` counts pivots and
nothing else, and :class:`RowSolver` also tracks how each echelon row
combines the inputs, for solving and left kernels.  Both pick pivots
deterministically, so every routine here is reproducible run to run.  Row
updates, and element arithmetic on algebra elements (sparse rows over
basis indices), all go through the field's own kernel ``field.axpy``.
"""


def _ckey(col):
    return (str(col), repr(col))


def rows_mul(a, b, field):
    """The product a . b of two matrices given as lists of sparse rows.

    The columns of ``a`` index the rows of ``b``.
    """
    out = []
    for row in a:
        acc = {}
        for k, v in row.items():
            field.axpy(acc, b[k].items(), v)
        out.append(acc)
    return out


class RowSolver:
    """Echelonized span of a list of sparse rows, with transform tracking.

    Supports rank, reduction against the span, solving ``x . rows = target``
    and the left kernel ``{x : x . rows = 0}``.
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
                r = field.axpy({}, r.items(), s)
                t = field.axpy({}, t.items(), s)
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
            field.axpy(r, er.items(), s)
            if t is not None:
                field.axpy(t, et.items(), s)

    @property
    def rank(self):
        return len(self.ech)

    def residual(self, target):
        """Reduce ``target`` against the span; empty dict means membership."""
        r = dict(target)
        self._reduce(r, None)
        return r

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
        return field.axpy({}, neg_x.items(), field.neg(field.one))

    def kernel(self):
        """Basis of the left kernel, as dicts over original row indices."""
        return [dict(t) for t in self._zero_transforms]


def rank_of_rows(rows, field):
    """Rank of the span of sparse rows, by rank-only elimination.

    Each row is reduced against the pivot rows found so far, and a row
    that does not vanish adds one pivot: its first column in dict order,
    with the row scaled to 1 there.  Any nonzero entry is a valid pivot
    for counting, and dict order follows the order the row's entries were
    made in, so the choice is deterministic.  A row of one entry scales
    to ``{c: 1}`` with no arithmetic.  No row is modified, and no
    transform is kept: the rank equals ``RowSolver(rows, field).rank``.
    """
    axpy_, inv, neg, one = field.axpy, field.inv, field.neg, field.one
    pivots = {}  # pivot column -> pivot row, 1 at the pivot column
    for row in rows:
        r = row
        while r:
            for c in r:
                pr = pivots.get(c)
                if pr is not None:
                    break
            else:
                c = next(iter(r))
                pivots[c] = ({c: one} if len(r) == 1
                             else axpy_({}, r.items(), inv(r[c])))
                break
            if r is row:
                r = dict(row)
            axpy_(r, pr.items(), neg(r[c]))
    return len(pivots)


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
