"""Exact sparse linear algebra over a field: the package's only matrix layer.

A *row* is a dict mapping column keys to nonzero scalars, and a matrix is a
list of rows.  Column keys can be any hashable, sortable-by-str values.
There are two eliminations, each keeping only what its callers read,
since a kept transform costs one more axpy per reduction step.  A
pivots-only loop serves :func:`rank_of_rows`, which counts pivots, and
:func:`pivot_columns`, which picks each pivot by the least (``str``,
``repr``) key, the rule that decides which coordinates a syzygy's cover
takes as generators.  :class:`RowSolver` also tracks how each echelon
row combines the inputs, for solving and left kernels.  All pick pivots
deterministically, so every routine here is reproducible run to run.

Most rows met in practice have one entry or none, and both eliminations
take those without the general steps.  In :class:`RowSolver` an empty
row is the kernel vector ``{i: 1}``, and a row ``{c: v}`` whose column c
is not yet a pivot is the echelon row ``{c: 1}`` with transform
``{i: 1/v}``: reduction leaves it as it is (none of its columns is a
pivot), c is its least column, and scaling by 1/v gives exactly those.
The least-key pick returns the only column of a one-entry row with no
key computed.

Row updates, and element arithmetic on algebra elements (sparse rows
over basis indices), all go through the field's own kernel
``field.axpy``.
"""

from math import gcd, lcm


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
    and the left kernel ``{x : x . rows = 0}``.  Each pivot is the least
    column of its reduced row by (``str``, ``repr``) key.

    ``kernel_rows[p]`` is the input index of the row that reduced to zero
    and gave kernel vector p.  The kernel carries an identity block there:
    kernel vector p is 1 at ``kernel_rows[p]`` and 0 at every other
    kernel row's index, because the transform t of input i starts as
    {i: 1} and only gains multiples of echelon transforms, and an echelon
    transform touches only the input indices of echelon rows.  So for y in
    the span of the kernel, the unique x with ``x . kernel() = y`` is
    ``x_p = y[kernel_rows[p]]``, read off with no elimination.
    """

    def __init__(self, rows, field):
        self.field = field
        # Echelon rows paired with the combination of inputs producing them.
        self.ech = []  # list of (pivot_col, row_dict, transform_dict)
        self.pivots = {}  # pivot_col -> index into self.ech
        self._zero_transforms = []
        self.kernel_rows = []
        one, inv = field.one, field.inv
        for i, row in enumerate(rows):
            if not row:
                self._zero_transforms.append({i: one})
                self.kernel_rows.append(i)
                continue
            if len(row) == 1:
                (c, v), = row.items()
                if c not in self.pivots:
                    self.pivots[c] = len(self.ech)
                    self.ech.append((c, {c: one}, {i: inv(v)}))
                    continue
            r = dict(row)
            t = {i: one}
            self._reduce(r, t)
            if r:
                piv = _least_column(r)
                s = inv(r[piv])
                r = field.axpy({}, r.items(), s)
                t = field.axpy({}, t.items(), s)
                self.pivots[piv] = len(self.ech)
                self.ech.append((piv, r, t))
            else:
                self._zero_transforms.append(t)
                self.kernel_rows.append(i)

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


def _pivot_rows(rows, field, pick):
    """Pivots-only elimination: pivot column -> pivot row, no row modified.

    A row is reduced against the pivot rows found so far and, unless it
    vanishes, adds the pivot ``pick(r)`` of its reduced row r (a row of
    one entry adds ``{c: 1}``).  Over F_p a pivot row is 1 at its pivot
    and a step is r <- r - r[c].p.  Over Q no ``Fraction`` is formed: r
    is scaled to integers by the lcm of its denominators, a pivot row
    keeps a positive integer p[c], and a step is r <- a.r - b.p, a = p[c]
    and b = r[c] over gcd(a, b), then, if p[c] > 1, r over its content.  By
    induction each r is a nonzero multiple of the row that rational
    elimination (pivot rows 1 at the pivot) reaches: a.r - b.p is a.k
    times r' - r'[c].p' for r = k.r' and p = p[c].p'.  So each entry is
    zero exactly when it is there, the same keys are set and popped in
    the same order, and both picks see the same rows: ranks, pivot sets
    and pivot order are those of rational elimination.
    """
    axpy_, inv, neg, one = field.axpy, field.inv, field.neg, field.one
    exact = not field.char
    pivots = {}
    for row in rows:
        r = row
        while r:
            for c in r:
                pr = pivots.get(c)
                if pr is not None:
                    break
            else:
                c = pick(r)
                if len(r) == 1:
                    pivots[c] = {c: one}
                elif not exact:
                    pivots[c] = axpy_({}, r.items(), inv(r[c]))
                else:
                    r = _integral(row) if r is row else r
                    pivots[c] = r if r[c] > 0 else {k: -v for k, v in r.items()}
                break
            if r is row:
                r = _integral(row) if exact else dict(row)
            a, b = pr[c], r[c]
            if a == 1:
                axpy_(r, pr.items(), neg(b))
                continue
            g = gcd(a, b)
            a //= g
            r = {k: a * v for k, v in r.items()}
            axpy_(r, pr.items(), -b // g)
            g = gcd(*r.values())
            if g > 1:
                r = {k: v // g for k, v in r.items()}
    return pivots


def _integral(row):
    """A copy of a Q row times the lcm of its entries' denominators."""
    d = lcm(*[v.denominator for v in row.values() if type(v) is not int])
    return {k: v.numerator * (d // v.denominator) for k, v in row.items()}


def _first_column(r):
    return next(iter(r))


def _least_column(r):
    return next(iter(r)) if len(r) == 1 else min(r, key=_ckey)


def rank_of_rows(rows, field):
    """Rank of the span of sparse rows, by pivots-only elimination.

    The pivot of each row is its first column in dict order: any nonzero
    entry is a valid pivot for counting, and dict order follows the order
    the row's entries were made in, so the choice is deterministic.  The
    rank equals ``RowSolver(rows, field).rank``.
    """
    return len(_pivot_rows(rows, field, _first_column))


def pivot_columns(rows, field):
    """The pivot columns of ``RowSolver(rows, field)``, with no transforms.

    The pivot of each row is the least column of its reduced row by
    (``str``, ``repr``) key, as in :class:`RowSolver`.  The reduced row is
    fixed by the rows before it, whatever the order of the steps: the
    pivot rows restrict to an invertible (unitriangular) block on the
    pivot columns, so exactly one vector of their span agrees with the
    row there, and the reduced row is the row minus that vector.  So both
    routines pick the same pivot for every row, and the returned set
    equals ``set(RowSolver(rows, field).pivots)``.
    """
    return set(_pivot_rows(rows, field, _least_column))


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
