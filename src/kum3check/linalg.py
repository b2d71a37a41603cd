"""Exact linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` values, which are always stored in
lowest terms with a positive denominator.  ``str(Fraction)`` gives ``p/q``
(or ``p`` when the denominator is 1), and that string is the wire format
of every config file and report in this package; f-strings with an empty
format spec give the same string.

Matrices are immutable and have one stored form: for every row, the lcm of
its denominators and the nonzero cells scaled by it to integers, as a
``{column: int}`` dict in no set key order.  ``Fraction`` is the boundary
type: it goes in and comes out, but the inner loops run on Python
integers.  One helper, ``integer_cells``, is the one way from rationals to
integers: it takes a sequence or a ``{key: value}`` mapping and gives the
nonzero cells as a ``{key: int}`` dict, by position or by key.  It skips a
cell that is the shared ``ZERO`` by identity and reads every other cell
once, through ``as_integer_ratio()``, so no loop calls
``Fraction.__bool__`` or the ``numerator`` and ``denominator``
properties; cells that are all ints are their own integer form.  A row is
given either as a sequence of cells or as a ``{column: value}`` mapping
of its cells, with ``cols`` giving the width; both go through
``integer_cells`` to the same integer row dict, zeros dropped, and a
mapping row keeps its key order.  A mapping is never scanned beyond its
cells, so a sparse row costs what its support costs.  Two matrices are
equal when their widths and stored rows are, whatever the key order.  The
dense ``Fraction`` rows (``entries``) are a view, built from the sparse
rows at each read; their zero cells are ``ZERO`` itself, and equal cells
of one row are one object.  A matrix is not hashable.

Every zero cell of a result is ``ZERO``, and ``kernel_basis``,
``solve_linear``, ``combine``, ``pairings`` and ``mat_vec`` build one
``Fraction`` per distinct value of a result, so that equal cells are one
object and callers compare cells by identity (``is ZERO``, ``list.count``)
without calling into ``Fraction``.
``mat_vec`` is a product by columns over a column index built on first
use, with its cells scaled then to the lcm of the row denominators: the
vector is scaled to integers once, each of its nonzero cells adds into the
rows that meet its column, and a zero cell costs nothing.
``pairings`` gives u^T M v for two families of vectors: it scales each
vector once and forms the integer row combination u^T M once per u.
``combine`` sums c * v over one common denominator.

Row reduction is done fraction-free (Bareiss 1968, Math. Comp. 22) on the
same row dicts, one row at a time in the order given: a row is reduced by
the pivot of its least column (its least key, as no code reads the order
of a row's keys) for as long as that column has one, and then becomes the
pivot of the column where it stops, or is dropped when it reduces to
zero.  No row moves: a row is copied at its first update; a
pivot is kept as it is, and the ``{pivot column: row}`` echelon is sorted
by column at the end.  Fraction-free elimination is exact for any choice
of pivot row, and the rank, the free columns, the reduced echelon kernel
basis and a unique solution do not depend on it.  A pivot row is divided
by its content (gcd of the entries) on its first use, and a row it reduces
is cross-multiplied with it over the gcd of their pivot-column cells and
divided by its content.  An update reads the updated row at the pivot's
columns, and then every cell of it for its content.  A matrix is
eliminated at most once: the echelon is memoised on the matrix and shared
by ``rank`` and ``kernel_basis``.  Back substitution visits bottom-up only
the rows that a vector reaches through its nonzero coordinates, and keeps
one common denominator, so it stays in integers too.  ``solve_linear``
returns the unique solution of a system and raises ``ValueError`` when
there is none or more than one; it eliminates the integer rows of [A | b]
that an augmented ``Matrix`` would hold, without building one.  The unit
tests compare every routine with textbook ``Fraction`` formulas, and the
elimination with a dense integer column sweep under the same pivot rule,
on random matrices.
"""

from collections.abc import Mapping
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int or a Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# The one zero that results share; ``is ZERO`` tests skip a call into
# ``Fraction`` for the commonest cell of a sparse row.
ZERO = Fraction(0)

# The cell types whose ``as_integer_ratio()`` is read as it is; a sequence
# that holds a cell of any other type goes through ``rat`` first.  Cells
# that are all ints are their own integer form.
_EXACT = {Fraction, int}
_INT = {int}


def integer_cells(values: Sequence[RationalLike] | Mapping) -> tuple[int, dict]:
    """``(L, cells)``: the nonzero values, by position for a sequence and by
    key for a mapping, times the lcm ``L`` of their denominators, as a
    ``{key: int}`` dict in the order of the input.

    A ``ZERO`` cell is skipped by identity, and only the other cells are
    type-checked.  Cells that are all ints are their own integer form;
    otherwise each cell is read once, through ``as_integer_ratio()``, and
    dropped when its numerator is 0.
    """
    if type(values) is dict or isinstance(values, Mapping):
        cells = {k: x for k, x in values.items() if x is not ZERO}
    else:
        cells = {j: x for j, x in enumerate(values) if x is not ZERO}
    types = set(map(type, cells.values()))
    if types <= _INT:
        if not all(cells.values()):
            cells = {k: a for k, a in cells.items() if a}
        return 1, cells
    if not types <= _EXACT:
        cells = {k: rat(x) for k, x in cells.items()}
    ratios = {k: x.as_integer_ratio() for k, x in cells.items()}
    if not all([n for n, _ in ratios.values()]):
        ratios = {k: r for k, r in ratios.items() if r[0]}
    scale = lcm(*[d for _, d in ratios.values()])
    if scale == 1:
        return 1, {k: n for k, (n, _) in ratios.items()}
    return scale, {k: n * (scale // d) for k, (n, d) in ratios.items()}


def _fractions(ints: Iterable[int], den: int) -> tuple[Fraction, ...]:
    """``Fraction(a, den)`` for each integer, built once per distinct value:
    equal cells are one object, and every zero is ``ZERO``."""
    ints = tuple(ints)
    if not any(ints):
        return (ZERO,) * len(ints)
    cells = {a: Fraction(a, den) if a else ZERO for a in set(ints)}
    return tuple(map(cells.__getitem__, ints))


class Matrix:
    """Immutable matrix with exact rational entries, stored as sparse
    integer rows.

    Each row is a sequence of cells or a ``{column: value}`` mapping of its
    cells; ``cols`` gives the width, and is needed when no row is a
    sequence.  ``_scaled`` (per-row denominators and the nonzero cells of
    each row scaled by its denominator, as ``{column: int}`` dicts in the
    key order the row came in) is built with the matrix, one
    ``integer_cells`` call per row; dict equality ignores key order, so it
    is canonical, and equality compares it and ``cols``.  ``_columns``
    (the lcm of the row denominators, and the nonzero cells of each column
    over it, as rows and values) and ``_echelon`` (the ``{pivot column:
    row}`` dict of the forward elimination) are filled on first use.
    """

    __slots__ = ("rows", "cols", "_scaled", "_columns", "_echelon")

    def __init__(
        self,
        entries: Iterable[Iterable[RationalLike] | Mapping[int, RationalLike]],
        cols: int | None = None,
    ):
        dens, sparse = [], []
        for row in entries:
            if type(row) is dict or isinstance(row, Mapping):
                if cols is None:
                    raise ValueError("a row given as a mapping needs cols")
                if row and not (0 <= min(row) and max(row) < cols):
                    raise ValueError("mapping row has a column outside the matrix")
            else:
                row = tuple(row)
                if cols is None:
                    cols = len(row)
                elif len(row) != cols:
                    raise ValueError("ragged rows in matrix")
            den, cells = integer_cells(row)
            dens.append(den)
            sparse.append(cells)
        object.__setattr__(self, "rows", len(dens))
        object.__setattr__(self, "cols", cols or 0)
        object.__setattr__(self, "_scaled", (tuple(dens), tuple(sparse)))
        object.__setattr__(self, "_columns", None)
        object.__setattr__(self, "_echelon", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as ``Fraction`` cells; every zero cell is ``ZERO``."""
        data = []
        for den, cells in zip(*self._scaled):
            made = {a: Fraction(a, den) for a in set(cells.values())}
            row = [ZERO] * self.cols
            for j, a in cells.items():
                row[j] = made[a]
            data.append(tuple(row))
        return tuple(data)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and (self.cols, self._scaled) == (
            other.cols, other._scaled
        )

    def _column_index(self) -> tuple[int, list[tuple[list[int], list[int]]]]:
        """The lcm L of the row denominators and, for each column, the rows
        of its nonzero cells and their values times L, as integers."""
        if self._columns is None:
            dens, sparse = self._scaled
            scale = lcm(*dens)
            rows = [[] for _ in range(self.cols)]
            values = [[] for _ in range(self.cols)]
            for i, (den, cells) in enumerate(zip(dens, sparse)):
                k = scale // den
                for j, a in cells.items():
                    rows[j].append(i)
                    values[j].append(k * a)
            object.__setattr__(self, "_columns", (scale, list(zip(rows, values))))
        return self._columns

    def _echelon_form(self) -> dict[int, dict[int, int]]:
        """The memoised forward elimination of the integer rows; read only."""
        if self._echelon is None:
            object.__setattr__(self, "_echelon", _forward_echelon(self._scaled[1]))
        return self._echelon

    def mat_vec(self, x: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        """M x, summed by columns over the nonzero cells of x."""
        v = tuple(x)
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        scale, cells = integer_cells(v)
        row_scale, columns = self._column_index()
        acc = [0] * self.rows
        for j, a in cells.items():
            rows, values = columns[j]
            for i, b in zip(rows, values):
                acc[i] += a * b
        return _fractions(acc, row_scale * scale)

    def pairings(
        self, us: Iterable[Sequence[RationalLike]], vs: Iterable[Sequence[RationalLike]]
    ) -> tuple[tuple[Fraction, ...], ...]:
        """The bilinear forms u^T M v, one row per u and one cell per v.

        Every vector is scaled to integers once, and the integer row
        combination u^T M is formed once per u, over the lcm of all row
        denominators.  Equal nonzero results are one ``Fraction`` object,
        and zero results are ``ZERO``.
        """
        us, vs = [tuple(u) for u in us], [tuple(v) for v in vs]
        if any(len(u) != self.rows for u in us) or any(len(v) != self.cols for v in vs):
            raise ValueError("vector length does not match matrix shape")
        dens, sparse = self._scaled
        row_scale = lcm(*dens)
        scaled_vs = [integer_cells(v) for v in vs]
        # one Fraction per distinct value (keyed by its reduced numerator
        # and denominator), so that equal pairings are one object
        made: dict[tuple[int, int], Fraction] = {}
        out = []
        for u in us:
            u_scale, u_cells = integer_cells(u)
            w = [0] * self.cols
            for i, a in u_cells.items():
                k = a * (row_scale // dens[i])
                for j, b in sparse[i].items():
                    w[j] += k * b
            row = []
            for v_scale, v_cells in scaled_vs:
                t = sum(map(mul, map(w.__getitem__, v_cells), v_cells.values()))
                if t:
                    den = u_scale * row_scale * v_scale
                    g = gcd(t, den)
                    key = t // g, den // g
                    cell = made.get(key)
                    if cell is None:
                        cell = made[key] = Fraction(*key)
                    row.append(cell)
                else:
                    row.append(ZERO)
            out.append(tuple(row))
        return tuple(out)


def _forward_echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Forward elimination of ``{column: int}`` rows, in any key order.

    Returns the echelon as a ``{pivot column: row}`` dict in column order;
    the rows that eliminate to zero are dropped.  One pass takes the rows
    in the order given and moves none: a row is reduced by the pivot of its
    least column (its least key, ``min(row)``) while that column has one,
    and then becomes the pivot of the column where it stops.  So a row is
    updated only by pivots of earlier rows, in increasing column order, as
    in a column sweep that pivots each column on the first row, not yet a
    pivot, with a nonzero cell there.  With k the pivot row's content (gcd
    of the entries) and p its cell in c, a row cur with m in c becomes
    a*cur - b*pivot/k, for g0 = gcd(p/k, m), a = p/(k*g0) and b = m/g0,
    divided by its content: as that is (p*cur - m*pivot)/(k*g0) with
    k*g0 > 0, the echelon is the cross-multiplied one.

    What is read: each row's keys once, for its least column; each pivot
    row's cells once, for its content k, on the pivot's first use; a
    pivot that updates no row is never read.  Each row it updates is read
    at c and at the pivot's columns, and then at every cell for its
    content (the gcd of all its cells).  With a == 1 the row changes in
    place at the pivot's columns; a != 1 rewrites every cell, and so does
    a content above 1.  A row is copied at its first update, so the rows
    given are never changed, and a pivot is kept as the dict it is, with
    no cell left of its pivot column.  A row that no pivot updates (in
    the D certificate, every two-cell step row) is returned as it came.
    """
    echelon: dict[int, dict[int, int]] = {}
    # each used pivot's cell in its column and its other cells (the cell in
    # the column cancels in every update), over its content
    reducers: dict[int, tuple[int, list[tuple[int, int]]]] = {}
    for row in rows:
        if not row:
            continue
        cur = row
        c = min(row)
        while c in echelon:
            reducer = reducers.get(c)
            if reducer is None:
                pivot = echelon[c]
                k = gcd(*pivot.values())
                reducer = reducers[c] = (
                    pivot[c] // k, [(j, w // k) for j, w in pivot.items() if j != c]
                )
            p, tail = reducer
            if cur is row:
                cur = dict(row)
            m = cur.pop(c)
            g0 = gcd(p, m)
            a, b = p // g0, m // g0
            if a != 1:
                cur = {j: a * v for j, v in cur.items()}
            for j, w in tail:
                v = cur.pop(j, 0) - b * w
                if v:
                    cur[j] = v
            if not cur:
                break
            g = gcd(*cur.values())
            if g > 1:
                cur = {j: v // g for j, v in cur.items()}
            c = c + 1 if c + 1 in cur else min(cur)
        else:  # c has no pivot yet; a row that reduced to zero broke out
            echelon[c] = cur
    return dict(sorted(echelon.items()))


def _back_substitute(
    echelon: dict[int, dict[int, int]], width: int, starts: Sequence[dict[int, int]]
) -> list[tuple[Fraction, ...]]:
    """Solve the echelon system for the pivot coordinates of each start vector.

    ``echelon`` is ``Matrix._echelon_form()``: each row by its pivot
    column, in column order.  Each start vector, of length ``width``, is
    given by its nonzero integer cells, all at non-pivot positions.  Each
    column indexes the rows that meet it other than at their pivot.  The
    pivot entries are solved from the bottom row up over one common
    denominator, which grows only when a new entry needs it, so the full
    vector satisfies every echelon row.  A min-heap of row positions,
    counted from the bottom, holds the rows that meet a nonzero coordinate
    of the start or a pivot solved nonzero (rows above it); a row never
    reached, or whose other cells sum to 0, is skipped with no gcd and no
    rescale, as 0 is its solution.  A row is reached once, while its pivot
    coordinate is still 0, so the sum over its other cells is the sum over
    all its cells.
    """
    rows = list(echelon.items())[::-1]
    meets: dict[int, list[int]] = {}
    for pos, (c, row) in enumerate(rows):
        for j in row:
            if j != c:
                meets.setdefault(j, []).append(pos)
    solutions = []
    for start in starts:
        x = [0] * width
        for j, a in start.items():
            x[j] = a
        den = 1
        queued = {pos for j in start for pos in meets.get(j, ())}
        heap = sorted(queued)
        while heap:
            c, row = rows[heappop(heap)]
            acc = sum(map(mul, row.values(), map(x.__getitem__, row)))
            if not acc:
                continue
            p = row[c]
            s = abs(p) // gcd(acc, p)
            if s > 1:
                x = [a * s for a in x]
                den *= s
                acc *= s
            x[c] = -(acc // p)
            for pos in meets.get(c, ()):
                if pos not in queued:
                    queued.add(pos)
                    heappush(heap, pos)
        solutions.append(_fractions(x, den))
    return solutions


def combine(terms: Iterable[tuple[RationalLike, Sequence[Fraction]]]) -> tuple[Fraction, ...]:
    """The sum of c * v over the (c, v) terms, accumulated in integers over
    one common denominator; () for no terms."""
    terms = [(rat(c), v) for c, v in terms]
    if not terms:
        return ()
    width = len(terms[0][1])
    if any(len(v) != width for _, v in terms):
        raise ValueError("vectors of different lengths in combine")
    scaled = [(c, *integer_cells(v)) for c, v in terms]
    den = lcm(*(c.denominator * scale for c, scale, _ in scaled))
    acc = [0] * width
    for c, scale, cells in scaled:
        k = c.numerator * (den // (c.denominator * scale))
        for j, b in cells.items():
            acc[j] += k * b
    return _fractions(acc, den)


def rank(m: Matrix) -> int:
    return len(m._echelon_form())


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel in reduced row-echelon parametrization.

    One vector per free column f, ordered by ascending f: coordinate f is 1,
    the other free coordinates are 0, and pivot coordinates are solved
    exactly.  Returns [] when the kernel is trivial.
    """
    echelon = m._echelon_form()
    starts = [{f: 1} for f in range(m.cols) if f not in echelon]
    return _back_substitute(echelon, m.cols, starts)


def solve_linear(a: Matrix, b: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """The unique solution of A x = b; raises ``ValueError`` when the
    system is inconsistent or underdetermined (fewer pivots than columns)."""
    rhs = tuple(b)
    if not set(map(type, rhs)) <= _EXACT:
        rhs = tuple(map(rat, rhs))
    if len(rhs) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    rows = []
    for den, row, v in zip(*a._scaled, rhs):
        # row i of [A | b] over the lcm den * q of its denominators
        n, d = v.as_integer_ratio()
        q = d // gcd(den, d)
        if q != 1:
            row = {j: x * q for j, x in row.items()}
        rows.append({**row, a.cols: den * q // d * n} if n else row)
    ech = _forward_echelon(rows)
    if a.cols in ech:
        raise ValueError(
            f"inconsistent system: row {len(ech) - 1} reduces to 0 = "
            f"{Fraction(ech[a.cols][a.cols])}"
        )
    if len(ech) < a.cols:
        free = [c for c in range(a.cols) if c not in ech]
        raise ValueError(f"underdetermined system: free columns {free}")
    return _back_substitute(ech, a.cols + 1, [{a.cols: -1}])[0][: a.cols]
