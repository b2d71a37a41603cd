"""Exact linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` values, which are always stored in
lowest terms with a positive denominator.  ``str(Fraction)`` gives ``p/q``
(or ``p`` when the denominator is 1), and that string is the wire format
of every config file and report in this package; f-strings with an empty
format spec give the same string.

Matrices are immutable and have one stored form: for every row, the lcm of
its denominators and the nonzero cells scaled by it to integers, as
(columns, values).  ``Fraction`` is the boundary type: it goes in and comes
out, but the inner loops run on Python integers, and one helper,
``scaled_integers``, brings every row and vector to them.  A row is given
either as a sequence of cells or as a ``{column: value}`` mapping of its
cells, with ``cols`` giving the width; both become the same sparse integer
row when the matrix is built, and zeros are dropped from both.  Only the
nonzero cells of a sequence are read and scaled; a cell that is the shared
``ZERO`` is skipped without calling into ``Fraction``, and a mapping is
never scanned beyond its cells, so a sparse row costs what its support
costs.  The dense ``Fraction`` rows (``entries``) are built from the sparse
rows only when something reads them, such as equality or rendering; their
zero cells are ``ZERO`` itself.  A matrix is not hashable.

``mat_vec`` is a product by columns over a column index built on first
use: the vector is scaled to integers once, each of its nonzero cells
adds into the rows that meet its column, and a zero cell costs nothing.
A row that meets no nonzero cell of the vector yields ``ZERO`` without a
``Fraction`` call; every other result is one ``Fraction``.  ``pair``
forms the integer row combination first and reads the second vector only
where that combination is nonzero.

Row reduction is done fraction-free (Bareiss 1968, Math. Comp. 22) on the
same sparse rows: the pivot row is divided by its content (gcd of the
entries) once, and a row below it is cross-multiplied with that row over
the gcd of their pivot-column cells and divided by its content.  An update
reads only the pivot's cells, and rows are kept by their first nonzero
column, so the rows to update below a pivot are found without a scan.  A
matrix is eliminated at most once: the sparse echelon rows are memoised on
the matrix and shared by ``rank`` and ``kernel_basis``.  Back substitution
splits each echelon row into its pivot and tail once per call, visits
bottom-up only the rows that a vector reaches through its nonzero
coordinates, and keeps one common denominator, so it stays in integers
too.  ``solve_linear`` returns the unique solution of a system and raises
``ValueError`` when there is none or more than one; it eliminates the
integer rows of [A | b] that an augmented ``Matrix`` would hold, without
building one.  The unit tests compare every routine with textbook
``Fraction`` formulas, and the elimination with the dense integer
elimination, on random matrices.
"""

from collections.abc import Mapping
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int]
# The nonzero cells of one integer row: their columns and their values.
SparseRow = tuple[tuple[int, ...], tuple[int, ...]]


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


def vector(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """The values as a tuple of ``Fraction``; ``rat`` runs only on values
    that hold a cell of another type."""
    values = tuple(values)
    if set(map(type, values)) <= {Fraction}:
        return values
    return tuple(map(rat, values))


def support(values: Sequence[Fraction]) -> list[int]:
    """Indices of the nonzero values; a ``ZERO`` cell costs no ``Fraction`` call."""
    return [j for j, x in enumerate(values) if x is not ZERO and x]


def scaled_integers(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(L, [x * L for x in values])`` for the lcm ``L`` of the denominators.

    A zero cell has denominator 1 and scales to 0; callers with sparse
    values pass only their nonzero cells.
    """
    dens = [x.denominator for x in values]
    scale = lcm(*dens)
    return scale, [x.numerator * (scale // d) for x, d in zip(values, dens)]


class Matrix:
    """Immutable matrix with exact rational entries, stored as sparse
    integer rows.

    Each row is a sequence of cells or a ``{column: value}`` mapping of its
    cells; ``cols`` gives the width, and is needed when no row is a
    sequence.  ``_scaled`` (per-row denominators and the nonzero cells of
    each row scaled by its denominator, as ``SparseRow`` pairs) is built
    with the matrix.  ``_entries`` (the dense rows), ``_columns`` (the
    nonzero cells of each column, as rows and values) and ``_echelon`` (the
    sparse rows and pivots of the forward elimination) are filled on first
    use.  Equality reads the dense rows.
    """

    __slots__ = ("rows", "cols", "_scaled", "_entries", "_columns", "_echelon")

    def __init__(
        self,
        entries: Iterable[Iterable[RationalLike] | Mapping[int, RationalLike]],
        cols: int | None = None,
    ):
        dens, sparse = [], []
        for row in entries:
            if isinstance(row, Mapping):
                if cols is None:
                    raise ValueError("a row given as a mapping needs cols")
                keys = sorted(row)
                if keys and not (0 <= keys[0] and keys[-1] < cols):
                    raise ValueError("mapping row has a column outside the matrix")
                values = vector(map(row.__getitem__, keys))
                index = [j for j, x in zip(keys, values) if x is not ZERO and x]
                cells = [x for x in values if x is not ZERO and x]
            else:
                values = vector(row)
                if cols is None:
                    cols = len(values)
                elif len(values) != cols:
                    raise ValueError("ragged rows in matrix")
                index = support(values)
                cells = [values[j] for j in index]
            den, ints = scaled_integers(cells)
            dens.append(den)
            sparse.append((tuple(index), tuple(ints)))
        object.__setattr__(self, "rows", len(dens))
        object.__setattr__(self, "cols", cols or 0)
        object.__setattr__(self, "_scaled", (tuple(dens), tuple(sparse)))
        object.__setattr__(self, "_entries", None)
        object.__setattr__(self, "_columns", None)
        object.__setattr__(self, "_echelon", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as ``Fraction`` cells; every zero cell is ``ZERO``."""
        if self._entries is None:
            data = []
            for den, (index, ints) in zip(*self._scaled):
                cells = {a: Fraction(a, den) for a in set(ints)}
                row = [ZERO] * self.cols
                for j, a in zip(index, ints):
                    row[j] = cells[a]
                data.append(tuple(row))
            object.__setattr__(self, "_entries", tuple(data))
        return self._entries

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def _column_index(self) -> list[tuple[list[int], list[int]]]:
        """For each column, the rows of its nonzero integer cells and their
        values."""
        if self._columns is None:
            columns = [([], []) for _ in range(self.cols)]
            for i, (index, ints) in enumerate(self._scaled[1]):
                for j, a in zip(index, ints):
                    rows, values = columns[j]
                    rows.append(i)
                    values.append(a)
            object.__setattr__(self, "_columns", columns)
        return self._columns

    def _echelon_form(self) -> tuple[tuple[SparseRow, ...], list[int]]:
        """The memoised forward elimination of the integer rows; read only."""
        if self._echelon is None:
            rows = [dict(zip(*row)) for row in self._scaled[1]]
            object.__setattr__(self, "_echelon", _forward_echelon(rows, self.cols))
        return self._echelon

    def mat_vec(self, x: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        """M x, summed by columns over the nonzero cells of x."""
        v = vector(x)
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        index = support(v)
        scale, ints = scaled_integers([v[j] for j in index])
        dens = self._scaled[0]
        columns = self._column_index()
        acc = [0] * self.rows
        for j, a in zip(index, ints):
            rows, values = columns[j]
            for i, b in zip(rows, values):
                acc[i] += a * b
        return tuple(
            Fraction(t, den * scale) if t else ZERO for t, den in zip(acc, dens)
        )

    def pair(self, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Fraction:
        """The bilinear form u^T M v.

        The integer row combination w = u^T M is formed first, so only the
        entries of v where w is nonzero are read.
        """
        if len(u) != self.rows or len(v) != self.cols:
            raise ValueError("vector length does not match matrix shape")
        dens, sparse = self._scaled
        u_index = [i for i, a in enumerate(u) if a]
        u_scale, u_ints = scaled_integers([rat(u[i]) for i in u_index])
        row_scale = lcm(*(dens[i] for i in u_index))
        w = [0] * self.cols
        for i, a in zip(u_index, u_ints):
            k = a * (row_scale // dens[i])
            for j, b in zip(*sparse[i]):
                w[j] += k * b
        v_index = [j for j, c in enumerate(w) if c]
        v_scale, v_ints = scaled_integers([rat(v[j]) for j in v_index])
        total = sum(map(mul, map(w.__getitem__, v_index), v_ints))
        return Fraction(total, u_scale * row_scale * v_scale) if total else ZERO

    def to_lists(self) -> list[list[str]]:
        """Rows rendered in the ``p/q`` wire format (for reports and trails)."""
        return [list(map(str, row)) for row in self.entries]


def _forward_echelon(
    rows: list[dict[int, int]], cols: int
) -> tuple[tuple[SparseRow, ...], list[int]]:
    """Forward elimination of rows given as {column: nonzero value}.

    Returns the echelon rows, as ``SparseRow`` pairs in column order, and
    their pivot columns; the rows that eliminate to zero are dropped.
    The pivot of column c is the first row at or below the current one
    with a nonzero cell in c, swapped up.  Rows at or below the current
    one are zero left of c, so the rows to update are those whose first
    column is c, kept in ``leading`` by first column.  With k the pivot
    row's content (gcd of the entries) and p its cell in c, a row cur with
    m in c becomes a*cur - b*pivot/k, for g0 = gcd(p/k, m), a = p/(k*g0)
    and b = m/g0, divided by its content: as that is (p*cur - m*pivot)/(k*g0)
    with k*g0 > 0, the echelon is the cross-multiplied one.  Only the
    pivot's cells are read, and when a == 1 cur is updated in place.
    """
    leading: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        if row:
            leading.setdefault(min(row), set()).add(i)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if not leading:
            break
        below = leading.pop(c, None)
        if below is None:
            continue
        sel = min(below)
        below.remove(sel)
        if sel != r:
            rows[r], rows[sel] = rows[sel], rows[r]
            if rows[sel]:
                moved = leading[min(rows[sel])]
                moved.remove(r)
                moved.add(sel)
        pivot = rows[r]
        k = gcd(*pivot.values())
        if k > 1:
            pivot = {j: w // k for j, w in pivot.items()}
        p = pivot[c]
        for i in below:
            cur = rows[i]
            g0 = gcd(p, cur[c])
            a, b = p // g0, cur[c] // g0
            if a != 1:
                cur = {j: a * v for j, v in cur.items()}
            for j, w in pivot.items():
                v = cur.get(j, 0) - b * w
                if v:
                    cur[j] = v
                else:
                    del cur[j]
            g = gcd(*cur.values())
            if g > 1:
                cur = {j: v // g for j, v in cur.items()}
            rows[i] = cur
            if cur:
                leading.setdefault(c + 1 if c + 1 in cur else min(cur), set()).add(i)
        pivots.append(c)
        r += 1
    return tuple(tuple(zip(*sorted(row.items()))) for row in rows[:r]), pivots


def _back_substitute(
    echelon: Sequence[SparseRow], starts: Sequence[list[int]]
) -> list[tuple[Fraction, ...]]:
    """Solve the echelon system for the pivot coordinates of each start vector.

    ``echelon`` holds the rows of ``Matrix._echelon_form()``, each led by
    its pivot cell.  Each start vector holds integers at the non-pivot
    positions and 0 at every pivot position.  Each row is split once, for
    all the vectors, into its pivot column, pivot value and the columns
    and values of its tail, and each tail column indexes the rows whose
    tails meet it.  The pivot entries are solved from the bottom row up
    over one common denominator, which grows only when a new entry needs
    it, so the full vector satisfies every echelon row.  A min-heap of row
    positions, counted from the bottom, holds the rows that meet a nonzero
    coordinate of the start or a pivot solved nonzero (rows above it); a
    row never reached, or whose tail sums to 0, is skipped with no gcd
    and no rescale, as 0 is its solution.
    """
    split = [(cols[0], vals[0], cols[1:], vals[1:]) for cols, vals in reversed(echelon)]
    meets: dict[int, list[int]] = {}
    for pos, (_, _, tail_cols, _) in enumerate(split):
        for j in tail_cols:
            meets.setdefault(j, []).append(pos)
    solutions = []
    for x in starts:
        den = 1
        queued = {pos for j, a in enumerate(x) if a for pos in meets.get(j, ())}
        heap = sorted(queued)
        while heap:
            c, p, tail_cols, tail_vals = split[heappop(heap)]
            acc = sum(map(mul, tail_vals, map(x.__getitem__, tail_cols)))
            if not acc:
                continue
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
        solutions.append(tuple(Fraction(a, den) if a else ZERO for a in x))
    return solutions


def rank(m: Matrix) -> int:
    return len(m._echelon_form()[1])


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel in reduced row-echelon parametrization.

    One vector per free column f, ordered by ascending f: coordinate f is 1,
    the other free coordinates are 0, and pivot coordinates are solved
    exactly.  Returns [] when the kernel is trivial.
    """
    echelon, pivots = m._echelon_form()
    pivot_set = set(pivots)
    starts = []
    for f in range(m.cols):
        if f not in pivot_set:
            x = [0] * m.cols
            x[f] = 1
            starts.append(x)
    return _back_substitute(echelon, starts)


def solve_linear(a: Matrix, b: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """The unique solution of A x = b, for square or overdetermined A;
    raises ``ValueError`` when the system is inconsistent or underdetermined."""
    rhs = vector(b)
    if len(rhs) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    if a.rows < a.cols:
        raise ValueError("system is underdetermined by shape (rows < cols)")
    rows = []
    for den, (index, ints), v in zip(*a._scaled, rhs):
        # row i of [A | b] over the lcm den * q of its denominators
        q = v.denominator // gcd(den, v.denominator)
        rows.append({j: n * q for j, n in zip(index, ints)})
        if v:
            rows[-1][a.cols] = den * q // v.denominator * v.numerator
    ech, pivots = _forward_echelon(rows, a.cols + 1)
    if pivots and pivots[-1] == a.cols:
        i = len(pivots) - 1
        raise ValueError(
            f"inconsistent system: row {i} reduces to 0 = {Fraction(ech[i][1][0])}"
        )
    if len(pivots) < a.cols:
        free = [c for c in range(a.cols) if c not in set(pivots)]
        raise ValueError(f"underdetermined system: free columns {free}")
    x = [0] * (a.cols + 1)
    x[a.cols] = -1
    return _back_substitute(ech, [x])[0][: a.cols]
