"""Exact linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` values, which are always stored in
lowest terms with a positive denominator.  ``str(Fraction)`` gives ``p/q``
(or ``p`` when the denominator is 1), and that string is the wire format
of every config file and report in this package; f-strings with an empty
format spec give the same string.

Matrices are immutable and dense.  ``Fraction`` is the boundary type: it
goes in and comes out, but the inner loops run on Python integers.  Each
matrix lazily builds an integer row form, every row scaled by the lcm of
its denominators, with equal cells sharing one ``int`` object.  Only the
nonzero cells are read and scaled; a cell that is the shared ``ZERO`` is
skipped without calling into ``Fraction``, so a sparse row costs what its
support costs.  Products (``mat_vec``, ``pair``) scale the vector to
integers once and build one ``Fraction`` per nonzero result; a zero result
is ``ZERO`` itself.

Row reduction is done fraction-free (Bareiss 1968, Math. Comp. 22): a row
below the pivot is updated by cross-multiplication and divided by its
content (gcd of the entries).  Only the columns from the pivot onward are
touched, because those to the left are already zero and leave the content
unchanged.  A matrix is eliminated at most once: the echelon is memoised
on the matrix and shared by ``rank`` and ``kernel_basis``.
Next to it the matrix memoises, for each echelon row, the pivot and the
nonzero (column, value) pairs to its right.  Back substitution reads only
those pairs, so on a sparse echelon it skips the zero cells, and it keeps
one common denominator, so it stays in integers too.  The unit tests
compare every routine with textbook ``Fraction`` formulas on random
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]
# One echelon row for back substitution: pivot column, pivot value, and the
# columns and values of the nonzero cells right of the pivot.
PivotTail = tuple[int, int, tuple[int, ...], tuple[int, ...]]
# The nonzero cells of one integer row: their columns and their values.
SparseRow = tuple[tuple[int, ...], tuple[int, ...]]
IntegerForm = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[SparseRow, ...]]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, a ``p/q`` string, or a Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
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


def _scaled_support(values: Sequence[Fraction]) -> tuple[int, list[int], list[int]]:
    """``(L, index, [values[j] * L for j in index])`` over the nonzero values,
    for the lcm ``L`` of their denominators."""
    index = support(values)
    dens = [values[j].denominator for j in index]
    scale = lcm(*dens)
    return scale, index, [values[j].numerator * (scale // d) for j, d in zip(index, dens)]


def scaled_integers(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(L, [x * L for x in values])`` for the lcm ``L`` of the denominators.

    Only the nonzero values are read; every other cell of the result is 0.
    """
    scale, index, ints = _scaled_support(values)
    out = [0] * len(values)
    for j, a in zip(index, ints):
        out[j] = a
    return scale, out


def _fraction(numerator: int, denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)``, or the shared ``ZERO``."""
    return Fraction(numerator, denominator) if numerator else ZERO


class Matrix:
    """Immutable dense matrix with exact rational entries.

    ``_scaled`` (per-row denominators, integer rows and their nonzero
    cells as ``SparseRow`` pairs), ``_echelon``
    (rows and pivots of the forward elimination) and ``_tails`` (the
    sparse echelon rows read by back substitution) are filled on first
    use.  None of them takes part in equality or hashing.
    """

    __slots__ = ("entries", "rows", "cols", "_scaled", "_echelon", "_tails")

    def __init__(self, entries: Iterable[Iterable[RationalLike]]):
        data = tuple(map(vector, entries))
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows in matrix")
        else:
            width = 0
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_scaled", None)
        object.__setattr__(self, "_echelon", None)
        object.__setattr__(self, "_tails", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def _integer_form(self) -> IntegerForm:
        """Per-row denominators, the rows scaled by them to integers, and
        the nonzero cells of each scaled row."""
        if self._scaled is None:
            interned: dict[int, int] = {}
            dens, rows, sparse = [], [], []
            for row in self.entries:
                den, index, ints = _scaled_support(row)
                values = tuple([interned.setdefault(a, a) for a in ints])
                cells = [0] * self.cols
                for j, a in zip(index, values):
                    cells[j] = a
                dens.append(den)
                rows.append(tuple(cells))
                sparse.append((tuple(index), values))
            object.__setattr__(self, "_scaled", (tuple(dens), tuple(rows), tuple(sparse)))
        return self._scaled

    def _echelon_form(self) -> tuple[list, list[int]]:
        """The memoised forward elimination of the integer rows; read only."""
        if self._echelon is None:
            rows = list(self._integer_form()[1])
            object.__setattr__(self, "_echelon", _forward_echelon(rows, self.cols))
        return self._echelon

    def _pivot_tails(self) -> tuple[PivotTail, ...]:
        """One ``PivotTail`` per echelon row; memoised, read only."""
        if self._tails is None:
            ech, pivots = self._echelon_form()
            tails = []
            for row, c in zip(ech, pivots):
                right = row[c + 1 :]
                cols = tuple(compress(range(c + 1, self.cols), right))
                tails.append((c, row[c], cols, tuple(filter(None, right))))
            object.__setattr__(self, "_tails", tuple(tails))
        return self._tails

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.entries)) if self.rows else Matrix([])

    def mat_vec(self, x: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        v = vector(x)
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        scale, ints = scaled_integers(v)
        dens, _, sparse = self._integer_form()
        return tuple(
            _fraction(sum(map(mul, values, map(ints.__getitem__, cols))), den * scale)
            for den, (cols, values) in zip(dens, sparse)
        )

    def pair(self, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Fraction:
        """The bilinear form u^T M v.

        The integer row combination w = u^T M is formed first, so only the
        entries of v where w is nonzero are read.
        """
        if len(u) != self.rows or len(v) != self.cols:
            raise ValueError("vector length does not match matrix shape")
        dens, rows, _ = self._integer_form()
        u_index = [i for i, a in enumerate(u) if a]
        u_scale, u_ints = scaled_integers([rat(u[i]) for i in u_index])
        row_scale = lcm(*(dens[i] for i in u_index))
        w = [0] * self.cols
        for i, a in zip(u_index, u_ints):
            w = list(map(add, w, map(mul, rows[i], repeat(a * (row_scale // dens[i])))))
        v_index = [j for j, c in enumerate(w) if c]
        v_scale, v_ints = scaled_integers([rat(v[j]) for j in v_index])
        total = sum(map(mul, map(w.__getitem__, v_index), v_ints))
        return _fraction(total, u_scale * row_scale * v_scale)

    def to_lists(self) -> list[list[str]]:
        """Rows rendered in the ``p/q`` wire format (for reports and trails)."""
        return [list(map(str, row)) for row in self.entries]


def _reduce_content(row: list[int]) -> list[int]:
    g = gcd(*row) if row else 0
    if g > 1:
        return [a // g for a in row]
    return row


def _forward_echelon(rows: list, cols: int) -> tuple[list, list[int]]:
    """Forward elimination; returns (rows, pivot column indices).

    Entries of ``rows`` are replaced, never mutated, so a shallow copy of
    the outer list keeps the input intact.  Afterwards rows[i] for
    i < len(pivots) form an upper echelon with integer entries and rows
    beyond that are zero.
    """
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        if r == nrows:
            break
        sel = None
        for i in range(r, nrows):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        tail = rows[r][c:]
        p = tail[0]
        prefix = [0] * c
        for i in range(r + 1, nrows):
            cur = rows[i]
            m = cur[c]
            if not m:
                continue
            rows[i] = prefix + _reduce_content([p * a - m * b for a, b in zip(cur[c:], tail)])
        pivots.append(c)
        r += 1
    return rows, pivots


def _back_substitute(tails: Sequence[PivotTail], x: list[int]) -> list[Fraction]:
    """Solve the echelon system for the pivot coordinates of x.

    ``tails`` is ``Matrix._pivot_tails()`` and ``x`` holds integers at the
    non-pivot positions.  The pivot entries are solved from the bottom row
    up over one common denominator, which grows only when a new entry needs
    it, so the full vector satisfies every echelon row.
    """
    den = 1
    for c, p, cols, vals in reversed(tails):
        acc = sum(map(mul, vals, map(x.__getitem__, cols)))
        s = abs(p) // gcd(acc, p)
        if s > 1:
            x = [a * s for a in x]
            den *= s
            acc *= s
        x[c] = -(acc // p)
    return [_fraction(a, den) for a in x]


def rank(m: Matrix) -> int:
    return len(m._echelon_form()[1])


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel in reduced row-echelon parametrization.

    One vector per free column f, ordered by ascending f: coordinate f is 1,
    the other free coordinates are 0, and pivot coordinates are solved
    exactly.  Returns [] when the kernel is trivial.
    """
    tails = m._pivot_tails()
    pivot_set = {c for c, *_ in tails}
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        x = [0] * m.cols
        x[f] = 1
        basis.append(tuple(_back_substitute(tails, x)))
    return basis


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact linear solve.

    status is "unique", "inconsistent", or "underdetermined"; solution is
    None unless status is "unique".  Inconsistency is an outcome, not an
    exception: callers report it.
    """

    status: str
    solution: tuple[Fraction, ...] | None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "unique"


def solve_linear(a: Matrix, b: Sequence[RationalLike]) -> SolveResult:
    """Solve A x = b exactly for square or overdetermined A."""
    rhs = vector(b)
    if len(rhs) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    if a.rows < a.cols:
        raise ValueError("system is underdetermined by shape (rows < cols)")
    augmented = Matrix([row + (v,) for row, v in zip(a.entries, rhs)])
    ech, pivots = augmented._echelon_form()
    if pivots and pivots[-1] == a.cols:
        i = len(pivots) - 1
        return SolveResult(
            status="inconsistent",
            solution=None,
            detail=f"row {i} reduces to 0 = {Fraction(ech[i][a.cols])}",
        )
    if len(pivots) < a.cols:
        free = [c for c in range(a.cols) if c not in set(pivots)]
        return SolveResult(
            status="underdetermined",
            solution=None,
            detail=f"free columns {free}",
        )
    x = [0] * (a.cols + 1)
    x[a.cols] = -1
    solution = _back_substitute(augmented._pivot_tails(), x)[: a.cols]
    return SolveResult(status="unique", solution=tuple(solution))
