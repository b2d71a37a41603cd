"""Exact linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` values, which are always stored in
lowest terms with a positive denominator and print as ``p/q`` (or ``p``
when the denominator is 1).  That string form is the wire format used by
every config file and report in this package.

Matrices are immutable and dense.  ``Fraction`` is the boundary type: it
goes in and comes out, but the inner loops run on Python integers.  Each
matrix lazily builds an integer row form, every row scaled by the lcm of
its denominators, with equal cells sharing one ``int`` object.  Products
(``mat_vec``, ``pair``) scale the vector to integers once and build one
``Fraction`` per result.

Row reduction is done fraction-free (Bareiss 1968, Math. Comp. 22): a row
below the pivot is updated by cross-multiplication and divided by its
content (gcd of the entries).  Only the columns from the pivot onward are
touched, because those to the left are already zero and leave the content
unchanged.  A matrix is eliminated at most once: the echelon is memoised
on the matrix and shared by ``rank``, ``kernel_basis`` and ``rref``.
Back substitution keeps one common denominator, so it stays in integers
too.  The unit tests compare every routine with textbook ``Fraction``
formulas on random matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, a ``p/q`` string, or a Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Fraction) -> str:
    """Render a rational as ``p/q``, or plain ``p`` for integers."""
    return str(value)


def vector(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(map(rat, values))


def scaled_integers(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(L, [x * L for x in values])`` for the lcm ``L`` of the denominators."""
    dens = [x.denominator for x in values]
    scale = lcm(*dens)
    if scale == 1:
        return 1, [x.numerator for x in values]
    return scale, [x.numerator * (scale // d) for x, d in zip(values, dens)]


class Matrix:
    """Immutable dense matrix with exact rational entries.

    ``_scaled`` (per-row denominators and integer rows) and ``_echelon``
    (rows and pivots of the forward elimination) are filled on first use.
    Neither takes part in equality or hashing.
    """

    __slots__ = ("entries", "rows", "cols", "_scaled", "_echelon")

    def __init__(self, entries: Iterable[Iterable[RationalLike]]):
        data = tuple(tuple(map(rat, row)) for row in entries)
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

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def _integer_form(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Per-row denominators and the rows scaled by them to integers."""
        if self._scaled is None:
            interned: dict[int, int] = {}
            dens, rows = [], []
            for row in self.entries:
                den, cells = scaled_integers(row)
                dens.append(den)
                rows.append(tuple([interned.setdefault(a, a) for a in cells]))
            object.__setattr__(self, "_scaled", (tuple(dens), tuple(rows)))
        return self._scaled

    def _echelon_form(self) -> tuple[list, list[int]]:
        """The memoised forward elimination of the integer rows; read only."""
        if self._echelon is None:
            rows = list(self._integer_form()[1])
            object.__setattr__(self, "_echelon", _forward_echelon(rows, self.cols))
        return self._echelon

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.entries)) if self.rows else Matrix([])

    def mat_vec(self, x: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        v = vector(x)
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        index = [j for j, a in enumerate(v) if a]
        scale, values = scaled_integers([v[j] for j in index])
        dens, rows = self._integer_form()
        return tuple(
            Fraction(sum(map(mul, map(row.__getitem__, index), values)), den * scale)
            for den, row in zip(dens, rows)
        )

    def pair(self, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Fraction:
        """The bilinear form u^T M v.

        The integer row combination w = u^T M is formed first, so only the
        entries of v where w is nonzero are read.
        """
        if len(u) != self.rows or len(v) != self.cols:
            raise ValueError("vector length does not match matrix shape")
        dens, rows = self._integer_form()
        u_index = [i for i, a in enumerate(u) if a]
        u_scale, u_ints = scaled_integers([rat(u[i]) for i in u_index])
        row_scale = lcm(*(dens[i] for i in u_index))
        w = [0] * self.cols
        for i, a in zip(u_index, u_ints):
            w = list(map(add, w, map(mul, rows[i], repeat(a * (row_scale // dens[i])))))
        v_index = [j for j, c in enumerate(w) if c]
        v_scale, v_ints = scaled_integers([rat(v[j]) for j in v_index])
        total = sum(map(mul, map(w.__getitem__, v_index), v_ints))
        return Fraction(total, u_scale * row_scale * v_scale)

    def to_lists(self) -> list[list[str]]:
        """Rows rendered in the ``p/q`` wire format (for reports and trails)."""
        return [[format_rational(x) for x in row] for row in self.entries]


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


def _back_substitute(ech: list, pivots: list[int], x: list[int]) -> list[Fraction]:
    """Solve the echelon system for the pivot coordinates of x.

    ``x`` holds integers at the non-pivot positions.  The pivot entries are
    solved from the bottom row up over one common denominator, which grows
    only when a new entry needs it, so the full vector satisfies every
    echelon row.
    """
    den = 1
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        row = ech[i]
        acc = sum(map(mul, row[c + 1 :], x[c + 1 :]))
        p = row[c]
        s = abs(p) // gcd(acc, p)
        if s > 1:
            x = [a * s for a in x]
            den *= s
            acc *= s
        x[c] = -(acc // p)
    return [Fraction(a, den) for a in x]


def rank(m: Matrix) -> int:
    return len(m._echelon_form()[1])


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel in reduced row-echelon parametrization.

    One vector per free column f, ordered by ascending f: coordinate f is 1,
    the other free coordinates are 0, and pivot coordinates are solved
    exactly.  Returns [] when the kernel is trivial.
    """
    ech, pivots = m._echelon_form()
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        x = [0] * m.cols
        x[f] = 1
        basis.append(tuple(_back_substitute(ech, pivots, x)))
    return basis


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns."""
    ech, pivots = m._echelon_form()
    rows = list(ech)
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        piv_row = rows[i]
        p = piv_row[c]
        for k in range(i):
            mk = rows[k][c]
            if mk:
                rows[k] = _reduce_content([p * a - mk * b for a, b in zip(rows[k], piv_row)])
    out = []
    for i in range(m.rows):
        if i < len(pivots):
            p = rows[i][pivots[i]]
            out.append([Fraction(a, p) for a in rows[i]])
        else:
            out.append([0] * m.cols)
    return Matrix(out), tuple(pivots)


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
    return SolveResult(status="unique", solution=tuple(_back_substitute(ech, pivots, x)[: a.cols]))
