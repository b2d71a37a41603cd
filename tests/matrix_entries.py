"""The dense ``Fraction`` rows of a ``Matrix``, for tests that compare cells.

``Matrix`` gives its cells out only as their wire strings
(``Matrix.cell_texts``); ``Fraction`` reads that format back exactly.
pytest does not collect this module.
"""

from fractions import Fraction


def entries(m) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of ``m`` as ``Fraction`` cells."""
    return tuple(tuple(map(Fraction, row)) for row in m.cell_texts())
