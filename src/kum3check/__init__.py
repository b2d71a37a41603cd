"""Exact rational verification of the sixfold intersection computations.

The package recomputes, over the rationals and with no floating point,
the constant table, basis expansions, restriction solves, rank and kernel
certificates and cohomology bookkeeping for Kum3-type sixfolds, and
compares every value against its expected result.

Importing the package loads none of its modules: each public name but
``__version__`` and ``SUITE_NAMES`` is imported from its defining module
on first use (PEP 562).  So ``import
kum3check.cli`` and a config load compile only ``cli`` and ``config``; the
derivation modules (``engine``, ``suites``, ``wgeometry``, ``kummer``,
``quadspace``, ``fujiki``, ``bookkeeping``) are compiled when a suite runs.
"""

__version__ = "0.1.0"

# The suites in report order, then "all".  They are written here, on the
# load path, so that ``list-suites`` compiles no derivation module; a test
# checks them against the suite table in ``suites``.
SUITE_NAMES = (
    "fujiki-table", "basis-lemma", "w-classes", "w17-rank",
    "gram19", "restrictions", "d-classes", "bookkeeping", "all",
)

# Each public name and the module that defines it.  The table is written
# inside ``__all__``, so each public name is listed once, in ``__all__``.
__all__ = [
    "__version__",
    "SUITE_NAMES",
    *(_HOME := {
        "ConfigDocument": "config",
        "ConfigError": "config",
        "default_config": "config",
        "default_config_text": "config",
        "load_config": "config",
        "parse_config": "config",
        "Engine": "engine",
        "Check": "report",
        "SuiteReport": "report",
        "emit_json": "report",
        "emit_markdown": "report",
        "run_suite": "suites",
    }),
]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_HOME[name]}", __name__), name)
