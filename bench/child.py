"""Fresh-interpreter probes started by run.py, one process at a time.

    python3 child.py setup <config path>
        prints the seconds taken to import kum3check.cli and parse the file.
    python3 child.py cli <kum3check arguments>
        runs kum3check.cli.main on the arguments and writes, as the last
        line of stderr, JSON seconds spent importing, parsing the config,
        verifying and emitting the report.

Only builtin modules are imported before kum3check, so the import time is
what a fresh `python -m kum3check.cli` pays.
"""

import sys
from time import perf_counter


def setup(path: str) -> int:
    start = perf_counter()
    import kum3check.cli  # noqa: F401
    from kum3check.config import ConfigError, parse_config

    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        parse_config(text)
    except ConfigError:
        pass
    print(perf_counter() - start)
    return 0


def cli(argv: list[str]) -> int:
    start = perf_counter()
    import kum3check.cli as cli_module
    from kum3check import config

    spent = {"import": perf_counter() - start, "parse": 0.0, "verify": 0.0, "emit": 0.0}

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            begin = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += perf_counter() - begin

        return wrapper

    config.parse_config = timed("parse", config.parse_config)
    cli_module.run_suite = timed("verify", cli_module.run_suite)
    cli_module.emit_json = timed("emit", cli_module.emit_json)
    status = cli_module.main(argv)
    sys.stdout.flush()
    import json

    print(json.dumps(spent), file=sys.stderr)
    return status


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    raise SystemExit(setup(rest[0]) if mode == "setup" else cli(rest))
