"""Command line interface over the check suites.

Exit status: 0 when every check passes, 1 when any check fails, 2 for
configuration or usage errors.

Loading or rejecting a document needs only ``config``: the engine, the
suites and the report are imported when a suite runs, and ``list-suites``
prints the names that the package itself holds.
"""

import argparse
import json
import sys

from . import SUITE_NAMES
from .config import ConfigDocument, ConfigError, default_config, load_config


def run_suite(doc: ConfigDocument, suite: str):
    """The report of ``suite`` on a fresh engine over ``doc``."""
    from .engine import Engine
    from .suites import run_suite as run

    return run(Engine(doc), suite)


def emit_json(report) -> str:
    from .report import emit_json as emit

    return emit(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kum3check",
        description=(
            "Exact rational verification of the sixfold intersection "
            "computations and their certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="run one check suite and print its report"
    )
    verify.add_argument("suite", help="suite name; see list-suites")
    verify.add_argument("--config", help="path to a configuration JSON file")
    verify.add_argument(
        "--format", choices=("json", "markdown"), default="json",
        help="report format (default json)",
    )
    verify.add_argument(
        "--out", help="write the report to this path instead of stdout"
    )

    sub.add_parser("list-suites", help="print the available suite names")

    show = sub.add_parser(
        "show-config", help="print the resolved configuration with sources"
    )
    show.add_argument("--config", help="path to a configuration JSON file")
    return parser


def _load(path: str | None) -> ConfigDocument:
    if path is None:
        return default_config()
    return load_config(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-suites":
        for name in SUITE_NAMES:
            print(name)
        return 0
    try:
        doc = _load(args.config)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.command == "show-config":
        print(json.dumps(doc.to_json_obj(), indent=2, sort_keys=True))
        return 0
    try:
        report = run_suite(doc, args.suite)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        text = emit_json(report)
    else:
        from .report import emit_markdown

        text = emit_markdown(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report.status == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
