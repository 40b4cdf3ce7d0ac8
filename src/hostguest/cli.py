"""Command line entry point.

Exit codes: 0 on success, 1 for configuration problems (bad JSON, schema
violations, rules across fields, unknown kinds, bad sweep paths), 2 for runtime
failures inside an otherwise valid scenario: a domain or solver error, a
NaN or inf that would reach an artifact, or any unexpected exception. Each
failure prints one line to stderr, never a traceback, and writes no output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, HostGuestError
from .scenarios import SCENARIO_KINDS, config_schema, load_config, run_scenario, validate_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hostguest",
        description="Run host-guest emitter scenario configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="validate a config, execute it, write artifacts")
    run.add_argument("config", type=Path)
    run.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="overrides the config's output_dir",
    )

    val = sub.add_parser("validate", help="check a config without running it")
    val.add_argument("config", type=Path)

    schema = sub.add_parser("schema", help="print the JSON schema for a scenario kind")
    schema.add_argument("kind", choices=sorted(SCENARIO_KINDS))

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "schema":
            json.dump(config_schema(args.kind), sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return 0
        if args.command == "validate":
            validate_config(load_config(args.config))
            print(f"ok: {args.config}")
            return 0
        out = run_scenario(
            load_config(args.config),
            config_dir=args.config.resolve().parent,
            output_dir=args.output_dir,
        )
        print(f"wrote {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HostGuestError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())  # one line, whatever the message holds
        print(f"runtime error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
