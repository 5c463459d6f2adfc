"""Command line interface.

fpplab <kind> --config FILE [--seed N] [--trials N] [--out DIR]

The config file holds one experiment config (or a list of them, which is
run as a sweep). Command line flags override the corresponding config
fields. Trials run serially; --threads N is accepted and ignored, so
existing command lines keep working, but N must be >= 1 as in a config.
Exit codes: 0 success, 2 config error (a bad flag too), 3 runtime error.
"""

import argparse
import sys

from .expcli import KINDS, ConfigError, RunError, load_config, run, sweep


def positive_int(text):
    """argparse type: an integer >= 1, as a config's threads field."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("%r is not an integer >= 1" % text)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fpplab",
        description="First-passage percolation simulation experiments.")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help="run a %s experiment" % kind)
        sp.add_argument("--config", required=True, help="config JSON file")
        sp.add_argument("--seed", type=int, help="override the master seed")
        sp.add_argument("--trials", type=int, help="override the trial count")
        sp.add_argument("--out", help="override the output directory")
        sp.add_argument("--threads", type=positive_int,
                        help="accepted and ignored: trials run serially")
    return parser


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.trials is not None:
        cfg["trials"] = args.trials
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for c in cfg if isinstance(cfg, list) else [cfg]:
            kind = c.get("kind") if isinstance(c, dict) else None
            if kind != args.kind:
                raise ConfigError(
                    "config kind %r does not match the %s subcommand"
                    % (kind, args.kind))
        if isinstance(cfg, list):
            arts = sweep([_apply_overrides(c, args) for c in cfg],
                         out_root=args.out)
            if any(a.error for a in arts):
                return 3
            return 0
        run(_apply_overrides(cfg, args), out_root=args.out)
        return 0
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except RunError as e:
        print("runtime error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
