"""Command line interface.

fpplab <kind> --config FILE [--seed N] [--trials N] [--out DIR]

The config file holds one experiment config (or a list of them, which is
run as a sweep). Command line flags override the corresponding config
fields, and are validated with them: --trials on a kind without a trial
count (one not in expcli.TRIALS) is a config error. Trials run serially.
Exit codes: 0 success, 2 config error (a bad flag too), 3 runtime error.
"""

import argparse
import sys

from .expcli import KINDS, ConfigError, RunError, load_config, run, sweep


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
