"""Command line interface.

Subcommands: ``adaptive``, ``nonadaptive``, ``compare``, ``params``,
``audit``; each takes only the flags it reads. Flags may also come from a
flat key=value config file via ``--config``, whose values are parsed exactly
like flags (explicit flags override the file). Results are written as
UTF-8 CSV with a header row; the exit code is 0 on success, 1 on a cost-cap
violation (the first trial over its method's cap stops the run), 2 on a
parameter error or an allocation over the process's memory limit.
"""

from __future__ import annotations

import argparse
import sys

from .adaptive import levels_for_accuracy
from .discover import BASIC, PRECONDITIONED
from .errors import CapViolationError, ParameterError
from .families import VectorFamily
from .harness import (
    PARAM_COLUMNS,
    ExperimentConfig,
    compare_methods,
    estimate_error,
    estimate_row,
    make_method,
    param_table,
    write_csv,
)

_VARIANT_FLAGS = {"basic": BASIC, "precond": PRECONDITIONED}


def _split(text, cast=str):
    """The values of a comma list; a list without one is a parameter error."""
    values = [cast(part) for part in str(text).split(",") if part != ""]
    if not values:
        raise ParameterError(f"expected at least one value in the list {text!r}")
    return values


def _comma_list(cast):
    """argparse type of a comma list of ``cast`` values; argparse reports a bad
    or empty list as ``argument --flag: invalid int list value: ...``."""
    def parse(text):
        return _split(text, cast)

    parse.__name__ = f"{cast.__name__} list"
    return parse


def _variant(text):
    """The adaptive variant a ``--variant`` value names."""
    if text not in _VARIANT_FLAGS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from 'basic', 'precond')")
    return _VARIANT_FLAGS[text]


def read_config(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


# add_argument keywords of each flag; its dest is the flag name unless given.
# Config-file values are parsed by the same declarations.
_FLAGS = {
    "m": dict(type=int, help="ambient dimension"),
    "p": dict(type=float, default=1.0, help="norm of the input ball (default 1)"),
    "q": dict(type=float, default=2.0, help="norm of the error (default 2)"),
    "eps": dict(type=_comma_list(float), help="target accuracy (or comma list for params)"),
    "budget": dict(type=_comma_list(int), help="measurement budget (or comma list)"),
    "L": dict(type=int, dest="levels", help="sensitivity levels"),
    "R": dict(type=int, dest="reps", help="passes per level"),
    "variant": dict(type=_variant, default="precond", metavar="{basic,precond}",
                    help="adaptive variant (default precond)"),
    "family": dict(help="vector family, e.g. spikes:4 (comma list for compare)"),
    "trials": dict(type=int, default=200, help="Monte Carlo trials"),
    "seed": dict(type=int, default=20250801, help="root seed"),
    "out": dict(help="CSV output path (default stdout)"),
    "method": dict(help="method name"),
}

# the flags each subcommand reads; any other is rejected
_COMMAND_FLAGS = {
    "adaptive": ("m", "p", "q", "eps", "budget", "L", "R", "variant", "family", "trials",
                 "seed", "out"),
    "nonadaptive": ("m", "p", "q", "budget", "L", "family", "trials", "seed", "out",
                    "method"),
    "compare": ("m", "p", "q", "budget", "family", "trials", "seed", "out"),
    "params": ("m", "p", "q", "eps", "budget", "variant", "out"),
    "audit": ("m", "p", "q", "eps", "budget", "L", "R", "variant", "family", "trials",
              "seed", "method"),
}


def _parsers():
    """The ``adasketch`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="adasketch",
        description="recover high-dimensional vectors from few linear measurements",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("adaptive", "estimate the error of the multi-sensitivity algorithm"),
        ("nonadaptive", "estimate the error of a sketching baseline"),
        ("compare", "error/cost table of all methods over budgets and families"),
        ("params", "derived parameter table for accuracies or budgets"),
        ("audit", "verify measured costs against the closed-form cap"),
    ):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("--config", help="flat key = value file with defaults for the flags")
        for flag in _COMMAND_FLAGS[name]:
            sub.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser, commands.choices


def _parse(argv) -> argparse.Namespace:
    """Parse argv; a ``--config`` file's values become the subcommand's defaults,
    which argparse parses like given values (and given flags win)."""
    parser, commands = _parsers()
    args = parser.parse_args(argv)
    if args.config:
        file_values = read_config(args.config)
        unknown = sorted(set(file_values) - set(_COMMAND_FLAGS[args.command]))
        if unknown:
            raise ParameterError(f"{args.config}: no flag of {args.command} that a config "
                                 f"file can set is named {', '.join(map(repr, unknown))}")
        sub = commands[args.command]
        sub.set_defaults(**{_FLAGS[key].get("dest", key): value
                            for key, value in file_values.items()})
        # a file value its flag rejects raises ArgumentError, which main reports
        parser.exit_on_error = sub.exit_on_error = False
        args = parser.parse_args(argv)
    return args


def _require(value, flag):
    if value is None:
        raise ParameterError(f"missing required flag {flag}")
    return value


def _single(values, flag):
    """The one value of a comma-list flag, or None when it is not given."""
    if values is None:
        return None
    if len(values) != 1:
        raise ParameterError(f"expected a single {flag} value")
    return values[0]


def _family(args) -> VectorFamily:
    return VectorFamily.parse(_require(args.family, "--family"), args.p)


def _method(args, name):
    """The method ``name`` from the flags; ``nonadaptive`` takes no --eps, --R or --variant."""
    levels, eps = args.levels, getattr(args, "eps", None)
    if eps is not None:
        if name != "adaptive" or levels is not None:
            raise ParameterError("--eps sets adaptive's level count and takes no --L")
        levels = levels_for_accuracy(_single(eps, "--eps"), args.p, args.q)
    return make_method(name, args.m, args.p, args.q,
                       budget=_single(args.budget, "--budget"),
                       levels=levels, reps=getattr(args, "reps", None),
                       variant=getattr(args, "variant", PRECONDITIONED))


def _cmd_estimate(args) -> int:
    """``adaptive`` and ``nonadaptive``: one CSV row for one method and family."""
    name = "adaptive" if args.command == "adaptive" else _require(args.method, "--method")
    row = estimate_row(_method(args, name), _family(args), args.m, args.p, args.q,
                       _single(args.budget, "--budget"), args.trials, args.seed)
    write_csv(args.out or sys.stdout, [row])
    return 0


def _cmd_compare(args) -> int:
    budgets = _require(args.budget, "--budget")
    families = [VectorFamily.parse(text, args.p)
                for text in _split(_require(args.family, "--family"))]
    rows = compare_methods(args.m, args.p, args.q, budgets, families,
                           args.trials, args.seed)
    write_csv(args.out or sys.stdout, rows)
    return 0


def _cmd_params(args) -> int:
    rows = param_table(args.p, args.q, args.m, eps_values=args.eps,
                       budgets=args.budget, variant=args.variant)
    write_csv(args.out or sys.stdout, rows, PARAM_COLUMNS)
    return 0


def _cmd_audit(args) -> int:
    """Per-stage cost totals of a run; a trial over the cap raises, and main exits 1."""
    method = _method(args, args.method or "adaptive")
    est = estimate_error(ExperimentConfig(method=method, family=_family(args), m=args.m,
                                          q=args.q, trials=args.trials, seed=args.seed))
    print(f"method {method.name}: cap {method.cap}, max cost {est.max_cost}, "
          f"mean cost {est.mean_cost:.2f} -> OK")
    print("  hashing: 0 (draws no information)")
    for stage in sorted(est.stage_costs):
        print(f"  {stage}: {est.stage_costs[stage]}")
    return 0


_COMMANDS = {
    "adaptive": _cmd_estimate,
    "nonadaptive": _cmd_estimate,
    "compare": _cmd_compare,
    "params": _cmd_params,
    "audit": _cmd_audit,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        _require(args.m, "--m")  # every subcommand needs it
        return _COMMANDS[args.command](args)
    # ParameterError is a ValueError, and numpy's failed allocation a MemoryError
    except (ValueError, OSError, MemoryError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapViolationError as exc:
        print(f"cap violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
