"""Command-line entry points for the experiment suite.

Each subcommand runs one experiment and takes a flag for each field that
experiment reads (its record in ``experiments.EXPERIMENTS``), plus
``--config``, ``--seed`` and ``--out``.  ``--config`` loads a flat
``key = value`` file whose keys match :class:`ExperimentConfig` fields, and
flags override it.  Every value is parsed by its field's type annotation.
Exit code 0 means every declared tolerance passed, 1 means some check failed,
2 means a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing
from pathlib import Path

from .errors import AlignlabError
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment

_HINTS = typing.get_type_hints(ExperimentConfig)
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_HELP = {
    "p": "comma-separated reference weights",
    "q": "comma-separated alignment-target weights",
    "K": "alphabet size",
    "m": "sequence length",
    "n": "best-of-N sample count",
    "delta": "per-symbol KL budget",
    "m_grid": "comma-separated sequence lengths",
    "n_grid": "comma-separated sample counts",
    "t_grid": "comma-separated probe points",
    "eps": "Monte Carlo window half-width",
    "trials": "Monte Carlo trial count",
    "seeds": "number of random pairs",
    "conjecture": "also report the exact best-of-N deviation curve",
}


def _kind(field: str):
    """The type a field holds when set: ``X`` for an annotation ``X | None``."""
    hint = _HINTS[field]
    args = typing.get_args(hint)
    return args[0] if type(None) in args else hint


def parse_value(field: str, text: str):
    """Parse one config value from its textual form, by the field's type."""
    kind = _kind(field)
    try:
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(item(part) for part in text.split(",") if part.strip())
        if kind is bool:
            return _BOOLS[text.strip().lower()]
        return kind(text)
    except (KeyError, ValueError):
        name = kind if typing.get_origin(kind) else kind.__name__
        raise ValueError(f"{field} expects {name}, got {text!r}") from None


def load_config_file(path: str) -> dict:
    """Read a flat key = value config file (``#`` starts a comment)."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in _HINTS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = parse_value(key, text)
    return values


def _format_default(value) -> str:
    if value is None:
        return "derived from the other fields"
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _build_parser(experiments) -> argparse.ArgumentParser:
    """The CLI's parser, with the subparsers of ``experiments`` alone.

    A parser of fewer than all six still lists all six in its usage line,
    so its help and errors read as the full parser's do.
    """
    parser = argparse.ArgumentParser(
        prog="alignlab",
        description="Exact tilted-policy and best-of-N experiments on finite alphabets.",
    )
    metavar = None
    if len(experiments) < len(EXPERIMENTS):
        metavar = "{" + ",".join(name.replace("_", "-") for name in EXPERIMENTS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for experiment in experiments:
        record = EXPERIMENTS[experiment]
        command = experiment.replace("_", "-")
        cp = sub.add_parser(command, help=f"run the {command} experiment", allow_abbrev=False)
        cp.add_argument("--config", help="flat key = value config file")
        cp.add_argument("--seed", help="master seed (nonnegative integer; default: 0)")
        cp.add_argument(
            "--out", dest="output_dir", metavar="DIR", help="output directory for CSV/JSON files"
        )
        for name, default in record.fields.items():
            flag = "--" + name.replace("_", "-")
            if _kind(name) is bool:
                cp.add_argument(flag, action="store_const", const="true", help=_HELP[name])
            else:
                cp.add_argument(flag, help=f"{_HELP[name]} (default: {_format_default(default)})")
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    experiment = args.command.replace("-", "_")
    values = load_config_file(args.config) if args.config else {}
    if values.setdefault("experiment", experiment) != experiment:
        raise ValueError(f"config file is for {values['experiment']!r}, not {experiment!r}")
    for name, text in vars(args).items():
        if name in _HINTS and text is not None:
            values[name] = parse_value(name, text)
    if not values.get("output_dir"):
        values["output_dir"] = os.environ.get("ALIGN_OUT_DIR") or "alignlab_out"
    return ExperimentConfig(**values)


def cli_dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code.

    Only the subparser of the command ``argv[0]`` names is built; all six are
    built when it names none (``--help``, no command, an unknown command).
    """
    argv = list(argv)
    named = [e for e in EXPERIMENTS if argv and e.replace("_", "-") == argv[0]]
    parser = _build_parser(named or EXPERIMENTS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = _merge_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(config)
    except AlignlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for check in report.checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: value={check['value']!r} limit={check['limit']!r}")
    print(
        f"{report.experiment}: {'all checks passed' if report.passed else 'CHECKS FAILED'}"
        f" ({report.duration_seconds:.3f}s)"
        + (f"; outputs in {config.output_dir}" if config.output_dir else "")
    )
    return 0 if report.passed else 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
