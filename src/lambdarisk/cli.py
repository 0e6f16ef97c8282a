"""Command-line front end.

Scenario CSVs and JSON level-function specs go in; JSON reports, sweep CSVs,
and campaign reports come out. Exit codes: 0 success, 1 usage or parse error,
2 numeric precondition violation (including a failed --expect regression).

Reports serialize numbers with 17 significant digits; infinities appear as the
strings "inf" / "-inf" (JSON has no literal for them). Each report carries an
`inputs` digest so reruns are comparable: the sha256 of the scalar inputs as
sorted-key compact JSON (command, p, alpha, delta, measure, mean, std, the
level-function spec; "atoms" holds the atom count), followed, for a command
that reads a scenario file, by the law's values and then its probabilities as
little-endian float64 bytes. The law is the sorted, duplicate-merged,
normalized one the command computes on, so row order, number formatting and
split duplicate rows leave the digest unchanged, and moving any atom by one ulp
changes it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys
import warnings

import numpy as np

from .classical import evar, evar_value
from .distributions import DiscreteDistribution, MomentSet, make_distribution
from .errors import PreconditionError
from .levels import LambdaFunction, from_spec
from .lifting import es_family, evar_family, extended_ru, lambda_lift, var_family
from .robust import worst_case_mean_variance, worst_case_wasserstein
from .verify import CampaignConfig, run_campaign

__all__ = ["entry", "main", "parse_lambda_spec", "parse_scenarios"]


# --------------------------------------------------------------------------
# input parsing

# a row of only whitespace and commas; its newline stays, so every later row
# keeps its line number
_BLANK_ROW = re.compile(r"\n(?:[^\S\n]|,)+(?=\n|\Z)")
_CONTENT = re.compile(r"[^\s,]")


def parse_scenarios(path: str, *, normalize: bool = False) -> DiscreteDistribution:
    """Read a scenario CSV: header `value` (equal weights) or `value,probability`.

    Rows of only whitespace and commas are skipped. The body is read by one
    numpy pass; an error names the file's own 1-based line.
    """
    with open(path) as fh:
        text = _BLANK_ROW.sub("\n", fh.read())
    first = _CONTENT.search(text)
    if first is None:
        raise ValueError(f"{path}: empty scenario file")
    start = text.rfind("\n", 0, first.start()) + 1
    end = text.find("\n", start)
    if end < 0:  # the header is the last line
        end = len(text)
    header = [h.strip().lower() for h in next(csv.reader([text[start:end]]))]
    if header == ["value"]:
        has_probs = False
    elif header == ["value", "probability"]:
        has_probs = True
    else:
        raise ValueError(f"{path}: header must be 'value' or 'value,probability'")
    if _CONTENT.search(text, end) is None:
        raise ValueError(f"{path}: no scenario rows")
    skip = text.count("\n", 0, end) + 1  # the lines up to and including the header
    try:
        table = _read_rows(io.StringIO(text), skip, len(header))
    except ValueError:
        lines = io.StringIO(text).readlines()  # the lines the reader saw
        raise ValueError(_row_error(path, lines, skip, len(header))) from None
    values = table[:, 0]
    probs = table[:, 1] if has_probs else None
    if has_probs and not normalize:
        total = sum(probs.tolist())  # left to right, in file order
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"{path}: probabilities sum to {total:.12g}; pass --normalize to rescale"
            )
    try:
        return make_distribution(values, probs)
    except PreconditionError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_rows(source, skip: int, fields: int) -> np.ndarray:
    """The rows after `skip` lines as an (n, fields) array; blank lines hold no row."""
    table = np.loadtxt(
        source, delimiter=",", quotechar='"', comments=None, skiprows=skip, ndmin=2
    )
    if len(table) and table.shape[1] != fields:
        raise ValueError(f"expected {fields} fields, got {table.shape[1]}")
    return table


def _row_error(path: str, lines: list[str], skip: int, fields: int) -> str:
    """Name the first line after the header that `_read_rows` rejects.

    Runs only once a read has failed: a binary search that reads the lower
    half of the suspect lines with `_read_rows` itself, so the line named is
    one the reader rejects, at the cost of about one more read of the body.
    """
    good, bad = skip, len(lines)  # lines[skip:good] read cleanly; the fault is in lines[good:bad]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # blank lines alone hold no rows
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                _read_rows(lines[good:mid], 0, fields)
                good = mid
            except ValueError:
                bad = mid
    got = len(next(csv.reader([lines[bad - 1]])))
    if got != fields:
        return f"{path}, line {bad}: expected {fields} fields, got {got}"
    return f"{path}, line {bad}: malformed number"


def parse_lambda_spec(path: str) -> LambdaFunction:
    """Read a JSON level-function spec (constant / step / piecewise_linear)."""
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    try:
        return from_spec(spec)
    except ValueError as exc:  # includes constructor monotonicity violations
        raise ValueError(f"{path}: {exc}") from None


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be LO:HI:N, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid must be LO:HI:N with numeric fields, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("grid needs finite LO < HI")
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    return lo, hi, n


# --------------------------------------------------------------------------
# report emission

def _render_json(obj) -> str:
    """JSON text with floats at 17 significant digits and infinities as strings."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {_render_json(v)}" for k, v in obj.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _digest(inputs: dict, dist: DiscreteDistribution | None) -> str:
    """The report's `inputs` field, as defined in the module docstring."""
    law = b""
    if dist is not None:
        inputs = dict(inputs, atoms=dist.support_size)
        law = dist.values.astype("<f8").tobytes() + dist.probs.astype("<f8").tobytes()
    canon = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode() + law).hexdigest()


def _report(
    measure: str,
    p: float | None,
    value: float,
    x_star: float,
    t_interval: list[float] | None,
    attained: bool | None,
    iterations: int | None,
    achieved_tol: float | None,
    inputs: dict,
    dist: DiscreteDistribution | None,
    **extra,
) -> dict:
    report = {
        "measure": measure,
        "p": p,
        "value": value,
        "x_star": x_star,
        "t_interval": t_interval,
        "attained": attained,
        "iterations": iterations,
        "achieved_tol": achieved_tol,
    }
    report.update(extra)
    report["inputs"] = _digest(inputs, dist)
    return report


def _emit(args, report: dict) -> int:
    print(_render_json(report))
    if args.expect is None:
        return 0
    with open(args.expect) as fh:
        stored = json.load(fh)
    want = stored.get("value")
    if isinstance(want, str):
        want = float(want)
    if not isinstance(want, (int, float)):
        raise ValueError(f"{args.expect}: no numeric 'value' field")
    tol = stored.get("achieved_tol")
    tol = max(float(tol), 1e-12) if isinstance(tol, (int, float)) else 1e-12
    if not abs(report["value"] - float(want)) <= tol:
        print(
            f"expectation failed: value {report['value']!r} differs from "
            f"expected {float(want)!r} by more than {tol:g}",
            file=sys.stderr,
        )
        return 2
    return 0


# --------------------------------------------------------------------------
# subcommands

def _cmd_evar(args) -> int:
    dist = parse_scenarios(args.file, normalize=args.normalize)
    sol = evar(dist, args.p, args.alpha)
    inputs = {
        "command": "evar",
        "p": args.p,
        "alpha": args.alpha,
    }
    report = _report(
        "evar",
        args.p,
        sol.value,
        sol.value,
        [sol.t_lo, sol.t_hi],
        sol.t_hi > -math.inf,  # inner minimum attained iff a minimizer was resolved
        sol.iterations,
        sol.achieved_tol,
        inputs,
        dist,
    )
    return _emit(args, report)


def _cmd_lambda(args) -> int:
    dist = parse_scenarios(args.file, normalize=args.normalize)
    level_fn = parse_lambda_spec(args.lambda_spec)
    if args.measure == "var":
        family, p_out = var_family(dist), None
    elif args.measure == "es":
        family, p_out = es_family(dist), 1.0
    else:
        family, p_out = evar_family(dist, args.p), args.p
    res = lambda_lift(dist, family, level_fn)
    inputs = {
        "command": "lambda",
        "measure": args.measure,
        "p": p_out,
        "lambda": level_fn.to_spec(),
    }
    t_int = None if res.t_lo is None else [res.t_lo, res.t_hi]
    report = _report(
        f"lambda_{args.measure}",
        p_out,
        res.value,
        res.x_star,
        t_int,
        res.attained,
        res.iterations,
        res.achieved_tol,
        inputs,
        dist,
    )
    return _emit(args, report)


def _cmd_ru(args) -> int:
    dist = parse_scenarios(args.file, normalize=args.normalize)
    level_fn = parse_lambda_spec(args.lambda_spec)
    res = extended_ru(dist, args.p, level_fn)
    inputs = {
        "command": "ru",
        "p": args.p,
        "lambda": level_fn.to_spec(),
    }
    report = _report(
        "lambda_evar_ru",
        args.p,
        res.value,
        res.x_star,
        [res.t_lo, res.t_hi],
        res.attained,
        res.iterations,
        res.achieved_tol,
        inputs,
        dist,
    )
    return _emit(args, report)


def _cmd_robust_wasserstein(args) -> int:
    dist = parse_scenarios(args.file, normalize=args.normalize)
    level_fn = parse_lambda_spec(args.lambda_spec)
    res = worst_case_wasserstein(dist, args.p, level_fn, args.delta)
    inputs = {
        "command": "robust wasserstein",
        "p": args.p,
        "delta": args.delta,
        "lambda": level_fn.to_spec(),
    }
    # solver diagnostics are not part of the closed-form result: reported null
    report = _report(
        "robust_wasserstein",
        args.p,
        res.value,
        res.x_star,
        None,
        None,
        None,
        None,
        inputs,
        dist,
        nominal=res.nominal,
        inflation=res.inflation,
    )
    return _emit(args, report)


def _cmd_robust_meanvar(args) -> int:
    level_fn = parse_lambda_spec(args.lambda_spec)
    res = worst_case_mean_variance(MomentSet(args.mean, args.std), level_fn)
    p_out = {"var": None, "es": 1.0, "evar2": 2.0}[args.measure]
    inputs = {
        "command": "robust meanvar",
        "measure": args.measure,
        "mean": args.mean,
        "std": args.std,
        "lambda": level_fn.to_spec(),
    }
    report = _report(
        f"robust_meanvar_{args.measure}",
        p_out,
        res.value,
        res.x_star,
        None,
        None,
        None,
        None,
        inputs,
        None,
        nominal=res.nominal,
        inflation=res.inflation,
    )
    return _emit(args, report)


def _cmd_sweep(args) -> int:
    dist = parse_scenarios(args.file, normalize=args.normalize)
    level_fn = parse_lambda_spec(args.lambda_spec)
    lo, hi, n = _parse_grid(args.grid)
    xs = np.linspace(lo, hi, n)
    levels = level_fn.eval_many(xs)
    uniq, inverse = np.unique(levels, return_inverse=True)
    per_level = np.array([evar_value(dist, args.p, float(a)) for a in uniq])
    gs = per_level[inverse]
    writer = csv.writer(sys.stdout)
    writer.writerow(["x", "g(x)", "min(g(x),x)", "max(g(x),x)"])
    for x, g in zip(map(float, xs), map(float, gs)):
        writer.writerow(
            [
                format(x, ".17g"),
                format(g, ".17g"),
                format(min(g, x), ".17g"),
                format(max(g, x), ".17g"),
            ]
        )
    return 0


def _cmd_check(args) -> int:
    config = CampaignConfig(seed=args.seed, cases=args.cases, max_support=args.max_support)
    report = run_campaign(config)
    print(report.to_json())
    return 0  # failures are data in the report, not a broken invocation


# --------------------------------------------------------------------------
# wiring

def _add_io_flags(sp) -> None:
    sp.add_argument("--normalize", action="store_true", help="rescale probabilities to sum 1")
    sp.add_argument("--expect", metavar="REPORT", help="stored report whose value must reproduce")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdarisk",
        description="Level-adaptive entropic risk measures on finite scenario sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("evar", help="classical entropic value-at-risk")
    sp.add_argument("--p", type=float, required=True, help="norm order >= 1")
    sp.add_argument("--alpha", type=float, required=True, help="confidence level in [0, 1]")
    sp.add_argument("file", help="scenario CSV")
    _add_io_flags(sp)
    sp.set_defaults(handler=_cmd_evar)

    sp = sub.add_parser("lambda", help="level-adaptive lift of var/es/evar")
    sp.add_argument("--measure", choices=("var", "es", "evar"), required=True)
    sp.add_argument("--p", type=float, default=1.0, help="norm order (evar measure only)")
    sp.add_argument("--lambda", dest="lambda_spec", required=True, metavar="SPEC",
                    help="level-function JSON spec")
    sp.add_argument("file", help="scenario CSV")
    _add_io_flags(sp)
    sp.set_defaults(handler=_cmd_lambda)

    sp = sub.add_parser("ru", help="joint (t, x) minimization form of the entropic lift")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--lambda", dest="lambda_spec", required=True, metavar="SPEC")
    sp.add_argument("file", help="scenario CSV")
    _add_io_flags(sp)
    sp.set_defaults(handler=_cmd_ru)

    sp = sub.add_parser("robust", help="worst case under ambiguity")
    rsub = sp.add_subparsers(dest="ambiguity", required=True)

    rw = rsub.add_parser("wasserstein", help="transport ball around the scenario law")
    rw.add_argument("--p", type=float, required=True)
    rw.add_argument("--delta", type=float, required=True, help="transport radius >= 0")
    rw.add_argument("--lambda", dest="lambda_spec", required=True, metavar="SPEC")
    rw.add_argument("file", help="scenario CSV")
    _add_io_flags(rw)
    rw.set_defaults(handler=_cmd_robust_wasserstein)

    rm = rsub.add_parser("meanvar", help="all laws with given mean and std bound")
    rm.add_argument("--mean", type=float, required=True)
    rm.add_argument("--std", type=float, required=True)
    rm.add_argument(
        "--measure",
        choices=("var", "es", "evar2"),
        default="es",
        help="report label only: the three families share one envelope",
    )
    rm.add_argument("--lambda", dest="lambda_spec", required=True, metavar="SPEC")
    rm.add_argument("--expect", metavar="REPORT", help="stored report whose value must reproduce")
    rm.set_defaults(handler=_cmd_robust_meanvar)

    sp = sub.add_parser("sweep", help="dump the level curve on a grid as CSV")
    sp.add_argument("--lambda", dest="lambda_spec", required=True, metavar="SPEC")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--grid", required=True, metavar="LO:HI:N")
    sp.add_argument("file", help="scenario CSV")
    sp.add_argument("--normalize", action="store_true", help="rescale probabilities to sum 1")
    sp.set_defaults(handler=_cmd_sweep)

    sp = sub.add_parser("check", help="run the seeded property campaign")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cases", type=int, default=200)
    sp.add_argument("--max-support", type=int, default=20)
    sp.set_defaults(handler=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
