"""Command-line entry point: validate markets, price payoffs, solve requirements.

Commands: validate, price, arbitrage, requirement, portfolio, levelset,
properties. Output is JSON first (``--format table`` renders a cosmetic
text view); infinities are serialized as the strings "-inf"/"+inf" to stay
inside JSON. Exit codes: 0 success, 1 failed validation, arbitrage or
property violations, else the ``exit_code`` of the raised ``CapreqError``:
1 for a refusal (payoff off the span, too many states to enumerate, ...),
2 for a ``UsageError`` (bad arguments, argparse's included, or input
files). Errors go to stderr as one JSON object, never as a traceback.

Given identical input files, flags and seed, the emitted JSON is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys

import numpy as np

from . import CapreqError, UsageError, verify
from .acceptance import load_acceptance
from .market import (ValidatedMarket, check_monotone_pricing, check_no_arbitrage,
                     load_market, validate_market)
from .riskmeasure import (DEFAULT_OPTIONS, SolveOptions, extreal_str, is_finite,
                          solve_rho)

EXIT_OK = 0
EXIT_DOMAIN = 1


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` where argparse would print usage and exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "table":
        for line in _render_table(doc):
            print(line)
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))


def _render_table(doc: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_render_table(value, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_validated_market(path: str, tol: float) -> ValidatedMarket:
    raw, numeraire = load_market(_read_file(path))
    return validate_market(raw, tol=tol, numeraire=numeraire)


def _parse_vector(text: str, n: int, what: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"{what} must be a list of numbers") from exc
    return _checked_vector(values, n, what)


def _checked_vector(values: list, n: int, what: str) -> np.ndarray:
    if len(values) != n:
        raise UsageError(f"{what} needs {n} entries, got {len(values)}")
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError as exc:   # a JSON integer beyond float range
        raise UsageError(f"{what} must be finite") from exc
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{what} must be finite")
    return arr


def _parse_points(text: str, n: int) -> list[np.ndarray]:
    """A JSON list of points, each checked like a ``--position`` vector."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"points file is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise UsageError("points file must hold a JSON list of points")
    points = []
    for k, p in enumerate(doc):
        if not (isinstance(p, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in p)):
            raise UsageError(f"point {k} must be a list of numbers")
        points.append(_checked_vector(p, n, f"point {k}"))
    return points


def _check_options(args) -> None:
    """Reject option values no solver can use, before any file is read."""
    for name in ("tol", "bracket_max"):
        value = getattr(args, name)
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"--{name.replace('_', '-')} must be positive and finite, "
                             f"got {value}")
    for name in ("lo", "hi", "level"):
        value = getattr(args, name, 0.0)
        if not math.isfinite(value):
            raise UsageError(f"--{name} must be finite, got {value}")
    for name in ("grid", "trials"):
        value = getattr(args, name, 1)
        if value < 1:
            raise UsageError(f"--{name} must be at least 1, got {value}")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")


def _options_from_args(args) -> SolveOptions:
    return dataclasses.replace(DEFAULT_OPTIONS, m_bracket_max=args.bracket_max,
                               lp_tol=args.tol)


def cmd_validate(args) -> int:
    vm = _load_validated_market(args.market, args.tol)
    arb = check_no_arbitrage(vm)
    monotone, violation = check_monotone_pricing(vm)
    doc = {
        "states": vm.n_states,
        "assets": vm.market.n_assets,
        "dim_eligible": vm.dim_m,
        "kernel_dim": int(vm.kernel_basis.shape[0]),
        "arbitrage": arb.kind,
        "free_lunch": arb.free_lunch,
        "free_lottery": arb.free_lottery,
        "monotone_pricing": monotone,
    }
    if arb.state_prices is not None:
        doc["state_prices"] = arb.state_prices.tolist()
    if arb.witness is not None:
        doc["witness"] = arb.witness.tolist()
    _emit(doc, args.format)
    return EXIT_OK if arb.kind == "none" else EXIT_DOMAIN


def cmd_price(args) -> int:
    vm = _load_validated_market(args.market, args.tol)
    payoff = _parse_vector(args.payoff, vm.n_states, "payoff")
    doc = {"payoff": payoff.tolist(), "price": vm.price(payoff, args.tol)}
    _emit(doc, args.format)
    return EXIT_OK


def cmd_arbitrage(args) -> int:
    vm = _load_validated_market(args.market, args.tol)
    arb = check_no_arbitrage(vm)
    doc = {"kind": arb.kind, "free_lunch": arb.free_lunch,
           "free_lottery": arb.free_lottery}
    if arb.state_prices is not None:
        doc["state_prices"] = arb.state_prices.tolist()
        doc["min_state_price"] = arb.min_state_price
    for name, w in (("lunch_witness", arb.lunch_witness),
                    ("lottery_witness", arb.lottery_witness)):
        if w is not None:
            doc[name] = w.tolist()
    _emit(doc, args.format)
    return EXIT_OK if arb.kind == "none" else EXIT_DOMAIN


def _solve_requirement(args):
    """The market, the result and the output keys both solving commands share."""
    vm = _load_validated_market(args.market, args.tol)
    a = load_acceptance(_read_file(args.acceptance), vm.space)
    x = _parse_vector(args.position, vm.n_states, "position")
    result = solve_rho(a, vm, x, _options_from_args(args))
    doc = {"position": x.tolist(), "value": extreal_str(result.value),
           "attained": result.attained, "strategy": result.strategy}
    return vm, result, doc


def cmd_requirement(args) -> int:
    _, result, doc = _solve_requirement(args)
    if result.optimal_payoff is not None:
        doc["payoff"] = result.optimal_payoff.tolist()
    _emit(doc, args.format)
    return EXIT_OK


def cmd_portfolio(args) -> int:
    vm, result, doc = _solve_requirement(args)
    if result.attained and result.optimal_payoff is not None:
        weights = vm.portfolio_for(result.optimal_payoff)
        doc["payoff"] = result.optimal_payoff.tolist()
        doc["weights"] = weights.tolist()
        doc["cost"] = float(vm.market.prices @ weights)
    else:
        doc["weights"] = None
    _emit(doc, args.format)
    return EXIT_OK


def cmd_levelset(args) -> int:
    vm = _load_validated_market(args.market, args.tol)
    a = load_acceptance(_read_file(args.acceptance), vm.space)
    opts = _options_from_args(args)
    n = vm.n_states

    if args.points is not None:
        points = _parse_points(_read_file(args.points), n)
    else:
        if n > 3:
            raise UsageError("grid output needs 2 or 3 states; use --points")
        axis = np.linspace(args.lo, args.hi, args.grid)
        if args.grid ** n > 1_000_000:
            raise UsageError("grid has more than 1e6 points")
        points = [np.asarray(p) for p in itertools.product(*([axis] * n))]

    band = 10 * opts.bisect_tol
    classified = []
    for p in points:
        result = solve_rho(a, vm, p, opts)
        value = result.value
        # attained LP solves resolve the level exactly; bisection only to a band
        exact_strategy = result.strategy in ("direct_lp", "var_enum")
        boundary_tol = 1e-9 if exact_strategy else band
        if is_finite(value) and abs(value - args.level) <= boundary_tol:
            tag = "boundary"
        elif is_finite(value) and abs(value - args.level) <= band:
            tag = "inconclusive"
        elif value < args.level:
            tag = "below"
        else:
            tag = "above"
        classified.append({"point": p.tolist(), "value": extreal_str(value), "tag": tag})
    _emit({"level": args.level, "count": len(classified), "points": classified},
          args.format)
    return EXIT_OK


_SUITES = ("axioms", "levelsets", "domain", "degeneracy", "all")


def cmd_properties(args) -> int:
    vm = _load_validated_market(args.market, args.tol)
    a = load_acceptance(_read_file(args.acceptance), vm.space)
    opts = _options_from_args(args)

    reports = []
    if args.suite in ("axioms", "all"):
        reports.append(verify.check_risk_measure_axioms(
            a, vm, trials=args.trials, seed=args.seed, opts=opts))
    if args.suite in ("levelsets", "all"):
        reports.append(verify.check_levelset_theorem(
            a, vm, grid=max(5, min(21, args.trials)), seed=args.seed, opts=opts))
    if args.suite in ("domain", "all"):
        reports.append(verify.check_domain_theorem(
            a, vm, trials=args.trials, seed=args.seed, opts=opts))
    if args.suite in ("degeneracy", "all"):
        reports.append(verify.check_degeneracy_lemmas(
            a, vm, grid=args.trials, seed=args.seed, opts=opts))

    doc = {"suite": args.suite, "seed": args.seed, "reports": [
        json.loads(r.to_json()) for r in reports]}
    doc["violations"] = sum(len(r.violations) for r in reports)
    doc["passed"] = doc["violations"] == 0
    _emit(doc, args.format)
    return EXIT_OK if doc["passed"] else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="capreq",
        description="Scenario-based capital requirements over one-period markets.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-8,
                        help="feasibility tolerance (default 1e-8)")
    common.add_argument("--seed", type=int, default=0, help="sampling seed")
    common.add_argument("--bracket-max", type=float, default=DEFAULT_OPTIONS.m_bracket_max,
                        help="search bound certifying infinite values")
    common.add_argument("--format", choices=("json", "table"), default="json")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="validate a market file and run arbitrage diagnostics")
    p.add_argument("market")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("price", parents=[common], help="price an eligible payoff")
    p.add_argument("market")
    p.add_argument("--payoff", required=True, help="comma/space separated values")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("arbitrage", parents=[common],
                       help="state prices or arbitrage witnesses")
    p.add_argument("market")
    p.set_defaults(func=cmd_arbitrage)

    p = sub.add_parser("requirement", parents=[common],
                       help="minimal cost of making a position acceptable")
    p.add_argument("market")
    p.add_argument("acceptance")
    p.add_argument("--position", required=True)
    p.set_defaults(func=cmd_requirement)

    p = sub.add_parser("portfolio", parents=[common],
                       help="requirement plus the optimal asset holdings")
    p.add_argument("market")
    p.add_argument("acceptance")
    p.add_argument("--position", required=True)
    p.set_defaults(func=cmd_portfolio)

    p = sub.add_parser("levelset", parents=[common],
                       help="classify grid points against a requirement level")
    p.add_argument("market")
    p.add_argument("acceptance")
    p.add_argument("--level", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=11)
    p.add_argument("--lo", type=float, default=-5.0)
    p.add_argument("--hi", type=float, default=5.0)
    p.add_argument("--points", help="JSON file with an explicit point list")
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("properties", parents=[common],
                       help="run a property suite against market + acceptance set")
    p.add_argument("market")
    p.add_argument("acceptance")
    p.add_argument("--suite", default="all", choices=_SUITES)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_properties)

    return parser


def main(argv=None) -> int:
    """Run one command; ``-h`` prints help and raises ``SystemExit(0)`` as usual."""
    try:
        args = build_parser().parse_args(argv)
        _check_options(args)
        # an overflow leaves an inf that the finiteness checks refuse with a
        # CapreqError; numpy's warning would add lines to the one-line stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except CapreqError as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}, sort_keys=True),
              file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
