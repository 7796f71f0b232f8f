"""Command-line interface.

Subcommands::

    aitax check-assumptions CONFIG [--grid-factor F --grid-points N] [--out PATH]
    aitax solve CONFIG [--mode steady|finite] [--T N] [--out PATH] [--format json|csv]
    aitax sweep CONFIG --param NAME --lo V --hi V --points N [--log] [--threshold] [--out PATH]
    aitax oracle-verify CONFIG [--grid-points N] [--frac F] [--solution PATH] [--out PATH]

Exit codes are a stable contract:

    0  success
    1  an assumption check failed
    2  config or argument problem (argparse also uses 2), or an output
       path that cannot be written
    3  the solver did not converge
    4  solved, but both incentive constraints bind (outside the theory's cases)
    5  threshold requested but the endpoints share a regime
    6  oracle disagreement, or a solution file that fails re-verification

Every solve is deterministic: nothing is seeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .configio import load_config
from .economy import AgentKind, SolveMode, require_valid
from .errors import (
    AitaxError,
    ConfigError,
    DomainError,
    EmptyFeasibleSetError,
    OracleIndeterminateError,
    SolverError,
    ThresholdRangeError,
)
from .oracle import agreement, brute_force_steady, grid_bracketing
from .planner import (
    TOL_NEWTON,
    Regime,
    _objective,
    foc_residuals,
    solve_finite_horizon,
    solve_steady_state,
)
from .production import check_assumptions
from .reporting import (
    RunManifest,
    assumption_payload,
    load_solution,
    render_float,
    solution_payload,
    sweep_payload,
    threshold_payload,
    write_json,
    write_manifest_sidecar,
    write_solution_csv,
    write_sweep_csv,
)
from .sweep import find_threshold, sweep
from .wedges import compute_wedge_report

EXIT_OK = 0
EXIT_ASSUMPTION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BOTH_BIND = 4
EXIT_NO_FLIP = 5
EXIT_ORACLE = 6

# relative; a file written by this program matches its recomputed objective exactly
_OBJECTIVE_TOL = 1e-12


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _manifest(subcommand: str, digest: str, params: dict, started: float,
              outcome: str) -> RunManifest:
    return RunManifest(
        config_digest=digest,
        subcommand=subcommand,
        parameters=params,
        version=__version__,
        duration_s=time.perf_counter() - started,
        outcome=outcome,
    )


def _load(path: str):
    """The config at ``path`` and its raw bytes, validated before any use."""
    config, raw = load_config(path)
    require_valid(config)
    return config, raw


def _cmd_check_assumptions(args) -> int:
    started = time.perf_counter()
    config, raw = _load(args.config)
    report = check_assumptions(config.tech, factor=args.grid_factor, points=args.grid_points)
    outcome = "ok" if report.all_pass else "assumption_failure"
    manifest = _manifest(
        "check-assumptions", _digest(raw),
        {"config": args.config, "grid_factor": args.grid_factor,
         "grid_points": args.grid_points},
        started, outcome,
    )
    write_json(args.out, manifest, assumption_payload(report))
    for check in report.checks():
        print(f"{check.name}: {check.verdict} (worst {check.axis} derivative "
              f"{render_float(check.worst_value)})")
    print(f"report written to {args.out}")
    return EXIT_OK if report.all_pass else EXIT_ASSUMPTION


def _cmd_solve(args) -> int:
    started = time.perf_counter()
    # the solvers validate the config, after the --mode and --T overrides
    config, raw = load_config(args.config)
    if args.mode is not None:
        mode = SolveMode.STEADY_STATE if args.mode == "steady" else SolveMode.FINITE_HORIZON
        config = replace(config, mode=mode)
    if args.T is not None:
        config = replace(config, horizon=args.T)

    solution = (solve_finite_horizon(config)
                if config.mode is SolveMode.FINITE_HORIZON
                else solve_steady_state(config))
    wedges = compute_wedge_report(solution)
    outcome = "both_bind" if solution.regime is Regime.BOTH_BIND else "ok"
    manifest = _manifest(
        "solve", _digest(raw),
        {"config": args.config, "mode": config.mode.value, "T": config.horizon,
         "format": args.format},
        started, outcome,
    )
    payload = solution_payload(solution, wedges)
    if args.format == "json":
        out = args.out or "solution.json"
        write_json(out, manifest, payload)
    else:
        out = args.out or "solution.csv"
        write_solution_csv(out, solution)
        scalars = {k: v for k, v in payload.items() if k not in ("allocation", "multipliers")}
        write_manifest_sidecar(out, manifest, scalars)

    print(f"regime: {solution.regime.value}")
    print(f"objective: {render_float(solution.objective)}")
    print(f"foc residual: {render_float(solution.foc_residual)}")
    c = AgentKind.COGNITIVE
    print(f"tau_k: {render_float(wedges.tau_k[c])}  tau_ai: {render_float(wedges.tau_ai[c])}")
    for key, check in wedges.verdicts.items():
        print(f"{key}: {check.verdict}")
    for warning in solution.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"solution written to {out}")
    return EXIT_BOTH_BIND if solution.regime is Regime.BOTH_BIND else EXIT_OK


def _cmd_sweep(args) -> int:
    started = time.perf_counter()
    config, raw = _load(args.config)
    if args.points < 2:
        raise DomainError(f"grid needs >= 2 points, got {args.points}")
    if args.threshold and not 0.0 < args.tol < np.inf:
        raise DomainError(f"--tol must be positive and finite, got {args.tol}")
    for flag, end in (("--lo", args.lo), ("--hi", args.hi)):
        if not np.isfinite(end):
            raise DomainError(f"{flag} must be finite, got {end}")
        if args.log and not end > 0.0:
            raise DomainError(f"--log needs a positive {flag}, got {end}")
    if args.log:
        values = np.geomspace(args.lo, args.hi, args.points)
    else:
        values = np.linspace(args.lo, args.hi, args.points)

    result = sweep(config, args.param, values)
    params = {"config": args.config, "param": args.param, "lo": args.lo,
              "hi": args.hi, "points": args.points, "log": args.log,
              "threshold": args.threshold, "tol": args.tol}

    out = args.out or "sweep.csv"
    write_sweep_csv(out, result)
    manifest = _manifest("sweep", _digest(raw), params, started, "ok")
    write_manifest_sidecar(out, manifest, sweep_payload(result))
    print(f"{len(result.points)} points, {result.n_failures} failures, "
          f"flips at {result.flip_brackets() or 'none'}")
    print(f"table written to {out}")

    if args.threshold:
        th = None
        bracket = result.threshold_bracket
        if bracket is not None:
            # bisect the sweep's own flip, its ends warm from the sweep's solutions
            i = result.values.index(bracket[0])
            try:
                th = find_threshold(config, args.param, *bracket, tol_param=args.tol,
                                    warm=result.solutions[i:i + 2])
            except ThresholdRangeError:
                pass  # the ends' first bests violate the same side: search cold below
        if th is None:
            # a cold search re-solves the range ends: one the sweep failed on cannot bracket
            for end in (result.points[0], result.points[-1]):
                if not end.ok:
                    raise ThresholdRangeError(
                        f"no single flip, and the range end {args.param}={end.value} "
                        f"did not solve: {end.error}")
            th = find_threshold(config, args.param, args.lo, args.hi, tol_param=args.tol)
        bracket_path = out + ".bracket.json"
        manifest = _manifest("sweep", _digest(raw), params, started, "ok")
        write_json(bracket_path, manifest, threshold_payload(th))
        print(f"threshold bracket [{render_float(th.lo)}, {render_float(th.hi)}] "
              f"written to {bracket_path}")
    return EXIT_OK


def _verify_loaded(args, config, loaded) -> tuple[dict, bool]:
    """Re-check a stored steady state against ``config``.

    Checks the KKT residuals against ``TOL_NEWTON``, the tolerance every
    solve stops at, that the stored objective is the one the
    stored allocation gives, and that the grid oracle finds nothing better
    and the same regime.  ``foc_residuals`` goes first, so a stored value
    outside the kernels' domain raises DomainError naming it before
    anything else uses it.  Finite-horizon files raise DomainError: the
    oracle grid is built around stationary solutions only.  The stored
    numbers are evaluated with numpy's floating-point warnings off: a value
    that overflows the kernels gives a non-finite residual, objective or
    grid, which fails its check without a warning.
    """
    with np.errstate(all="ignore"):
        residuals = foc_residuals(config, loaded.allocation, loaded.multipliers)
        grid = grid_bracketing(loaded, frac=args.frac, points=args.grid_points)
        worst = max(float(np.max(np.abs(np.atleast_1d(v)))) for v in residuals.values())
        stored = float(loaded.payload["objective"])
        objective = _objective(config, loaded.allocation)
        stored_ok = abs(stored - objective) <= _OBJECTIVE_TOL * max(1.0, abs(objective))
        if not stored_ok:
            print(f"stored objective {render_float(stored)} differs from "
                  f"{render_float(objective)}, recomputed from the stored allocation",
                  file=sys.stderr)
        oracle = brute_force_steady(config, grid)
        gap = oracle.objective - objective
    objective_ok = stored_ok and gap <= oracle.gap_allowance
    ok = worst <= TOL_NEWTON and objective_ok and loaded.regime == oracle.regime
    report = {
        "source": "file",
        "kkt_residual": worst,
        "kkt_ok": worst <= TOL_NEWTON,
        "objective_file": stored,
        "objective_oracle": oracle.objective,
        "objective_gap": gap,
        "objective_ok": objective_ok,
        "regime_file": loaded.regime,
        "regime_oracle": oracle.regime,
        "regime_ok": loaded.regime == oracle.regime,
        "gap_allowance": oracle.gap_allowance,
    }
    return report, ok


def _cmd_oracle_verify(args) -> int:
    started = time.perf_counter()
    config, raw = _load(args.config)
    if args.solution is not None:
        loaded = load_solution(args.solution)
        report, ok = _verify_loaded(args, config, loaded)
    else:
        solution = solve_steady_state(config)
        grid = grid_bracketing(solution, frac=args.frac, points=args.grid_points)
        oracle = brute_force_steady(config, grid)
        ag = agreement(solution, oracle)
        ok = ag["objective_ok"] and ag["regime_ok"]
        report = {
            "source": "solve",
            "objective_solver": solution.objective,
            "objective_oracle": oracle.objective,
            "gap_allowance": oracle.gap_allowance,
            **ag,
        }

    manifest = _manifest(
        "oracle-verify", _digest(raw),
        {"config": args.config, "grid_points": args.grid_points,
         "frac": args.frac, "solution": args.solution},
        started, "ok" if ok else "disagreement",
    )
    write_json(args.out, manifest, report)
    for key in ("objective_gap", "objective_ok", "regime_ok"):
        if key in report:
            print(f"{key}: {report[key]}")
    print(f"report written to {args.out}")
    return EXIT_OK if ok else EXIT_ORACLE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="aitax",
        description="Constrained-efficient allocations and tax wedges for a "
                    "two-type economy with traditional and AI capital.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-assumptions", help="sign-check the factor-bias assumptions")
    p.add_argument("config")
    p.add_argument("--grid-factor", type=float, default=2.0)
    p.add_argument("--grid-points", type=int, default=5)
    p.add_argument("--out", default="assumptions.json")
    p.set_defaults(func=_cmd_check_assumptions)

    p = sub.add_parser("solve", help="solve the planner problem and report wedges")
    p.add_argument("config")
    p.add_argument("--mode", choices=("steady", "finite"))
    p.add_argument("--T", type=int, dest="T")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="re-solve along a parameter grid")
    p.add_argument("config")
    p.add_argument("--param", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log", action="store_true")
    p.add_argument("--threshold", action="store_true")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle-verify", help="compare the solver against a grid search")
    p.add_argument("config")
    p.add_argument("--grid-points", type=int, default=8)
    p.add_argument("--frac", type=float, default=0.4)
    p.add_argument("--solution", help="verify this solution file instead of re-solving")
    p.add_argument("--out", default="oracle.json")
    p.set_defaults(func=_cmd_oracle_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ThresholdRangeError as exc:
        print(f"threshold error: {exc}", file=sys.stderr)
        return EXIT_NO_FLIP
    except (EmptyFeasibleSetError, OracleIndeterminateError) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (DomainError, AitaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # the loaders raise ConfigError for their own files: this is an output path
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
