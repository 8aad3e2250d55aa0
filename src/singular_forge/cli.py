"""Command-line front end.

Subcommands: classify, construct, verify, sweep, tables, appendix.
Exit codes: 0 success, 1 config/validation error, 2 convergence failure,
3 out of regime, 4 verification failed (``verify`` could not fit the decay
rate; summary.json still records the fit error).  All file output is
deterministic: identical inputs give byte-identical CSV/JSON (17
significant digits, LF endings, sorted keys), and the summary JSON embeds
the resolved config so it can be re-fed via --config to reproduce the run.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import classification as cls_mod
from . import nonlinearity as nl_mod
from .errors import (
    ConfigError,
    ConvergenceError,
    NoContractionError,
    SingularForgeError,
)
from .kernels import KernelSet
from .profile import build_context, to_radial
from .solver import picard_solve, sweep
from .verify import (
    appendix_check,
    build_report,
    decay_fit,
    limit_diagnostics,
    lipschitz_check,
    ode_residual_eta,
    ode_residual_radial,
    predicted_decay,
    resolve_grid,
    table_report,
    truncation_effect,
)

DEFAULT_CELLS = [(1.75, 1.0), (1.75, 1.7), (1.8, 1.0), (2.0, 1.0), (2.0, 1.9)]
DEFAULT_SIGMAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


@dataclass
class RunConfig:
    command: str
    N: int = 5
    family: str = "power"
    p: float = None
    r: float = None
    log_exp: float = None
    rho0: float = 3.0
    rho_max: float = None
    M: int = 4096
    tol: float = 1e-10
    max_iter: int = 200
    alpha: float = 1e-3
    beta: float = 1e-3
    pairs: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    sigmas: list = field(default_factory=list)
    auto_rho0: bool = True
    out: str = "out"
    formats: list = field(default_factory=lambda: ["csv", "json"])

    def validate(self):
        if self.command not in (
            "classify", "construct", "verify", "sweep", "tables", "appendix"
        ):
            raise ConfigError(f"command: unknown subcommand {self.command!r}")
        if int(self.N) != self.N or self.N < 3:
            raise ConfigError("N: must be an integer >= 3")
        if self.command != "tables":
            # tables cells carry their own (p, r)
            if self.p is None or self.p <= 1.0:
                raise ConfigError("p must exceed 1")
            if self.family in ("power_sum", "power_sum_log") and (
                self.r is None or not 0.0 < self.r < self.p
            ):
                raise ConfigError("r: must satisfy 0 < r < p")
            if self.family == "power_sum_log" and self.log_exp is None:
                raise ConfigError("log_exp: required for power_sum_log")
        for p, r in self.cells:
            if p <= 1.0 or not 0.0 < r < p:
                raise ConfigError(f"cells: bad cell p={p}, r={r}")
        if self.M < 9:
            raise ConfigError("M: needs at least 9 nodes")
        if self.tol <= 0.0:
            raise ConfigError("tol: must be positive")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ConfigError("alpha/beta: must be nonnegative")
        if self.rho_max is not None and self.rho_max <= self.rho0:
            raise ConfigError("rho_max: must exceed rho0")
        for a, b in self.pairs:
            if a < 0.0 or b < 0.0:
                raise ConfigError("pairs: entries must be nonnegative")
        return self

    def nonlinearity(self):
        spec = {"family": self.family, "p": self.p}
        if self.r is not None:
            spec["r"] = self.r
        if self.log_exp is not None:
            spec["log_exp"] = self.log_exp
        return nl_mod.from_spec(spec)

    def as_dict(self):
        return asdict(self)


def _parse_pairs(text):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = chunk.split(":")
            pairs.append((float(a), float(b)))
        except ValueError as exc:
            raise ConfigError(f"pairs: cannot parse {chunk!r}") from exc
    return pairs


def _parse_cells(text):
    cells = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            p, r = chunk.split(":")
            cells.append((float(p), float(r)))
        except ValueError as exc:
            raise ConfigError(f"cells: cannot parse {chunk!r}") from exc
    return cells


def _parse_floats(text, name):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {text!r}") from exc


def build_parser():
    ap = argparse.ArgumentParser(
        prog="singular-forge",
        description="Construct and verify singular radial solutions of "
        "-Laplace(u) = f(u) near the origin.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("classify", "construct", "verify", "sweep", "tables",
                 "appendix"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file (flags override)")
        sp.add_argument("--N", type=int, default=None)
        sp.add_argument("--family", default=None, choices=[
            "power", "power_sum", "power_log", "power_exp_log",
            "power_sum_log",
        ])
        # comma lists are accepted by the tables subcommand (cross product)
        sp.add_argument("--p", type=str, default=None)
        sp.add_argument("--r", type=str, default=None)
        sp.add_argument("--log-exp", dest="log_exp", type=float, default=None)
        sp.add_argument("--rho0", type=float, default=None)
        sp.add_argument("--rho-max", dest="rho_max", type=float, default=None,
                        help="end of the grid (default rho0 + grid_span: the "
                        "span the decay fit needs)")
        sp.add_argument("--M", type=int, default=None)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--beta", type=float, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        sp.add_argument("--no-auto-rho0", dest="auto_rho0",
                        action="store_false", default=None)
        sp.add_argument("--pairs", default=None,
                        help="alpha:beta comma list, e.g. 1e-4:1e-4,2e-4:1e-4")
        sp.add_argument("--cells", default=None,
                        help="p:r comma list for the tables subcommand")
        sp.add_argument("--sigmas", default=None,
                        help="comma list of sigma values for appendix")
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", dest="formats", default=None,
                        help="comma list among csv,json")
    return ap


def load_config(args):
    """Merge an optional JSON config file with CLI flags (flags win)."""
    base = {}
    if getattr(args, "config", None):
        path = args.config
        if not os.path.exists(path):
            raise ConfigError(f"config: file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        # a previously written summary embeds its config
        base = data.get("config", data)
    cfg = RunConfig(command=args.command)
    for key, value in base.items():
        if key == "command":
            continue
        if hasattr(cfg, key) and value is not None:
            setattr(cfg, key, value)
    overrides = {
        "N": args.N, "family": args.family,
        "log_exp": args.log_exp, "rho0": args.rho0, "rho_max": args.rho_max,
        "M": args.M, "alpha": args.alpha, "beta": args.beta, "tol": args.tol,
        "max_iter": args.max_iter, "out": args.out,
        "auto_rho0": args.auto_rho0,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    p_list = _parse_floats(args.p, "p") if args.p is not None else None
    r_list = _parse_floats(args.r, "r") if args.r is not None else None
    if cfg.command == "tables" and (p_list is not None and len(p_list) > 1
                                    or r_list is not None and len(r_list) > 1):
        # cross product of exponent lists defines the cells
        cfg.cells = [
            (p, r)
            for p in (p_list or [])
            for r in (r_list if r_list is not None else [1.0])
            if 0.0 < r < p
        ]
    else:
        if p_list is not None:
            if len(p_list) != 1:
                raise ConfigError("p: a list is only valid for tables")
            cfg.p = p_list[0]
        if r_list is not None:
            if len(r_list) != 1:
                raise ConfigError("r: a list is only valid for tables")
            cfg.r = r_list[0]
    if args.pairs is not None:
        cfg.pairs = _parse_pairs(args.pairs)
    if args.cells is not None:
        cfg.cells = _parse_cells(args.cells)
    if args.sigmas is not None:
        cfg.sigmas = _parse_floats(args.sigmas, "sigmas")
    if args.formats is not None:
        cfg.formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    cfg.pairs = [tuple(p) for p in cfg.pairs]
    cfg.cells = [tuple(c) for c in cfg.cells]
    return cfg.validate()


def _clean(obj):
    """Map non-finite floats to None so the JSON stays standard."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        return None
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def write_json(path, obj):
    text = json.dumps(_clean(obj), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


_CSV_COLUMNS = ["rho", "r", "phi", "I", "eta", "eta_prime", "theta", "u",
                "tilde_u", "residual"]
_CSV_ROW = ",".join(["%.17g"] * len(_CSV_COLUMNS)) + "\n"
_CSV_BLOCK = 256


def write_profile_csv(path, prof, ctx, eta, deta):
    """Write one CSV row per grid node, 17 significant digits per value.

    Rows are formatted a block at a time from slices of the columns, so the
    whole table is never held as Python floats at once.  Adding 0.0 folds
    -0.0 into 0; the row template prints nan, inf and -inf as such.
    """
    cols = [ctx.rho, prof.r, ctx.phi, ctx.I, eta, deta, prof.theta, prof.u,
            prof.tilde_u, prof.residual]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for lo in range(0, len(ctx.rho), _CSV_BLOCK):
            block = np.column_stack([c[lo:lo + _CSV_BLOCK] for c in cols])
            block += 0.0
            fh.writelines([_CSV_ROW % tuple(row) for row in block.tolist()])


def _classification_payload(cfg):
    nl = cfg.nonlinearity()
    cls = cls_mod.classify(nl, cfg.N)
    return nl, cls


def cmd_classify(cfg):
    nl, cls = _classification_payload(cfg)
    summary = {"config": cfg.as_dict(), "classification": cls.as_dict()}
    os.makedirs(cfg.out, exist_ok=True)
    if "json" in cfg.formats:
        write_json(os.path.join(cfg.out, "summary.json"), summary)
    print(json.dumps(_clean(cls.as_dict()), sort_keys=True, indent=2))
    return 0 if cls.in_scope else 3


def _solve_from_config(cfg, nl, cls):
    rho0, rho_max = resolve_grid(nl, cls, cfg.alpha, cfg.beta, cfg.rho0,
                                 cfg.rho_max, cfg.auto_rho0)
    ctx = build_context(nl, cls, rho0, rho_max, cfg.M)
    ks = KernelSet(cls)
    sol = picard_solve(ctx, ks, cfg.alpha, cfg.beta, tol=cfg.tol,
                       max_iter=cfg.max_iter)
    return ctx, ks, sol


def _solver_payload(sol):
    return {
        "alpha": sol.alpha,
        "beta": sol.beta,
        "delta": sol.delta,
        "iterations": sol.iterations,
        "final_change": sol.final_change,
        "contraction_ratio": sol.contraction_ratio,
        "weighted_norm": sol.weighted_norm_value,
        "case": sol.case_tag,
        "converged": sol.converged,
    }


def cmd_construct(cfg, full_verify=False):
    nl, cls = _classification_payload(cfg)
    if not cls.in_scope:
        os.makedirs(cfg.out, exist_ok=True)
        summary = {"config": cfg.as_dict(), "classification": cls.as_dict()}
        if "json" in cfg.formats:
            write_json(os.path.join(cfg.out, "summary.json"), summary)
        print(f"out of regime: {cls.regime.reason}", file=sys.stderr)
        return 3
    ctx, ks, sol = _solve_from_config(cfg, nl, cls)
    prof = to_radial(ctx, sol.eta, sol.deta)
    summary = {
        "config": cfg.as_dict(),
        "classification": cls.as_dict(),
        "grid": {"rho0": ctx.grid.rho0, "rho_max": ctx.grid.rho_max,
                 "M": ctx.grid.M},
        "solver": _solver_payload(sol),
        "residuals": {
            "radial_max_relative": ode_residual_radial(prof),
            "eta_equation_max": ode_residual_eta(sol, ctx),
        },
    }
    try:
        fit = decay_fit(sol, ctx)
        summary["fit"] = {
            "lambda": fit.lambda_fit, "power": fit.power_fit,
            "stderr_lambda": fit.stderr_lambda,
            "stderr_power": fit.stderr_power,
            "n_points": fit.n_points,
            "used_envelope_maxima": fit.used_envelope_maxima,
        }
    except SingularForgeError as exc:
        summary["fit"] = {"error": str(exc)}
    if full_verify:
        summary["limit_diagnostics"] = limit_diagnostics(nl, cls, ctx)
        summary["lipschitz"] = lipschitz_check(ctx, samples=2000)
        summary["truncation_effect"] = truncation_effect(ctx, ks, sol)
        if cfg.family in ("power_sum", "power_sum_log") and "fit" in summary \
                and "error" not in summary["fit"]:
            lam_pred, w_pred = predicted_decay(
                cls, cfg.p, cfg.r,
                cfg.log_exp if cfg.family == "power_sum_log" else 0.0,
            )
            summary["prediction"] = {"lambda": lam_pred, "power": w_pred}
            report = build_report(
                cls, cfg.p, cfg.r, sol, fit,
                summary["residuals"]["radial_max_relative"],
                summary["residuals"]["eta_equation_max"],
                cfg.log_exp if cfg.family == "power_sum_log" else 0.0,
            )
            summary["verification"] = report.as_dict()
    os.makedirs(cfg.out, exist_ok=True)
    if "csv" in cfg.formats:
        write_profile_csv(os.path.join(cfg.out, "profile.csv"), prof, ctx,
                          sol.eta, sol.deta)
    if "json" in cfg.formats:
        write_json(os.path.join(cfg.out, "summary.json"), summary)
    print(json.dumps(_clean(summary["solver"]), sort_keys=True, indent=2))
    if full_verify and "error" in summary["fit"]:
        print(f"verification failed: {summary['fit']['error']}",
              file=sys.stderr)
        return 4
    return 0


def cmd_sweep(cfg):
    nl, cls = _classification_payload(cfg)
    if not cls.in_scope:
        print(f"out of regime: {cls.regime.reason}", file=sys.stderr)
        return 3
    pairs = cfg.pairs or [
        (a, b)
        for a in (1e-4, 3e-4, 1e-3)
        for b in (1e-4, 3e-4, 1e-3)
    ][:10]
    rho0, rho_max = resolve_grid(
        nl, cls, max(a for a, _ in pairs), max(b for _, b in pairs),
        cfg.rho0, cfg.rho_max, cfg.auto_rho0,
    )
    ctx = build_context(nl, cls, rho0, rho_max, cfg.M)
    ks = KernelSet(cls)
    result = sweep(ctx, ks, pairs, tol=cfg.tol, max_iter=cfg.max_iter)
    os.makedirs(cfg.out, exist_ok=True)
    agg = {
        "config": cfg.as_dict(),
        "classification": cls.as_dict(),
        "grid": {"rho0": ctx.grid.rho0, "rho_max": ctx.grid.rho_max,
                 "M": ctx.grid.M},
        "pairs": [list(p) for p in result.pairs],
        "failures": {f"{a}:{b}": msg
                     for (a, b), msg in sorted(result.failures.items())},
        "max_converged_alpha_plus_beta": result.max_converged_size,
        "boundary_distinct": result.boundary_distinct,
        "sup_separations": result.sup_separations,
        "solutions": {},
    }
    for i, pair in enumerate(result.pairs):
        if pair not in result.solutions:
            continue
        sol = result.solutions[pair]
        agg["solutions"][f"{pair[0]}:{pair[1]}"] = _solver_payload(sol)
        if "csv" in cfg.formats:
            prof = to_radial(ctx, sol.eta, sol.deta)
            write_profile_csv(
                os.path.join(cfg.out, f"profile_{i:03d}.csv"),
                prof, ctx, sol.eta, sol.deta,
            )
    if "json" in cfg.formats:
        write_json(os.path.join(cfg.out, "sweep.json"), agg)
    print(f"{len(result.solutions)}/{len(pairs)} pairs converged")
    return 0 if result.solutions else 2


def cmd_tables(cfg):
    cells = cfg.cells or DEFAULT_CELLS
    family = cfg.family if cfg.family in ("power_sum", "power_sum_log") \
        else "power_sum"
    dump_csv = "csv" in cfg.formats
    reports = table_report(
        cfg.N, cells, family=family,
        log_exp=cfg.log_exp or 0.0, M=cfg.M, keep_solutions=dump_csv,
    )
    os.makedirs(cfg.out, exist_ok=True)
    if dump_csv:
        for i, cell in enumerate(reports):
            handle = cell.pop("_solution", None)
            if handle is None:
                continue
            ctx, sol = handle
            prof = to_radial(ctx, sol.eta, sol.deta)
            write_profile_csv(
                os.path.join(cfg.out, f"cell_{i:02d}_profile.csv"),
                prof, ctx, sol.eta, sol.deta,
            )
    payload = {"config": cfg.as_dict(), "cells": reports}
    if "json" in cfg.formats:
        write_json(os.path.join(cfg.out, "tables.json"), payload)
    for c in reports:
        if "error" in c:
            print(f"p={c['p']} r={c['r']}: ERROR {c['error']}")
        else:
            print(
                f"p={c['p']} r={c['r']}: lambda_fit={c['lambda_fit']:.4f} "
                f"pred={c['lambda_pred']:.4f} case={c['case']} "
                f"ok={c['within_tolerance']} supports={c['supports']}"
            )
    n_ok = sum(1 for c in reports if "error" not in c)
    return 0 if n_ok else 2


def cmd_appendix(cfg):
    if cfg.family != "power_sum":
        raise ConfigError("family: appendix check needs family power_sum")
    nl = cfg.nonlinearity()
    sigmas = cfg.sigmas or DEFAULT_SIGMAS
    result = appendix_check(nl, sigmas)
    os.makedirs(cfg.out, exist_ok=True)
    payload = {"config": cfg.as_dict(), "appendix": result}
    if "json" in cfg.formats:
        write_json(os.path.join(cfg.out, "appendix.json"), payload)
    print(json.dumps(_clean(result), sort_keys=True, indent=2))
    return 0


def run(cfg):
    """Dispatch a validated RunConfig; returns the process exit code."""
    if cfg.command == "classify":
        return cmd_classify(cfg)
    if cfg.command == "construct":
        return cmd_construct(cfg)
    if cfg.command == "verify":
        return cmd_construct(cfg, full_verify=True)
    if cfg.command == "sweep":
        return cmd_sweep(cfg)
    if cfg.command == "tables":
        return cmd_tables(cfg)
    if cfg.command == "appendix":
        return cmd_appendix(cfg)
    raise ConfigError(f"command: unknown subcommand {cfg.command!r}")


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, NoContractionError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 2
    except SingularForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
