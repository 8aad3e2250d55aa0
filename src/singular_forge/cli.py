"""Command-line front end: parses and validates a run's configuration, calls
its subcommand's report in ``verify``, writes its files and maps its verdict
to the exit code.

Subcommands: classify, construct, verify, sweep, tables, appendix.  Exit
codes: 0 success, 1 a configuration refused before the run, nothing written,
2 the run failed (its JSON says why), 3 out of regime (for ``tables``, every
cell), 4 verification failed (``verify`` could not fit the decay rate, or a
check failed; summary.json is written all the same).  All file output is
deterministic: identical inputs give byte-identical CSV/JSON (17
significant digits, LF endings, sorted keys), and every JSON embeds the
resolved fields its subcommand reads (``_READS``), so it can be re-fed via
--config to reproduce the run.  A malformed or unknown flag exits 1, as does
a flag or config-file value the subcommand does not read.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import nonlinearity as nl_mod
from ._csvfmt import format_rows
from .classification import classify
from .errors import ConfigError, DomainError, SingularForgeError
from .profile import to_radial
from .verify import (FAILED, OK, OUT_OF_SCOPE, RATE_FAMILIES, UNVERIFIED,
                     RunReport, appendix_check, run_report, sweep_report,
                     table_cell)

DEFAULT_CELLS = [(1.75, 1.0), (1.75, 1.7), (1.8, 1.0), (2.0, 1.0), (2.0, 1.9)]
DEFAULT_PAIRS = [(a, b) for a in (1e-4, 3e-4, 1e-3)
                 for b in (1e-4, 3e-4, 1e-3)]
DEFAULT_SIGMAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
_FORMATS = ("csv", "json")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v):
    """v is a finite real number; bools are not numbers here."""
    return _is_int(v) or isinstance(v, float) and math.isfinite(v)


def _is_pair_list(v):
    return isinstance(v, (list, tuple)) and all(
        isinstance(x, (list, tuple)) and len(x) == 2
        and all(map(_is_finite, x)) for x in v)


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

    def validate(self, flags=()):
        """Check every field's type and range (a config file is outside
        input too); then refuse a field the subcommand does not read (see
        _READS) that a flag set, whatever its value, or that differs from
        its default; then each nonlinearity the run uses, built through
        from_spec, and appendix's sigmas.  pairs and cells come out as lists
        of tuples, and the list the run reads defaults to DEFAULT_*."""
        if self.command not in _READS:
            raise ConfigError(f"command: unknown subcommand {self.command!r}")
        for key in ("rho0", "tol", "alpha", "beta"):
            if not _is_finite(getattr(self, key)):
                raise ConfigError(f"{key}: must be a finite number")
        for key in (*nl_mod.PARAMS, "rho_max"):
            value = getattr(self, key)
            if value is not None and not _is_finite(value):
                raise ConfigError(f"{key}: must be a finite number")
        for key in ("pairs", "cells"):
            if not _is_pair_list(getattr(self, key)):
                raise ConfigError(f"{key}: must be a list of finite pairs")
            setattr(self, key, [tuple(x) for x in getattr(self, key)])
        if not (isinstance(self.sigmas, list)
                and all(map(_is_finite, self.sigmas))):
            raise ConfigError("sigmas: must be a list of finite numbers")
        if not isinstance(self.family, str):
            raise ConfigError("family: must be a string")
        if not isinstance(self.out, str):
            raise ConfigError("out: must be a path")
        if not isinstance(self.auto_rho0, bool):
            raise ConfigError("auto_rho0: must be true or false")
        if not (isinstance(self.formats, list)
                and all(f in _FORMATS for f in self.formats)):
            raise ConfigError(f"formats: must be a list among {_FORMATS}")
        if not _is_finite(self.N) or int(self.N) != self.N or self.N < 3:
            raise ConfigError("N: must be an integer >= 3")
        if not _is_int(self.M) or self.M < 9:
            raise ConfigError("M: needs an integer of at least 9 nodes")
        if not _is_int(self.max_iter) or self.max_iter < 1:
            raise ConfigError("max_iter: must be an integer >= 1")
        if self.tol <= 0.0:
            raise ConfigError("tol: must be positive")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ConfigError("alpha/beta: must be nonnegative")
        if self.rho_max is not None and self.rho_max <= self.rho0:
            raise ConfigError("rho_max: must exceed rho0")
        for a, b in self.pairs:
            if a < 0.0 or b < 0.0:
                raise ConfigError("pairs: entries must be nonnegative")
        default = RunConfig(self.command)
        for key in _FIELDS:
            if key not in _READS[self.command] and (
                    key in flags or getattr(self, key) != getattr(default, key)):
                raise ConfigError(f"{_FLAGS[key]}: {self.command} does not "
                                  "read it")
        if self.command == "appendix" and self.family != "power_sum":
            raise ConfigError("family: appendix check needs family power_sum")
        if self.command == "tables":
            names = [c.name for c in RATE_FAMILIES]
            if self.family not in names:
                raise ConfigError(
                    f"--family: tables needs a family with a predicted decay "
                    f"rate, one of {names}")
            self.cells = self.cells or list(DEFAULT_CELLS)
        elif self.command == "sweep":
            self.pairs = self.pairs or list(DEFAULT_PAIRS)
        elif self.command == "appendix":
            self.sigmas = self.sigmas or list(DEFAULT_SIGMAS)
        self.nonlinearities  # built, and so checked, once
        if self.command == "appendix":
            try:
                nl_mod.check_sigma(*self.nonlinearities, self.sigmas)
            except DomainError as exc:
                raise ConfigError(f"sigmas: {exc}") from exc
        return self

    @functools.cached_property
    def nonlinearities(self):
        """The run's nonlinearity, or one per tables cell with the cell's p
        and r, each built by from_spec; validate builds them, and the run
        reads them from here."""
        spec = {key: getattr(self, key) for key in ("family", *nl_mod.PARAMS)}
        if self.command != "tables":
            return (nl_mod.from_spec(spec),)
        nls = []
        for p, r in self.cells:
            try:
                nls.append(nl_mod.from_spec({**spec, "p": p, "r": r}))
            except ConfigError as exc:
                if not isinstance(exc.__cause__, ValueError):
                    raise  # a parameter missing or unread, not the cell's
                raise ConfigError(
                    f"cells: bad cell p={p}, r={r}: {exc}") from exc
        return tuple(nls)

    def as_dict(self):
        """The command and the fields it reads, as its JSON records them."""
        return {key: getattr(self, key)
                for key in ("command", *_READS[self.command])}


# the settings, each with a flag on every subcommand; dest is the field
_FIELDS = [f.name for f in fields(RunConfig) if f.name != "command"]
_FLAGS = {**{key: "--" + key.replace("_", "-") for key in _FIELDS},
          "auto_rho0": "--no-auto-rho0", "formats": "--format"}


def _parse_pairs(text, name):
    """'a:b,c:d' -> [(a, b), (c, d)]; errors name the field ``name``."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = chunk.split(":")
            pairs.append((float(a), float(b)))
        except ValueError as exc:
            raise ConfigError(f"{name}: cannot parse {chunk!r}") from exc
    return pairs


def _parse_floats(text, name):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {text!r}") from exc


def _parse_exponent(text, name):
    values = _parse_floats(text, name)
    if len(values) != 1:
        raise ConfigError(f"{name}: a list is only valid for tables")
    return values[0]


# the flags given as text, by field; the others argparse has converted
_PARSERS = {
    "p": _parse_exponent, "r": _parse_exponent,
    "pairs": _parse_pairs, "cells": _parse_pairs, "sigmas": _parse_floats,
    "formats": lambda text, _: [f.strip() for f in text.split(",")
                                if f.strip()],
}


_HELP = {
    "family": "one of " + ", ".join(nl_mod.FAMILIES),
    "rho_max": "end of the grid (default rho0 + grid_span: the span the "
    "decay fit needs)",
    "pairs": "alpha:beta comma list, e.g. 1e-4:1e-4,2e-4:1e-4",
    "cells": "p:r comma list for the tables subcommand",
    "sigmas": "comma list of sigma values for appendix",
    "formats": "comma list among csv,json",
}


class _Parser(argparse.ArgumentParser):
    """Its subparsers share the class: a bad flag is a ConfigError, exit 1."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    """One subparser per subcommand, each with a flag for every RunConfig
    field: of the field's type, or text when _PARSERS reads it (--p and --r
    take comma lists for tables, the cross product defining its cells)."""
    ap = _Parser(
        prog="singular-forge",
        description="Construct and verify singular radial solutions of "
        "-Laplace(u) = f(u) near the origin.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file (flags override)")
        for f in fields(RunConfig)[1:]:  # every field after command
            if f.type is bool:
                sp.add_argument(_FLAGS[f.name], dest=f.name,
                                action="store_false", default=None)
            else:
                sp.add_argument(
                    _FLAGS[f.name], dest=f.name, help=_HELP.get(f.name),
                    type=None if f.name in _PARSERS else f.type)
    return ap


def load_config(args):
    """Merge an optional JSON config file with CLI flags (flags win), and
    validate the result against the flags given; a config key that names
    no field is refused."""
    cfg = RunConfig(command=args.command)
    if cfg.command == "tables":
        cfg.family = "power_sum"  # the table's own default family
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ConfigError(f"config: file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"config: not JSON: {exc}") from exc
        # a previously written JSON output embeds its config
        base = data.get("config", data) if isinstance(data, dict) else None
        if not isinstance(base, dict):
            raise ConfigError("config: must hold a JSON object")
        for key, value in base.items():
            if key not in _FIELDS and key != "command":
                raise ConfigError(f"{key}: not a setting")
            if key in _FIELDS and value is not None:
                setattr(cfg, key, value)
    flags = {key: getattr(args, key) for key in _FIELDS
             if getattr(args, key) is not None}
    if cfg.command == "tables" and ("p" in flags or "r" in flags):
        # the cells, unless --cells is given: the cross product of the two
        # lists (--r defaults to 1), keeping those with 0 < r < p
        p_text, r_text = flags.pop("p", None), flags.pop("r", "1")
        if p_text is None:
            raise ConfigError("--r: tables needs --p beside it")
        cfg.cells = [(p, r) for p in _parse_floats(p_text, "p")
                     for r in _parse_floats(r_text, "r") if 0.0 < r < p]
        if not cfg.cells:
            raise ConfigError("--p/--r: no cell with 0 < r < p")
    for key, value in flags.items():
        setattr(cfg, key, _PARSERS[key](value, key) if key in _PARSERS
                else value)
    return cfg.validate(flags)


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
# rows per format_rows call: each call pays about 60 numpy calls of fixed
# cost, and 1024 rows keep its temporaries near 1.5 MB
_CSV_BLOCK = 1024


def write_profile_csv(path, prof):
    """Write one CSV row per grid node of the profile, each value exactly as
    ``'%.17g' % v`` prints it; eta is theta and eta' is -r theta'.

    ``_csvfmt.format_rows`` formats the rows a block of _CSV_BLOCK rows at a
    time from slices of the columns, in numpy, so the whole table is never
    held as text at once.  A column array that fills more than one column
    (theta fills eta and theta, and ``to_radial``'s tilde_u is ``ctx.phi``)
    is formatted once per block and its bytes repeated; columns are matched
    by identity, never by value.  Adding 0.0 folds -0.0 into 0.
    """
    ctx = prof.ctx
    cols = [ctx.rho, prof.r, ctx.phi, ctx.I, prof.theta, -prof.rtheta_prime,
            prof.theta, prof.u, prof.tilde_u, prof.residual]
    # each distinct array once; the last column stays last, as the row's
    # newline is laid out with it
    head = {id(c): c for c in cols[:-1]}
    slot = {key: j for j, key in enumerate(head)}
    order = np.array([slot[id(c)] for c in cols[:-1]] + [len(head)])
    distinct = [*head.values(), cols[-1]]
    with open(path, "wb") as fh:
        fh.write((",".join(_CSV_COLUMNS) + "\n").encode("ascii"))
        for lo in range(0, len(ctx.rho), _CSV_BLOCK):
            block = np.column_stack([c[lo:lo + _CSV_BLOCK] for c in distinct])
            block += 0.0
            fh.write(format_rows(block, order))


# the exit code of each verdict, and the words stderr puts before a reason
_EXIT = {OK: (0, None), FAILED: (2, "run failed"),
         OUT_OF_SCOPE: (3, "out of regime"),
         UNVERIFIED: (4, "verification failed")}


def _finish(cfg, rep):
    """Write the run's JSON, config and the report's body, if json is among
    the formats; print the report's reason, if any, after the words for its
    verdict on stderr; return the verdict's exit code."""
    if "json" in cfg.formats:
        write_json(os.path.join(cfg.out, _COMMANDS[cfg.command][1]),
                   {"config": cfg.as_dict(), **rep.body})
    code, words = _EXIT[rep.verdict]
    if rep.reason is not None:
        print(f"{words}: {rep.reason}", file=sys.stderr)
    return code


def cmd_classify(cfg):
    cls = classify(*cfg.nonlinearities, cfg.N)
    print(json.dumps(_clean(cls.as_dict()), sort_keys=True, indent=2))
    body = {"classification": cls.as_dict()}
    return _finish(cfg, RunReport(body) if cls.in_scope else
                   RunReport(body, OUT_OF_SCOPE, cls.regime.reason))


def cmd_construct(cfg):
    """construct, and verify, which adds the full verification."""
    (nl,) = cfg.nonlinearities
    rep = run_report(nl, classify(nl, cfg.N), cfg.command == "verify",
                     alpha=cfg.alpha, beta=cfg.beta, rho0=cfg.rho0,
                     rho_max=cfg.rho_max, auto_rho0=cfg.auto_rho0, M=cfg.M,
                     tol=cfg.tol, max_iter=cfg.max_iter)
    if rep.solved is not None:
        if "csv" in cfg.formats:
            write_profile_csv(os.path.join(cfg.out, "profile.csv"),
                              rep.solved[2])
        print(json.dumps(_clean(rep.body["solver"]), sort_keys=True,
                         indent=2))
    return _finish(cfg, rep)


def cmd_sweep(cfg):
    (nl,) = cfg.nonlinearities
    rep = sweep_report(nl, classify(nl, cfg.N), cfg.pairs, cfg.tol,
                       cfg.max_iter, rho0=cfg.rho0, rho_max=cfg.rho_max,
                       auto_rho0=cfg.auto_rho0, M=cfg.M)
    if rep.solved is not None:
        ctx, result = rep.solved
        for i, pair in enumerate(result.pairs):
            sol = result.solutions.get(pair)
            if sol is not None and "csv" in cfg.formats:
                write_profile_csv(
                    os.path.join(cfg.out, f"profile_{i:03d}.csv"),
                    to_radial(ctx, sol.eta, sol.deta))
        print(f"{len(result.solutions)}/{len(result.pairs)} pairs converged")
    return _finish(cfg, rep)


def _report_cell(cfg, i, p, r, nl):
    """Cell i's report and verdict, its profile CSV written while its
    context lives."""
    rep = table_cell(cfg.N, p, r, nl, cfg.M, cfg.tol, cfg.max_iter)
    if rep.solved is not None and "csv" in cfg.formats:
        write_profile_csv(os.path.join(cfg.out, f"cell_{i:02d}_profile.csv"),
                          rep.solved[2])
    return rep.body, rep.verdict


def cmd_tables(cfg):
    reports, verdicts = zip(*[
        _report_cell(cfg, i, p, r, nl)
        for i, ((p, r), nl) in enumerate(zip(cfg.cells, cfg.nonlinearities))])
    for c in reports:
        if "error" in c:
            print(f"p={c['p']} r={c['r']}: ERROR {c['error']}")
        else:
            print(
                f"p={c['p']} r={c['r']}: lambda_fit={c['lambda_fit']:.4f} "
                f"pred={c['lambda_pred']:.4f} "
                f"ok={c['within_tolerance']} supports={c['supports']}"
            )
    # any cell solved: 0; every cell out of regime: 3; else 2
    verdict = (OK if OK in verdicts else OUT_OF_SCOPE
               if set(verdicts) == {OUT_OF_SCOPE} else FAILED)
    return _finish(cfg, RunReport({"cells": list(reports)}, verdict))


def cmd_appendix(cfg):
    result = appendix_check(*cfg.nonlinearities, cfg.sigmas)
    print(json.dumps(_clean(result), sort_keys=True, indent=2))
    return _finish(cfg, RunReport({"appendix": result}))


_CLASSIFY_READS = ("N", "family", *nl_mod.PARAMS, "out", "formats")
_SOLVE_READS = (*_CLASSIFY_READS, "rho0", "rho_max", "M", "tol", "max_iter",
                "auto_rho0")
# the RunConfig fields each subcommand reads: the only ones a flag or a
# config file may set, and the ones its JSON records.  tables' --p and --r
# set its cells; it solves every cell at (alpha, beta) = (1e-3, 2e-3) from
# rho0 = 3, with select_rho0 and the default grid end
_READS = {
    "classify": _CLASSIFY_READS,
    "construct": (*_SOLVE_READS, "alpha", "beta"),
    "verify": (*_SOLVE_READS, "alpha", "beta"),
    "sweep": (*_SOLVE_READS, "pairs"),
    "tables": ("N", "family", "log_exp", "M", "tol", "max_iter", "cells",
               "out", "formats"),
    "appendix": ("family", *nl_mod.PARAMS, "sigmas", "out", "formats"),
}
# the subcommands in the parser's order, each with its handler and the
# JSON it writes
_COMMANDS = {
    "classify": (cmd_classify, "summary.json"),
    "construct": (cmd_construct, "summary.json"),
    "verify": (cmd_construct, "summary.json"),
    "sweep": (cmd_sweep, "sweep.json"),
    "tables": (cmd_tables, "tables.json"),
    "appendix": (cmd_appendix, "appendix.json"),
}


def run(cfg):
    """Dispatch a validated RunConfig in its out directory; returns the exit
    code.  A run that raises is FAILED: its JSON records the typed error."""
    os.makedirs(cfg.out, exist_ok=True)
    try:
        return _COMMANDS[cfg.command][0](cfg)
    except SingularForgeError as exc:
        why = f"{type(exc).__name__}: {exc}"
        return _finish(cfg, RunReport({"error": why}, FAILED, why))


@functools.cache
def _parser():
    """The parser main() reuses: every default is None or immutable, so
    parsing leaves no state behind between calls in one process."""
    return build_parser()


def main(argv=None):
    try:
        cfg = load_config(_parser().parse_args(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
