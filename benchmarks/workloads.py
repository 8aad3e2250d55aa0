"""The three benchmark workloads: seeded CLI argv and the correctness check
of every solution an invocation produces.

Nothing here imports singular_forge, so the checks read only the files the
CLI wrote, the way a user of the CLI would.
"""

import csv
import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("paper_table", "sweep_pairs", "quad_verify")

# The paper's decay-rate table: the five cells `tables` runs by default.
PAPER_CELLS = [(1.75, 1.0), (1.75, 1.7), (1.8, 1.0), (2.0, 1.0), (2.0, 1.9)]
# Boundary data every table cell is solved with (table_report's defaults);
# the first CSV row must carry them bitwise.
TABLE_ALPHA, TABLE_BETA = 1e-3, 2e-3
# Boundary data are drawn log-uniform from this range, where every pair
# converges on the sweep_pairs and quad_verify nonlinearities.
BOUNDARY_RANGE = (1e-4, 1e-3)
SWEEP_PAIRS = 10
ORACLE_ROWS = 4
WEIGHTED_NORM_MAX = 2.0
ORACLE_RTOL = 1e-10


@dataclass
class Workload:
    name: str
    seed: int
    args: list  # CLI argv without --out
    solutions: int  # solutions one invocation produces
    N: int
    nonlinearities: list  # from_spec mappings the CLI classifies
    boundary: list  # (alpha, beta) per solution, as passed on the argv

    def argv(self, out_dir):
        return self.args + ["--out", out_dir]

    def check(self, rc, out_dir):
        """One entry per solution: None when it passed, else the reason."""
        if rc != 0:
            return [f"exit code {rc}"] * self.solutions
        try:
            return _CHECKS[self.name](self, out_dir)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"] \
                * self.solutions

    def oracle_input(self, out_dir):
        """For quad_verify, the inputs of oracle_problem: the nonlinearity,
        b, and a seeded sample of (rho, phi) profile rows (the last row,
        deepest in the tail, always among them).  None for the others."""
        if self.name != "quad_verify":
            return None
        b = _read_json(os.path.join(out_dir, "summary.json"))[
            "classification"]["b"]
        rows = _read_rows(os.path.join(out_dir, "profile.csv"))
        rng = random.Random(f"{self.seed}:oracle")
        picks = sorted(rng.sample(range(len(rows) - 1), ORACLE_ROWS - 1))
        nl = self.nonlinearities[0]
        return {"p": nl["p"], "r": nl["r"], "b": b,
                "rows": [[rows[i]["rho"], rows[i]["phi"]]
                         for i in picks + [len(rows) - 1]]}


def _log_uniform(rng):
    lo, hi = BOUNDARY_RANGE
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def make(name, seed):
    """The workload's inputs; the seed draws boundary data only."""
    if name == "paper_table":
        return Workload(
            name, seed, ["tables", "--N", "5"], len(PAPER_CELLS), 5,
            [{"family": "power_sum", "p": p, "r": r} for p, r in PAPER_CELLS],
            [(TABLE_ALPHA, TABLE_BETA)] * len(PAPER_CELLS),
        )
    if name == "sweep_pairs":
        rng = random.Random(f"{seed}:sweep_pairs")
        pairs = [(_log_uniform(rng), _log_uniform(rng))
                 for _ in range(SWEEP_PAIRS)]
        return Workload(
            name, seed,
            ["sweep", "--N", "5", "--family", "power_sum", "--p", "1.75",
             "--r", "1.7", "--M", "4096", "--format", "json", "--pairs",
             ",".join(f"{a!r}:{b!r}" for a, b in pairs)],
            SWEEP_PAIRS, 5,
            [{"family": "power_sum", "p": 1.75, "r": 1.7}], pairs,
        )
    if name == "quad_verify":
        # M=192 with rho0 fixed at 3, the value select_rho0 picks here: about
        # a second an invocation.  M=512 with select_rho0's 801-node probe
        # takes about 6 s, too long for the calibration kernel timed around
        # each invocation to track a shared machine's slow spells.  M=192
        # still resolves the tail: its fitted rate matches M=512 to 0.5%.
        rng = random.Random(f"{seed}:quad_verify")
        alpha, beta = _log_uniform(rng), _log_uniform(rng)
        return Workload(
            name, seed,
            ["verify", "--N", "5", "--family", "power_exp_log", "--p", "2",
             "--r", "0.5", "--M", "192", "--no-auto-rho0", "--alpha",
             repr(alpha), "--beta", repr(beta)],
            1, 5, [{"family": "power_exp_log", "p": 2.0, "r": 0.5}],
            [(alpha, beta)],
        )
    raise ValueError(f"unknown workload {name!r}")


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _first_row(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return next(csv.DictReader(fh))


def _boundary_problem(path, alpha, beta):
    row = _first_row(path)
    if float(row["eta"]) != alpha or float(row["eta_prime"]) != beta:
        return (f"{os.path.basename(path)} first row eta={row['eta']} "
                f"eta_prime={row['eta_prime']}, expected {alpha!r}, {beta!r}")
    return None


def _solver_problem(solver):
    if solver.get("converged") is not True:
        return "not converged"
    wn = solver.get("weighted_norm")
    if wn is None or not wn <= WEIGHTED_NORM_MAX:
        return f"weighted_norm {wn} > {WEIGHTED_NORM_MAX}"
    return None


def check_construct_summary(summary):
    """Problems with a construct/verify summary.json: the solve and the fit.

    A fit that records an error fails the solution even when the CLI
    exits 0.
    """
    problems = []
    solver_problem = _solver_problem(summary.get("solver", {}))
    if solver_problem:
        problems.append(solver_problem)
    fit = summary.get("fit")
    if fit is None:
        problems.append("no fit recorded")
    elif "error" in fit:
        problems.append(f"fit error: {fit['error']}")
    return problems


def _check_paper_table(wl, out_dir):
    cells = _read_json(os.path.join(out_dir, "tables.json"))["cells"]
    if len(cells) != wl.solutions:
        return [f"{len(cells)} cells reported"] * wl.solutions
    results = []
    for i, cell in enumerate(cells):
        if "error" in cell:
            results.append(f"cell {i}: {cell['error']}")
        elif cell.get("within_tolerance") is not True:
            results.append(f"cell {i}: lambda_fit outside tolerance")
        elif cell.get("supports") != "corrected":
            results.append(f"cell {i}: supports {cell.get('supports')!r}")
        elif not cell.get("weighted_norm", math.inf) <= WEIGHTED_NORM_MAX:
            results.append(f"cell {i}: weighted_norm {cell['weighted_norm']}")
        else:
            alpha, beta = wl.boundary[i]
            results.append(_boundary_problem(
                os.path.join(out_dir, f"cell_{i:02d}_profile.csv"),
                alpha, beta))
    return results


def _check_sweep_pairs(wl, out_dir):
    agg = _read_json(os.path.join(out_dir, "sweep.json"))
    distinct = agg.get("boundary_distinct") is True
    results = []
    for a, b in wl.boundary:
        key = f"{a}:{b}"
        sol = agg["solutions"].get(key)
        if sol is None:
            reason = agg["failures"].get(key, "missing")
            results.append(f"pair {key}: {reason}")
        elif sol["alpha"] != a or sol["beta"] != b:
            results.append(f"pair {key}: boundary data {sol['alpha']}, "
                           f"{sol['beta']}")
        elif not distinct:
            results.append(f"pair {key}: boundary_distinct is false")
        else:
            problem = _solver_problem(sol)
            results.append(problem and f"pair {key}: {problem}")
    return results


def _check_quad_verify(wl, out_dir):
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    problems = check_construct_summary(summary)
    if summary.get("lipschitz", {}).get("bounded") is not True:
        problems.append("lipschitz check not bounded")
    alpha, beta = wl.boundary[0]
    boundary = _boundary_problem(os.path.join(out_dir, "profile.csv"),
                                 alpha, beta)
    if boundary:
        problems.append(boundary)
    return ["; ".join(problems) or None]


_CHECKS = {
    "paper_table": _check_paper_table,
    "sweep_pairs": _check_sweep_pairs,
    "quad_verify": _check_quad_verify,
}


def oracle_problem(inp):
    """Independent check of F(phi) = e^{-2 rho}/b for f = s^p e^{(log s)^r}.

    F(s) = e^{-(p-1)x - x^r} int_0^inf e^{-(p-1)m - ((x+m)^r - x^r)} dm with
    x = log s, evaluated by mpmath at 40 digits from the CSV's 17-digit
    values.  Returns None, or the first row that misses 1e-10 relative.
    """
    import mpmath as mp  # here, so the measured worker never loads it

    with mp.workdps(40):
        p, r, b = mp.mpf(inp["p"]), mp.mpf(inp["r"]), mp.mpf(inp["b"])
        for rho_text, phi_text in inp["rows"]:
            x = mp.log(mp.mpf(float(phi_text)))
            tail = mp.quad(
                lambda m: mp.exp(-(p - 1) * m - ((x + m) ** r - x ** r)),
                [0, 1, 4, 16, 64, mp.inf],
            )
            F = mp.exp(-(p - 1) * x - x ** r) * tail
            sigma = mp.exp(-2 * mp.mpf(float(rho_text))) / b
            rel = abs(F - sigma) / sigma
            if not rel <= ORACLE_RTOL:
                return (f"oracle: |F(phi) - sigma|/sigma = {mp.nstr(rel, 3)} "
                        f"at rho={rho_text}")
    return None
