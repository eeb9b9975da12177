"""Correctness check of every (k, eps, N) cell the benchmark runs.

A cell passes when

* its e_IN, e_Pi and e_L2 equal the values recorded from the seed program
  (``reference.json``) to ``REFERENCE_RTOL`` of its solver, on the
  fixed-grid workloads;
* its e_IN and observed order p_IN print as in the README's "Measured
  convergence" table, at that table's precision;
* on ``eps-sweep``, its e_IN lies within ``EPS_BAND[N]`` of the recorded
  k=1, eps=1e-5 value at the same N (the error is robust in eps);
* its row survives ``parse_csv(format_csv(report))``.
"""

import json
import math
from pathlib import Path

from nipg2d import cli

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Two correct solves of one system differ by round-off amplified by its
#: conditioning: GMRES at rel_tol 1e-10 and sparse LU agree on e_IN, e_Pi
#: and e_L2 of the iter-strong cells to 1e-9 at worst.  The bands catch
#: wrong answers, not a new pivot order.
REFERENCE_RTOL = {"direct": 1e-9, "iterative": 1e-8}

#: README "Measured convergence": e_IN as printed (4 significant digits)
README_E_IN = {
    (1, 1e-5, 8): "1.363e-01", (1, 1e-5, 16): "5.598e-02",
    (1, 1e-5, 32): "2.082e-02", (1, 1e-5, 64): "7.196e-03",
    (1, 1e-5, 128): "2.366e-03",
    (2, 1e-6, 8): "4.141e-02", (2, 1e-6, 16): "1.259e-02",
    (2, 1e-6, 32): "3.206e-03", (2, 1e-6, 64): "7.271e-04",
    (3, 1e-5, 8): "1.138e-02", (3, 1e-5, 16): "2.381e-03",
    (3, 1e-5, 32): "3.743e-04",
}

#: README orders log2(e(N) / e(2N)), keyed by the coarser N as in the CSV
#: column p_IN (the README prints them under the finer N)
README_P_IN = {
    (1, 1e-5, 8): "1.28", (1, 1e-5, 16): "1.43", (1, 1e-5, 32): "1.53",
    (1, 1e-5, 64): "1.60",
    (2, 1e-6, 8): "1.72", (2, 1e-6, 16): "1.97", (2, 1e-6, 32): "2.14",
    (3, 1e-5, 8): "2.26", (3, 1e-5, 16): "2.67",
}

#: Largest measured |e_IN(eps) / e_IN(1e-5) - 1| over 33 eps in
#: [1e-12, 1e-4] is 3.4e-4, 1.25e-3 and 3.27e-3 at N = 8, 16, 32; the
#: bands add half of that again.
EPS_BAND = {8: 5e-4, 16: 2e-3, 32: 5e-3}
EPS_BAND_BASE = ("k1-chain", 1, 1e-5)


def load_references(path=REFERENCE_PATH):
    """workload -> {(k, eps, N): {"e_IN", "e_Pi", "e_L2"}}."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    return {workload: {(c["k"], c["eps"], c["N"]): c for c in cells}
            for workload, cells in raw["cells"].items()}


def _csv_expected(row):
    """A StudyRow as parse_csv reads it back at the printed precision."""
    return {
        "k": row.k, "eps": float(format(row.eps, ".12g")), "N": row.n,
        "dofs": row.dofs, "e_IN": float(format(row.e_in, ".6e")),
        "p_IN": None if row.p_in is None else float(format(row.p_in, ".4f")),
        "e_Pi": float(format(row.e_pi, ".6e")),
        "e_L2": float(format(row.e_l2, ".6e")),
        "solver_iters": row.solver_iters,
        "residual": float(format(row.residual, ".3e")),
        "wall_ms": float(format(row.wall_ms, ".1f")),
    }


def _cell_problems(workload, config, row, references):
    cell = (row.k, row.eps, row.n)
    found = []
    ref_cells = references.get(workload)
    if ref_cells is not None:
        ref = ref_cells.get(cell)
        if ref is None:
            found.append("no reference value recorded")
        else:
            rtol = REFERENCE_RTOL[config.solver.method]
            for key, value in (("e_IN", row.e_in), ("e_Pi", row.e_pi),
                               ("e_L2", row.e_l2)):
                if not math.isclose(value, ref[key], rel_tol=rtol, abs_tol=0):
                    found.append(f"{key} {value!r} differs from the "
                                 f"reference {ref[key]!r} by more than "
                                 f"rtol {rtol:g}")
    printed = README_E_IN.get(cell)
    if printed is not None and format(row.e_in, ".3e") != printed:
        found.append(f"e_IN {row.e_in:.3e} does not print as the README's "
                     f"{printed}")
    order = README_P_IN.get(cell)
    if order is not None and row.n < max(config.n_list_for(row.k)):
        if row.p_in is None or format(row.p_in, ".2f") != order:
            found.append(f"p_IN {row.p_in} does not print as the README's "
                         f"{order}")
    if workload == "eps-sweep":
        base_workload, k, eps = EPS_BAND_BASE
        base = references[base_workload][(k, eps, row.n)]["e_IN"]
        if row.k != k or abs(row.e_in / base - 1.0) > EPS_BAND[row.n]:
            found.append(f"e_IN {row.e_in!r} is not within "
                         f"{EPS_BAND[row.n]:g} of the eps={eps:g} value "
                         f"{base!r}")
    return found


def check_sweep(workload, configs, outputs, references):
    """Check every cell of one sweep.

    ``outputs`` pairs each config's StudyReport with its ``format_csv``
    text.  Returns {(k, eps, N): [problems]}, with an entry for every
    cell; an empty list means the cell passed.
    """
    problems = {}
    for config, (report, csv_text) in zip(configs, outputs):
        echo, parsed = cli.parse_csv(csv_text)
        echo_ok = echo == report.config_echo
        for i, row in enumerate(report.rows):
            found = _cell_problems(workload, config, row, references)
            if not echo_ok:
                found.append("config echo does not survive parse_csv")
            if len(parsed) != len(report.rows):
                found.append(f"parse_csv read {len(parsed)} rows, "
                             f"expected {len(report.rows)}")
            elif parsed[i] != _csv_expected(row):
                found.append(f"CSV row does not round-trip: {parsed[i]}")
            problems[(row.k, row.eps, row.n)] = found
    return problems
