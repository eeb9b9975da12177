"""Command-line convergence studies.

``nipg2d study --config study.cfg [overrides]`` sweeps (k, eps, N) triples,
solves each discrete problem, measures the interpolant-distance errors and
their observed orders, and writes a CSV table plus a per-degree markdown
table.  Exit code 0 means every solve met its tolerance, 1 a usage or
configuration error, and 2 degraded rows (the sweep still completes).
A :class:`StudyConfig` checks every cell's parameters when it is built,
so a configuration error exits 1 before any output file is opened.

Config files are flat ``key = value`` lines ('#' starts a comment); list
values are comma separated.  The recognized keys follow; all are optional
except k and eps, each may be set once, and any other key is an error::

    k = 1, 2            polynomial degrees
    eps = 1e-5, 1e-6    diffusion parameters
    n = 8, 16, 32       mesh sizes (doubling; default depends on k)
    sigma = 2.5         transition constant (default k + 3/2 per degree)
    beta1 = 2.0         convection lower bounds used by the mesh
    beta2 = 3.0
    solver = direct     or: iterative
    rel_tol = 1e-10
    estimate_condition = false   append 1-norm condition estimates
                                 (direct solver only; costly; for the
                                 large-N/small-eps cells where the rate
                                 tables visibly degrade)
    dirichlet = weak    or: strong
    out_csv = study.csv
    out_md = study.md
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import analysis, assembly, mesh, problems, solver

#: default transition constant per degree: sigma = k + SIGMA_OVER_K
SIGMA_OVER_K = Fraction(3, 2)

#: default mesh sequences per degree (memory-bounded doubling chains)
DEFAULT_N_BY_K = {
    1: (8, 16, 32, 64, 128, 256),
    2: (8, 16, 32, 64, 128),
    3: (8, 16, 32, 64),
}

#: CSV column -> (StudyRow attribute, format spec); parse_csv reads "d"
#: columns as int and the rest as float, an empty p_IN as None
CSV_TABLE = {
    "k": ("k", "d"), "eps": ("eps", ".12g"), "N": ("n", "d"),
    "dofs": ("dofs", "d"), "e_IN": ("e_in", ".6e"), "p_IN": ("p_in", ".4f"),
    "e_Pi": ("e_pi", ".6e"), "e_L2": ("e_l2", ".6e"),
    "solver_iters": ("solver_iters", "d"), "residual": ("residual", ".3e"),
    "wall_ms": ("wall_ms", ".1f"),
}
CSV_COLUMNS = tuple(CSV_TABLE)


@dataclass(frozen=True)
class StudyConfig:
    """Resolved parameters of one study sweep, checked when built."""

    k_list: tuple
    eps_list: tuple
    n_list: tuple | None = None        # None: per-degree default
    sigma: float | None = None         # None: k + SIGMA_OVER_K
    beta1: float = problems.BETA1
    beta2: float = problems.BETA2
    solver: solver.SolverConfig = field(default_factory=solver.SolverConfig)
    dirichlet: str = "weak"
    out_csv: str | None = None
    out_md: str | None = None

    def __post_init__(self):
        self.validate()

    def n_list_for(self, k):
        if self.n_list is not None:
            return tuple(self.n_list)
        if k not in DEFAULT_N_BY_K:
            raise ValueError(
                f"no default mesh sequence for k={k}; set 'n' explicitly")
        return DEFAULT_N_BY_K[k]

    def chains(self):
        """Yield each chain in run order (k, then eps, then N ascending)
        as its DofMap and the MeshConfig of each N, checking the study's
        per-degree rules; DofMap and MeshConfig check their own."""
        for k in self.k_list:
            dofmap = assembly.DofMap(k=k)
            sigma = (float(k + SIGMA_OVER_K) if self.sigma is None
                     else self.sigma)
            if sigma < k + 0.5:
                raise ValueError(
                    f"sigma={sigma} is below k + 1/2 = {k + 0.5} for "
                    f"k={k}; the fine bands would be too narrow for the "
                    "interpolant to track the layers")
            ns = self.n_list_for(k)
            if not ns or ns[0] < 8 or ns[0] % 2:
                raise ValueError(f"n must start at an even N >= 8, got {ns}")
            for a, b in zip(ns, ns[1:]):
                if b != 2 * a:
                    raise ValueError(
                        f"mesh sequence must double: got {a} then {b}")
            for eps in self.eps_list:
                yield dofmap, tuple(
                    mesh.MeshConfig(n=n, eps=eps, sigma=sigma,
                                    beta1=self.beta1, beta2=self.beta2)
                    for n in ns)

    def validate(self):
        """Check the study's own policy and walk :meth:`chains`, so that
        every cell's parameters are checked before any is solved."""
        if not self.k_list:
            raise ValueError("config must list at least one degree k")
        if not self.eps_list:
            raise ValueError("config must list at least one eps")
        # the mesh may assume less convection than the problem has, not more
        for key, bound in ("beta1", problems.BETA1), ("beta2", problems.BETA2):
            value = getattr(self, key)
            if value > bound:
                raise ValueError(f"{key}={value} exceeds the built-in "
                                 f"problem's convection lower bound {bound}")
        list(self.chains())
        if self.dirichlet not in assembly.DIRICHLET_MODES:
            raise ValueError(f"unknown Dirichlet mode: {self.dirichlet!r}")


@dataclass
class StudyRow:
    """One (k, eps, N) cell of the sweep."""

    k: int
    eps: float
    n: int
    dofs: int
    e_in: float
    e_pi: float
    e_l2: float
    p_in: float | None
    solver_iters: int
    residual: float
    wall_ms: float
    converged: bool
    condition: float | None = None
    message: str = ""                  # why a solve degraded, if it did


@dataclass
class StudyReport:
    """All rows of a sweep plus the resolved configuration echo."""

    rows: list
    config_echo: dict

    @property
    def degraded(self):
        return [r for r in self.rows if not r.converged]


def run_study(config):
    """Run the sweep described by ``config``.

    Rows are produced in deterministic order: degrees in listed order,
    then eps in listed order, then N ascending.  A solve that misses its
    tolerance marks the row degraded but the sweep continues.

    Returns
    -------
    StudyReport
    """
    rows = []
    for dofmap, meshes in config.chains():
        problem = problems.boundary_layer_problem(meshes[0].eps)
        chain = []
        for mcfg in meshes:
            t0 = time.perf_counter()
            grid = mesh.build_mesh(mcfg)
            edges = mesh.classify_edges(grid)
            system = assembly.assemble(grid, edges, dofmap, problem,
                                       dirichlet=config.dirichlet)
            x, report = solver.solve(system, config.solver)
            u_h = assembly.DGFunction(grid, dofmap, x)
            record = analysis.supercloseness_error(u_h, edges, problem)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            chain.append(StudyRow(
                k=dofmap.k, eps=mcfg.eps, n=mcfg.n, dofs=x.size,
                e_in=record.e_in, e_pi=record.e_pi, e_l2=record.e_l2,
                p_in=None, solver_iters=report.iterations,
                residual=report.residual, wall_ms=wall_ms,
                converged=report.converged,
                condition=report.condition_estimate,
                message=report.message))
        rates = analysis.convergence_rates([(r.n, r.e_in) for r in chain])
        for row, rate in zip(chain, rates):
            row.p_in = rate
        rows.extend(chain)

    echo = {
        "problem": "boundary_layer",
        "k": _fmt_list(config.k_list),
        "eps": _fmt_list(config.eps_list),
        "sigma": (f"k + {SIGMA_OVER_K}" if config.sigma is None
                  else _fmt_value(config.sigma)),
        "beta1": _fmt_value(config.beta1),
        "beta2": _fmt_value(config.beta2),
        "n": ("per-degree default" if config.n_list is None
              else _fmt_list(config.n_list)),
        "quad_order": f"k + {assembly.QUAD_POINTS_OVER_K}",
        "penalty_schedule": " ".join(
            f"{t.name}:" + {0: "1", 1: "N"}.get(p, f"N^{p}")
            for t, p in mesh.PENALTY_POWER.items()),
        "boundary_edge_rule": "same-as-interior",
        "dirichlet": config.dirichlet,
        "solver": config.solver.method,
        "rel_tol": _fmt_value(config.solver.rel_tol),
        "max_iters": str(solver.GMRES_MAX_ITERS),
        "restart": str(solver.GMRES_RESTART),
        "estimate_condition": str(config.solver.estimate_condition).lower(),
        "error_quad_order": f"k + {analysis.ERROR_QUAD_POINTS_OVER_K}",
        "interp_quad_order": f"k + {analysis.INTERP_QUAD_POINTS_OVER_K}",
    }
    return StudyReport(rows, echo)


def _fmt_value(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _fmt_list(values):
    return ", ".join(_fmt_value(v) for v in values)


def format_csv(report):
    """Render a report as CSV text with a '#'-commented config echo."""
    out = io.StringIO()
    for key, val in report.config_echo.items():
        out.write(f"# {key} = {val}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        writer.writerow([
            "" if getattr(r, attr) is None else format(getattr(r, attr), spec)
            for attr, spec in CSV_TABLE.values()])
    for r in report.rows:
        if r.condition is not None:
            out.write(f"# condition_estimate k={r.k} eps={_fmt_value(r.eps)} "
                      f"N={r.n} = {format(r.condition, '.3e')}\n")
    return out.getvalue()


def parse_csv(text):
    """Parse :func:`format_csv` output back into (echo, rows-as-dicts)."""
    echo = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            # split at the last " = ": condition-estimate keys hold "="
            key, _, val = line[1:].rpartition(" = ")
            echo[key.strip()] = val.strip()
        elif line.strip():
            data_lines.append(line)
    rows = [{col: None if col == "p_IN" and rec[col] == ""
             else (int if spec == "d" else float)(rec[col])
             for col, (_, spec) in CSV_TABLE.items()}
            for rec in csv.DictReader(data_lines)]
    return echo, rows


def format_markdown(report):
    """Render per-degree tables: rows N, column pairs (error, order) per
    eps, '--' where no rate exists."""
    lines = []
    for key, val in report.config_echo.items():
        lines.append(f"<!-- {key} = {val} -->")
    for k in sorted({r.k for r in report.rows}):
        k_rows = [r for r in report.rows if r.k == k]
        eps_values = list(dict.fromkeys(r.eps for r in k_rows))
        ns = sorted({r.n for r in k_rows})
        lines.append("")
        lines.append(f"## degree k = {k}")
        lines.append("")
        header = ["N"]
        for eps in eps_values:
            header.extend([f"e_IN (eps={_fmt_value(eps)})", "order"])
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        cells = {(r.eps, r.n): r for r in k_rows}
        for n in ns:
            row = [str(n)]
            for eps in eps_values:
                r = cells[eps, n]
                row.append(format(r.e_in, ".3e"))
                row.append("--" if r.p_in is None else format(r.p_in, ".2f"))
            lines.append("| " + " | ".join(row) + " |")
    with_cond = [r for r in report.rows if r.condition is not None]
    if with_cond:
        lines.append("")
        lines.append("Condition estimates (1-norm):")
        lines.append("")
        for r in with_cond:
            lines.append(f"- k={r.k}, eps={_fmt_value(r.eps)}, N={r.n}: "
                         f"{format(r.condition, '.3e')}")
    return "\n".join(lines) + "\n"


def _parse_config_file(path):
    """Read a flat key = value config file into a dict of strings; a key
    set twice is an error."""
    raw, first_line = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key = key.strip()
            if key in raw:
                raise ValueError(
                    f"{path}:{lineno}: key {key!r} repeated (first set on "
                    f"line {first_line[key]})")
            raw[key], first_line[key] = val.strip(), lineno
    return raw


def _bool(text):
    val = str(text).strip().lower()
    if val in ("true", "yes", "1", "on"):
        return True
    if val in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _items(text):
    """Comma-separated items of a list value; a blank value is the empty
    list, a blank item an error."""
    text = str(text)
    if not text.strip():
        return []
    items = text.split(",")
    if not all(item.strip() for item in items):
        raise ValueError(f"empty item in list {text!r}")
    return items


def _ints(text):
    return tuple(int(tok) for tok in _items(text))


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def _floats(text):
    return tuple(_float(tok) for tok in _items(text))


#: config key -> (field it sets, parser of its text); "solver." fields
#: belong to the SolverConfig, the others to the StudyConfig, and keys
#: left unset keep those dataclasses' defaults
CONFIG_KEYS = {
    "k": ("k_list", _ints),
    "eps": ("eps_list", _floats),
    "n": ("n_list", _ints),
    "sigma": ("sigma", _float),
    "beta1": ("beta1", _float),
    "beta2": ("beta2", _float),
    "solver": ("solver.method", str),
    "rel_tol": ("solver.rel_tol", _float),
    "estimate_condition": ("solver.estimate_condition", _bool),
    "dirichlet": ("dirichlet", str),
    "out_csv": ("out_csv", str),
    "out_md": ("out_md", str),
}


def build_config(file_values, args):
    """Merge config-file values with the command-line overrides that are
    set, and parse each key through :data:`CONFIG_KEYS`."""
    raw = dict(file_values)
    raw.update((key, val) for key, val in vars(args).items()
               if key in CONFIG_KEYS and val is not None)
    unknown = [key for key in raw if key not in CONFIG_KEYS]
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}; "
                         f"known keys: {', '.join(CONFIG_KEYS)}")
    for key in ("k", "eps"):
        if key not in raw:
            raise ValueError(f"missing key {key!r} (config file or --{key})")
    study_kw, solver_kw = {}, {}
    for key, text in raw.items():
        name, parse = CONFIG_KEYS[key]
        try:
            value = parse(text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
        owner, _, attr = name.rpartition(".")
        (solver_kw if owner else study_kw)[attr] = value
    return StudyConfig(solver=solver.SolverConfig(**solver_kw), **study_kw)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, as every other configuration error does; 2 is
    the degraded-solve code.  The subcommand parsers share this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None):
    """Entry point of the ``nipg2d`` command."""
    parser = _ArgumentParser(
        prog="nipg2d",
        description="DG convergence studies for layered convection-"
                    "diffusion problems on two-band meshes")
    sub = parser.add_subparsers(dest="command", required=True)
    study = sub.add_parser(
        "study", help="run a (k, eps, N) convergence sweep")
    study.add_argument("--config", help="key = value config file")
    study.add_argument("--k", help="degrees, comma separated (override)")
    study.add_argument("--eps", help="diffusion parameters (override)")
    study.add_argument("--n", help="mesh sizes, doubling (override)")
    study.add_argument("--solver",
                       help="linear solver, direct or iterative (override)")
    study.add_argument("--out-csv", dest="out_csv",
                       help="write the CSV table here")
    study.add_argument("--out-md", dest="out_md",
                       help="write the markdown table here")
    args = parser.parse_args(argv)

    try:
        file_values = (_parse_config_file(args.config)
                       if args.config else {})
        config = build_config(file_values, args)
        # an unwritable output path fails here, before any cell is solved
        for path in filter(None, (config.out_csv, config.out_md)):
            open(path, "a", encoding="utf-8").close()
        report = run_study(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    csv_text = format_csv(report)
    md_text = format_markdown(report)
    if config.out_csv:
        with open(config.out_csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if config.out_md:
        with open(config.out_md, "w", encoding="utf-8") as fh:
            fh.write(md_text)
    if not config.out_csv and not config.out_md:
        sys.stdout.write(csv_text)

    for row in report.degraded:
        print(f"warning: solve k={row.k} eps={row.eps} N={row.n} missed the "
              f"tolerance: {row.message}", file=sys.stderr)
    return 2 if report.degraded else 0


if __name__ == "__main__":
    sys.exit(main())
