"""Fingerprint of the assembled systems, the elimination orders and the
study outputs, for checking that a refactor changed no number.

Not a test: pytest does not collect this file.  Run it from the
repository root against the ``src`` directory of each commit to compare,
for example a ``git archive`` of the parent unpacked under ``/tmp/parent``:

    PYTHONPATH=/tmp/parent/src python3 tests/fingerprint.py > parent.json
    PYTHONPATH=src python3 tests/fingerprint.py > change.json
    python3 tests/fingerprint.py --compare parent.json change.json

It prints one JSON object:

* ``systems``: the sha256 of ``data``, ``indices``, ``indptr``, ``rhs``
  and ``order`` (with dtype and shape) of every assembled system with
  k <= 3, N in {8, 16, 32}, eps in {1e-4, 1e-8}, weak and strong
  Dirichlet data, on the meshes of ``nipg2d study``'s defaults;
* ``orders``: the sha256 of ``assembly.elimination_order(N, k)`` for
  every (N, k) of ``cli.DEFAULT_N_BY_K`` and for N = 12 and 24 at
  k = 2 and 3; refinement makes each solution independent of the order
  to round-off, so above N = 32 neither the systems nor the outputs
  would show an order change;
* ``outputs``: the sha256 of the CSV and of the markdown of each
  benchmark workload, with every ``wall_ms`` set to 0; the grids are
  those of ``studybench/workloads.py``, with seeds 1701-1703 for
  ``eps-sweep``;
* ``errors``: every cell's e_IN, e_Pi and e_L2 in those workloads, at
  ``repr`` precision, so that a change meant to move values by round-off
  can state its largest relative shift.

The hashes depend on the host's floating point libraries, so compare
outputs made on one machine and keep no reference copy.  The run time and
the imported ``nipg2d`` go to standard error.

``--compare A B`` reads two such outputs instead of running anything.  It
prints every system, order or output hash that differs, then, per
workload, the largest relative shift of e_IN, e_Pi and e_L2 from A to B
and the cell where it occurs; it prints "identical" if A and B are the
same.
"""

import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

DEGREES = (1, 2, 3)
CELLS = (8, 16, 32)
EPS = (1e-4, 1e-8)
DIRICHLET = ("weak", "strong")
EPS_SWEEP_SEEDS = (1701, 1702, 1703)
#: (N, k) of the orders hashed beside the default chains: N = 12 and 24,
#: not powers of 2, give bisection boxes of odd side
OTHER_ORDERS = ((12, 2), (24, 2), (12, 3), (24, 3))


def array_hash(a):
    digest = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode())
    digest.update(a.tobytes())
    return digest.hexdigest()


def text_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()


def system_hashes(nipg2d):
    """The systems of the study's own chains, built as run_study builds
    them."""
    cli = nipg2d.cli
    hashes = {}
    for dirichlet in DIRICHLET:
        config = cli.StudyConfig(k_list=DEGREES, eps_list=EPS, n_list=CELLS,
                                 dirichlet=dirichlet)
        for dofmap, meshes in config.chains():
            problem = nipg2d.boundary_layer_problem(meshes[0].eps)
            for mesh_config in meshes:
                grid = nipg2d.build_mesh(mesh_config)
                system = nipg2d.assemble(grid, nipg2d.classify_edges(grid),
                                         dofmap, problem, dirichlet=dirichlet)
                matrix = system.matrix
                key = (f"k={dofmap.k} N={mesh_config.n} "
                       f"eps={mesh_config.eps:g} {dirichlet}")
                hashes[key] = {name: array_hash(a) for name, a in (
                    ("data", matrix.data), ("indices", matrix.indices),
                    ("indptr", matrix.indptr), ("rhs", system.rhs),
                    ("order", system.order))}
    return hashes


def order_hashes(nipg2d):
    """The elimination order of every default chain's cells and of
    OTHER_ORDERS."""
    cells = [(n, k) for k, ns in nipg2d.cli.DEFAULT_N_BY_K.items()
             for n in ns]
    return {f"k={k} N={n}": {
                "order": array_hash(nipg2d.assembly.elimination_order(n, k))}
            for n, k in cells + list(OTHER_ORDERS)}


def study_fingerprints(cli, workloads):
    outputs, errors = {}, {}
    runs = [(name, None) for name in workloads.WORKLOADS
            if name != "eps-sweep"]
    runs += [("eps-sweep", seed) for seed in EPS_SWEEP_SEEDS]
    for name, seed in runs:
        label = name if seed is None else f"{name} seed={seed}"
        configs = workloads.build_configs(workloads.settings(name, seed))
        for i, config in enumerate(configs):
            report = cli.run_study(config)
            report.rows[:] = [dataclasses.replace(row, wall_ms=0.0)
                              for row in report.rows]
            outputs[f"{label} study {i}"] = {
                "csv": text_hash(cli.format_csv(report)),
                "markdown": text_hash(cli.format_markdown(report))}
            for row in report.rows:
                errors[f"{label} k={row.k} eps={row.eps!r} N={row.n}"] = [
                    repr(row.e_in), repr(row.e_pi), repr(row.e_l2)]
    return outputs, errors


def compare(before, after):
    """Report lines for the change from fingerprint ``before`` to
    ``after``: the differing hash keys, then the largest relative error
    shift of each workload."""
    lines = []
    for part in ("systems", "orders", "outputs"):
        for key in sorted(before[part].keys() | after[part].keys()):
            old, new = before[part].get(key), after[part].get(key)
            if old is None or new is None:
                lines.append(f"{part}: {key}: only in "
                             f"{'the second' if old is None else 'the first'}")
            elif old != new:
                fields = [name for name in old if old[name] != new.get(name)]
                lines.append(f"{part}: {key}: {', '.join(fields)}")
    shifts = {}
    for cell in before["errors"].keys() & after["errors"].keys():
        label, _, where = cell.partition(" k=")
        workload = label.split(" seed=")[0]
        for name, old, new in zip(("e_IN", "e_Pi", "e_L2"),
                                  before["errors"][cell],
                                  after["errors"][cell]):
            shift = abs(float(new) - float(old)) / abs(float(old))
            shifts.setdefault(workload, []).append(
                (shift, f"{name} at {label} k={where}"))
    for workload, found in sorted(shifts.items()):
        shift, where = max(found)
        lines.append(f"{workload}: largest relative shift {shift:.3g} "
                     f"({where})")
    missing = before["errors"].keys() ^ after["errors"].keys()
    lines += [f"errors: {cell}: in one output only"
              for cell in sorted(missing)]
    return lines if before != after else ["identical"]


def main():
    if sys.argv[1:2] == ["--compare"]:
        if len(sys.argv) != 4:
            sys.exit("usage: fingerprint.py --compare BEFORE.json AFTER.json")
        before, after = (json.loads(Path(p).read_text(encoding="utf-8"))
                         for p in sys.argv[2:])
        print("\n".join(compare(before, after)))
        return
    start = time.perf_counter()
    # nipg2d first, from PYTHONPATH: importing studybench puts this
    # checkout's src on sys.path, which must not decide the version measured
    import nipg2d
    import nipg2d.cli
    sys.path.append(str(Path(__file__).resolve().parents[1]))
    from studybench import workloads
    systems = system_hashes(nipg2d)
    orders = order_hashes(nipg2d)
    outputs, errors = study_fingerprints(nipg2d.cli, workloads)
    print(json.dumps({"systems": systems, "orders": orders,
                      "outputs": outputs, "errors": errors}, indent=1))
    print(f"nipg2d from {Path(nipg2d.__file__).parent}; run time "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
