"""Fingerprint of the assembled systems and the study outputs, for
checking that a refactor changed no number.

Not a test: pytest does not collect this file.  Run it from the
repository root against the ``src`` directory of each commit to compare,
for example a ``git archive`` of the parent unpacked under ``/tmp/parent``:

    PYTHONPATH=/tmp/parent/src python3 tests/fingerprint.py > parent.json
    PYTHONPATH=src python3 tests/fingerprint.py > change.json
    diff parent.json change.json

It prints one JSON object:

* ``systems``: the sha256 of ``data``, ``indices``, ``indptr``, ``rhs``
  and ``order`` (with dtype and shape) of every assembled system with
  k <= 3, N in {8, 16, 32}, eps in {1e-4, 1e-8}, weak and strong
  Dirichlet data, on the meshes of ``nipg2d study``'s defaults;
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
"""

import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

# nipg2d first, from PYTHONPATH: importing studybench puts this checkout's
# src on sys.path, which must not decide the version measured
import nipg2d
from nipg2d import (assemble, boundary_layer_problem, build_mesh,
                    classify_edges, cli)

sys.path.append(str(Path(__file__).resolve().parents[1]))
from studybench import workloads  # noqa: E402  (after nipg2d, see above)

DEGREES = (1, 2, 3)
CELLS = (8, 16, 32)
EPS = (1e-4, 1e-8)
DIRICHLET = ("weak", "strong")
EPS_SWEEP_SEEDS = (1701, 1702, 1703)


def array_hash(a):
    digest = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode())
    digest.update(a.tobytes())
    return digest.hexdigest()


def text_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()


def system_hashes():
    """The systems of the study's own chains, built as run_study builds
    them."""
    hashes = {}
    for dirichlet in DIRICHLET:
        config = cli.StudyConfig(k_list=DEGREES, eps_list=EPS, n_list=CELLS,
                                 dirichlet=dirichlet)
        for dofmap, meshes in config.chains():
            problem = boundary_layer_problem(meshes[0].eps)
            for mesh_config in meshes:
                grid = build_mesh(mesh_config)
                system = assemble(grid, classify_edges(grid), dofmap,
                                  problem, dirichlet=dirichlet)
                matrix = system.matrix
                key = (f"k={dofmap.k} N={mesh_config.n} "
                       f"eps={mesh_config.eps:g} {dirichlet}")
                hashes[key] = {name: array_hash(a) for name, a in (
                    ("data", matrix.data), ("indices", matrix.indices),
                    ("indptr", matrix.indptr), ("rhs", system.rhs),
                    ("order", system.order))}
    return hashes


def study_fingerprints():
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


def main():
    start = time.perf_counter()
    systems = system_hashes()
    outputs, errors = study_fingerprints()
    print(json.dumps({"systems": systems, "outputs": outputs,
                      "errors": errors}, indent=1))
    print(f"nipg2d from {Path(nipg2d.__file__).parent}; run time "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
