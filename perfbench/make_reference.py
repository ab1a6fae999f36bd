"""Regenerate ``reference.json``, the table the benchmark's gates compare with.

Run from the repository root (takes about two minutes on two cores):

    PYTHONPATH=src KORANYI_THREADS=1 python3 perfbench/make_reference.py

Sweep cells: every cell of the ``full`` and ``small`` sweeps is simulated on
the benchmark grid and again with ``n_cells`` doubled.  A cell is screened out
of the reference, with the reason recorded, when its blow-up time is within
20% of t_end or its status changes under the doubling; the benchmark still
runs screened cells but only requires that they finish without an error.

Classifier verdicts: N = 1 uses the acceptance fixture table.  N = 2 reuses
its (lambda, a, p) tuples plus tuples at the N = 2 critical coupling, with
verdicts from the closed-form margin (a+2) - (Q-2+alpha-)(p-1), written out
here independently of ``koranyi.spectrum``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SWEEP_GRID, SWEEPS  # noqa: E402

BLOW_UP_REL_TOL = 0.02
NEAR_T_END = 0.8  # blow-up at or after this share of t_end is too close to call

# (lambda, a, p, verdict letter) from tests/test_acceptance.py, Q = 4
FIXTURES_N1 = [
    (0.0, -2.0, 2.0, "N"), (0.0, -2.5, 3.0, "N"), (0.0, -1.9, 1.5, "E"),
    (0.0, 2.0, 2.0, "E"), (0.0, 0.0, 5.0, "E"), (0.0, -3.0, 1.2, "N"),
    (3.0, 0.0, 2.0, "E"), (3.0, -2.0, 2.0, "E"), (3.0, -3.0, 1.5, "N"),
    (3.0, -3.0, 2.5, "E"), (3.0, -3.0, 2.0, "N"),
    (-0.75, 0.0, 2.0, "E"), (-0.75, 0.0, 6.0, "N"), (-0.75, 0.0, 5.0, "N"),
    (-0.75, -2.2, 2.0, "N"), (-0.99, 1.0, 3.0, "E"), (-0.99, 1.0, 5.0, "N"),
    (-1.0, 0.0, 3.0, "O"), (-1.0, 1.0, 4.0, "O"), (-1.0, -1.0, 2.0, "O"),
    (-1.0, 0.0, 2.9, "E"), (-1.0, 0.0, 3.1, "N"), (-1.0, 2.0, 2.0, "E"),
    (-1.0, -3.0, 1.5, "N"), (8.0, -4.0, 1.5, "N"), (8.0, -4.0, 3.0, "E"),
    (8.0, 0.0, 10.0, "E"), (-0.96, -2.0, 2.0, "N"),
]
# N = 2 critical coupling is lambda = -4: zero margin when a + 2 = 2 (p - 1)
CRITICAL_N2 = [(-4.0, 0.0, 2.0), (-4.0, 2.0, 3.0), (-4.0, 0.0, 2.5), (-4.0, 0.0, 1.5)]
VERDICT = {"N": "NonexistenceAllF", "E": "ExistenceWitness", "O": "OpenCritical"}


def closed_form_letter(n: int, lam: float, a: float, p: float) -> str:
    half = float(n)  # (Q - 2) / 2 with Q = 2N + 2
    critical = lam == -half * half
    alpha_minus = -half if critical else -half - math.sqrt(lam + half * half)
    margin = (a + 2.0) - (2.0 * half + alpha_minus) * (p - 1.0)
    if critical and abs(margin) <= 1e-9:
        return "O"
    return "E" if margin > 0.0 else "N"


def classify_table() -> list[list]:
    table = []
    for lam, a, p, letter in FIXTURES_N1:
        assert closed_form_letter(1, lam, a, p) == letter, (lam, a, p)
        table.append([1, lam, a, p, VERDICT[letter]])
    for lam, a, p in [f[:3] for f in FIXTURES_N1] + CRITICAL_N2:
        table.append([2, lam, a, p, VERDICT[closed_form_letter(2, lam, a, p)]])
    return table


def sweep_rows(spec: dict, n_cells: int) -> list[dict]:
    from koranyi.evolve import RadialGrid, phase_sweep
    from koranyi.hgroup import GroupContext

    grid = RadialGrid(SWEEP_GRID["rho_min"], n_cells, SWEEP_GRID["spacing"])
    return phase_sweep(spec["lambda"], spec["a"], spec["p"], GroupContext(1), k=spec["k"],
                       grid=grid, t_end=spec["t_end"],
                       boundary_value=SWEEP_GRID["boundary_value"], threads=1)


def sweep_tables() -> tuple[list[dict], list[dict]]:
    kept, screened = [], []
    for spec in SWEEPS["full"] + SWEEPS["small"]:
        base = sweep_rows(spec, SWEEP_GRID["n_cells"])
        fine = sweep_rows(spec, 2 * SWEEP_GRID["n_cells"])
        for row, row2 in zip(base, fine):
            cell = {
                "k": spec["k"], "t_end": spec["t_end"], "lambda": row["lambda"],
                "a": row["a"], "p": row["p"], "status": row["status"],
                "blow_up_time": float(row["blow_up_time"]) if row["blow_up_time"] else None,
                "classifier_verdict": row["classifier_verdict"],
            }
            reasons = []
            blow_up = cell["blow_up_time"]
            if blow_up is not None and blow_up >= NEAR_T_END * spec["t_end"]:
                reasons.append(f"blow-up at {blow_up:g} is within 20% of "
                               f"t_end = {spec['t_end']:g}")
            if row2["status"] != row["status"]:
                reasons.append(f"status {row['status']} becomes {row2['status']} "
                               f"with n_cells = {2 * SWEEP_GRID['n_cells']}")
            if reasons:
                screened.append({**cell, "reason": "; ".join(reasons)})
            else:
                kept.append(cell)
    return kept, screened


def main() -> None:
    with open(HERE.parent / "configs" / "classify.json", encoding="utf-8") as fh:
        config = json.load(fh)
    kept, screened = sweep_tables()
    reference = {
        "about": "Generated by perfbench/make_reference.py on the seed commit; "
                 "see its docstring for the screening rules.",
        "blow_up_rel_tol": BLOW_UP_REL_TOL,
        "sweep_grid": SWEEP_GRID,
        "classify_config": VERDICT[closed_form_letter(
            config["N"], config["lambda"], config["a"], config["p"])],
        "classify": classify_table(),
        "sweep": kept,
        "screened": screened,
    }
    fields = []
    for key, value in reference.items():
        if isinstance(value, list):  # one table row per line
            value = "[\n" + ",\n".join("  " + json.dumps(row) for row in value) + "\n ]"
        else:
            value = json.dumps(value)
        fields.append(f" {json.dumps(key)}: {value}")
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(fields) + "\n}\n")
    print(f"{len(kept)} reference cells, {len(screened)} screened")
    for cell in screened:
        print("screened:", cell)


if __name__ == "__main__":
    main()
