"""docs/tiny_optima.md: the proven optimum of every instance under the exact
search's caps, next to the search's incumbent, the bounds and the best
runnable algorithm.

Running this file prints the document:

    PYTHONPATH=src python tests/test_tiny_optima.py > docs/tiny_optima.md
"""

from pathlib import Path

import pytest

from iomma import (
    MemoryConfig,
    ProblemDims,
    cheapest_runnable,
    compulsory_io,
    execute,
    lower_bound_final,
    runnable_costs,
    seeded_matrices,
    tiny_optimal_schedule,
)

TABLE = Path(__file__).parents[1] / "docs" / "tiny_optima.md"
HEADER = (
    "m", "n", "k", "S", "min_io", "nodes", "incumbent", "floor", "lower_bound_final",
    "best algorithm", "its io", "gap",
)
CAPPED = [
    (m, n, k, S)
    for m in range(1, 9) for n in range(1, 9) for k in range(1, 9) if m * n * k <= 8
    for S in range(3, 7)
]


def optimum_row(m: int, n: int, k: int, S: int) -> tuple[str, ...]:
    """One table row, as printed. Ties for the best algorithm list every one.
    The witness must replay through execute to exactly min_io."""
    dims = ProblemDims(m, n, k)
    found = tiny_optimal_schedule(dims, S)
    assert found.optimal, (m, n, k, S)
    stats = execute(found.schedule, MemoryConfig(S), *seeded_matrices(dims, 0)).stats
    assert stats.io_total == found.min_io, (m, n, k, S)
    costs = runnable_costs(dims, S)
    best = min(costs.values())
    names = ", ".join(alg.value for alg, cost in costs.items() if cost == best)
    return tuple(str(cell) for cell in (
        m, n, k, S, found.min_io, found.nodes, cheapest_runnable(dims, S)[0],
        compulsory_io(dims), f"{lower_bound_final(dims, S):.2f}", names, best,
        best - found.min_io,
    ))


def render() -> str:
    rows = [optimum_row(*instance) for instance in CAPPED]
    at_floor = sum(row[4] == row[7] for row in rows)
    seeded = sum(row[4] == row[6] for row in rows)
    attained = sum(row[-1] == "0" for row in rows)
    positive = sorted({row[3] for row in rows if float(row[8]) > 0})
    below_floor = sum(float(row[8]) < int(row[7]) for row in rows)
    capacities = sorted({row[3] for row in rows}, key=int)
    nodes = {S: sum(int(row[5]) for row in rows if row[3] == S) for S in capacities}
    pruned = sum(row[5] == "1" for row in rows)
    lines = [
        "# Exact optima of the tiny instances",
        "",
        "Every instance the exact search accepts (mnk ≤ 8, S = 3…6), proven",
        "optimal by `tiny_optimal_schedule` under its default node budget.",
        "",
        "- `min_io`: the fewest loads + stores of any schedule; `nodes`: the",
        "  search nodes it took.",
        "- `incumbent`: the cost the search starts from, that of the cheapest",
        "  schedule generated here that runs at S (`cheapest_runnable`): a",
        "  runnable algorithm, or a block of any operand and any (rows, cols)",
        "  shape with one streamed operand brought in an element at a time,",
        "  which needs rows·cols + min(rows, cols) + 1 ≤ S. The search looks",
        "  only for cheaper schedules. At 1 node the incumbent already meets",
        "  the floor, so the search prunes every child of its root and returns",
        "  the incumbent's schedule.",
        "- `floor`: the compulsory transfers mk + kn + 2mn, one load of every",
        "  element and one store of every C element (`compulsory_io`).",
        "- `lower_bound_final`: 2mnk/√S − 2S. It is positive only at",
        f"  S = {', '.join(positive)} and below the floor on {below_floor} of {len(rows)} rows, so at",
        "  these sizes the floor is the bound that constrains.",
        "- `best algorithm`: the runnable algorithm with the fewest predicted",
        "  transfers (`predicted_io`), every one on a tie; at S = 3 only naive",
        "  runs. `gap` is its io minus `min_io`.",
        "",
        f"The optimum equals the floor on {at_floor} of {len(rows)} rows. The",
        f"incumbent equals the optimum on {seeded} rows, and the best algorithm",
        f"on {attained}. The search takes {sum(nodes.values())} nodes over all rows, and",
        f"{pruned} rows take 1, the root. By S: "
        + "; ".join(f"{count} at S = {S}" for S, count in nodes.items()) + ".",
        "",
        f"Tier-1 re-derives all {len(rows)} rows (`tests/test_tiny_optima.py`), which",
        "also prints this file:",
        "`PYTHONPATH=src python tests/test_tiny_optima.py > docs/tiny_optima.md`.",
        "",
        "| " + " | ".join(HEADER) + " |",
        "|" + "---|" * len(HEADER),
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def _table_rows() -> list[tuple[str, ...]]:
    rows = []
    for line in TABLE.read_text().splitlines():
        cells = tuple(cell.strip() for cell in line.strip("|").split("|"))
        if line.startswith("|") and cells[0].isdigit():
            rows.append(cells)
    return rows


def test_table_covers_every_capped_instance():
    rows = _table_rows()
    assert [tuple(map(int, row[:4])) for row in rows] == CAPPED
    for row in rows:
        min_io, incumbent, floor = int(row[4]), int(row[6]), int(row[7])
        best, gap = int(row[10]), int(row[11])
        assert floor <= min_io <= incumbent <= best
        assert gap == best - min_io
        assert float(row[8]) < min_io


@pytest.mark.parametrize("S", range(3, 7))
def test_table_rows_rederive(S):
    # min_io and nodes pin the exact search on every capped instance
    rows = [row for row in _table_rows() if row[3] == str(S)]
    assert len(rows) == 38
    for row in rows:
        assert row == optimum_row(*map(int, row[:4]))


if __name__ == "__main__":
    print(render(), end="")
