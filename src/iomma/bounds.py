"""Lower bounds on slow-fast transfers for multiply-accumulate schedules.

The bound machinery has two independent routes on purpose: closed-form
expressions derived from the Loomis-Whitney inequality, and a brute-force
grid oracle over the per-phase footprint maximization. Their agreement is
part of the test surface, so neither should be rewritten in terms of the
other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algorithms import cheapest_runnable
from .model import (
    OP_EVICT,
    OP_FMA,
    OP_LOAD,
    OP_STORE,
    ProblemDims,
    Schedule,
    _check_positive,
    fma_count,
    fma_operand_ids,
    layout,
)

_THREE_ROOT_THREE = 3.0 * math.sqrt(3.0)

# grid_search_xyz refuses grids above this many points
_MAX_GRID_POINTS = 10_000_000


class GridTooFineError(ValueError):
    """The requested step would enumerate more than the allowed grid points."""


class CapsExceededError(ValueError):
    """The exact search only handles instances with mnk <= 8 and S <= 6."""


@dataclass(frozen=True)
class XYZOptimum:
    """A footprint split (x, y, z) with x + y + z = S + M and its fma cap f."""

    x: float
    y: float
    z: float
    f: float


@dataclass(frozen=True)
class BoundReport:
    """All bound quantities for one problem, ready for serialization."""

    dims: ProblemDims
    S: int
    M: int
    f_max: float
    general_bound: float
    bound_M_eq_S: float
    bound_M_eq_2S: float
    hong_kung_reference: float

    @classmethod
    def compute(cls, dims: ProblemDims, S: int, M: int) -> "BoundReport":
        return cls(
            dims=dims,
            S=S,
            M=M,
            f_max=fmax(S, M),
            general_bound=lower_bound_general(dims, S, M),
            bound_M_eq_S=lower_bound_MS(dims, S),
            bound_M_eq_2S=lower_bound_final(dims, S),
            hong_kung_reference=2.0 * fma_count(dims) / math.sqrt(S),
        )


def fmax(S: int, M: int) -> float:
    """Most fmas any phase of M transfers can perform: (S+M)^{3/2} / (3*sqrt(3)).

    Follows from maximizing sqrt(x*y*z) subject to x + y + z <= S + M; the
    maximum sits at x = y = z = (S+M)/3.
    """
    _check_positive(S=S, M=M)
    total = S + M
    return total * math.sqrt(total) / _THREE_ROOT_THREE


def optimal_xyz(S: int, M: int) -> XYZOptimum:
    """The balanced footprint split that attains fmax."""
    _check_positive(S=S, M=M)
    side = (S + M) / 3.0
    return XYZOptimum(x=side, y=side, z=side, f=math.sqrt(side * side * side))


def grid_search_xyz(S: int, M: int, step: float) -> XYZOptimum:
    """Brute-force oracle for the footprint maximization.

    Scans x and y over multiples of step with x + y <= S + M and puts all
    remaining budget into z, maximizing f = sqrt(x*y*z). Deliberately
    independent of the calculus behind optimal_xyz. First maximizer in scan
    order wins ties.
    """
    _check_positive(S=S, M=M)
    if step <= 0:
        raise ValueError("step must be positive")
    total = S + M
    points_per_axis = int(total / step) + 1
    if points_per_axis * points_per_axis > _MAX_GRID_POINTS:
        raise GridTooFineError(
            f"step {step} needs {points_per_axis}^2 grid points "
            f"(limit {_MAX_GRID_POINTS})"
        )
    best_x = best_y = best_z = 0.0
    best_f = -1.0
    for ix in range(points_per_axis):
        x = ix * step
        rest = total - x
        if rest < 0:
            break
        for iy in range(int(rest / step) + 1):
            y = iy * step
            z = rest - y
            if z < 0:
                break
            f = math.sqrt(x * y * z)
            if f > best_f:
                best_x, best_y, best_z, best_f = x, y, z, f
    return XYZOptimum(x=best_x, y=best_y, z=best_z, f=best_f)


def lower_bound_general(dims: ProblemDims, S: int, M: int) -> float:
    """Transfers any complete schedule needs, as a function of the phase size M.

    (3*sqrt(3) * mnk / (S+M)^{3/2} - 1) * M. May be negative or vacuous for
    tiny problems; callers decide what to do with that, the value is never
    clamped.
    """
    _check_positive(S=S, M=M)
    total = S + M
    mnk = fma_count(dims)
    return (_THREE_ROOT_THREE * mnk / (total * math.sqrt(total)) - 1.0) * M


def lower_bound_MS(dims: ProblemDims, S: int) -> float:
    """The general bound specialized to phases of M = S transfers."""
    _check_positive(S=S)
    return (
        _THREE_ROOT_THREE / (2.0 * math.sqrt(2.0)) * fma_count(dims) / math.sqrt(S)
        - S
    )


def lower_bound_final(dims: ProblemDims, S: int) -> float:
    """The strongest specialization, at M = 2S: 2*mnk/sqrt(S) - 2S."""
    _check_positive(S=S)
    return 2.0 * fma_count(dims) / math.sqrt(S) - 2.0 * S


def compulsory_io(dims: ProblemDims) -> int:
    """Transfers every complete schedule pays: mk + kn + 2mn.

    Each element of A, B and C must be loaded once and each C element stored
    once. Unlike the bounds above it holds at every size and capacity.
    """
    m, n, k = dims.m, dims.n, dims.k
    return m * k + k * n + 2 * m * n


def phase_size_payoff(S: int, M: float) -> float:
    """fmas-per-transfer factor g(M) = 3*sqrt(3) * M / (S+M)^{3/2}.

    The general bound is (mnk / fmax(S, M) - 1) * M; maximizing it over M is
    equivalent to maximizing g. g peaks at M = 2S with g(2S) = 2/sqrt(S).
    """
    _check_positive(S=S)
    if M <= 0:
        raise ValueError("M must be positive")
    total = S + M
    return _THREE_ROOT_THREE * M / (total * math.sqrt(total))


def optimal_M(S: int, grid: list[float]) -> float:
    """The grid point maximizing the phase-size payoff g; first wins ties."""
    _check_positive(S=S)
    if not grid:
        raise ValueError("grid must not be empty")
    best = grid[0]
    best_g = phase_size_payoff(S, grid[0])
    for candidate in grid[1:]:
        g = phase_size_payoff(S, candidate)
        if g > best_g:
            best, best_g = candidate, g
    return best


# ---------------------------------------------------------------------------
# Exact minimal I/O for tiny instances, by branch and bound.
# ---------------------------------------------------------------------------

DEFAULT_NODE_BUDGET = 3_000_000


@dataclass(frozen=True)
class TinyOptimum:
    """Result of the exact search: cost, witness schedule, and completeness."""

    min_io: int
    schedule: Schedule
    optimal: bool
    nodes: int


class _BudgetExhausted(Exception):
    """The exact search ran out of nodes; caught by tiny_optimal_schedule."""


def tiny_optimal_schedule(
    dims: ProblemDims, S: int, budget: int = DEFAULT_NODE_BUDGET
) -> TinyOptimum:
    """Provably minimal loads + stores for a tiny instance.

    Depth-first branch and bound over legal event sequences. The admissible
    pruning bound counts loads of needed-but-absent operands plus one store
    per unfinished C element plus stores of finished-but-dirty slots, all of
    which any completion must still pay. Ties expand loads before fmas before
    stores before evicts. The incumbent starts as the cheapest schedule
    generated here that runs at S (``cheapest_runnable``): a runnable
    algorithm, or a block of any operand and shape that streams one operand
    an element at a time, the first candidate on a tie. So the search only
    looks for strictly cheaper schedules, and if it finds none the
    incumbent's schedule, built only then, is the witness. If the node budget
    runs out the best schedule found so far, the incumbent's or a cheaper
    one, is returned with optimal=False, unless it meets the compulsory
    floor, which proves it optimal.

    A state is three bitmasks over ``execute``'s element ids (A, then B,
    then C, each row-major): the resident elements, the dirty C elements,
    and the remaining fmas, whose bit t is triple (i, j, p) in lexicographic
    order. Every move list runs in ascending bit order. The memo maps one
    int per state, res | dirty << E | rem << 2E with E = mk + kn + mn, to
    the lowest cost it was entered at.

    The search is one recursive function. Its first step is the only memo
    test: a state already entered at no higher cost returns at once; any
    other records its cost and counts as a node. The parent hands over the
    child's state, cost, bound and memo key, the key updated from its own by
    XOR. It has each child's bound from its own: a load keeps it (cost + 1,
    one fewer absent operand), an fma keeps it (its A and B stay resident,
    and its C moves to the dirty term if no fma is left on it), a forced
    store or evict keeps it, a partial store adds 2 (cost + 1, and a
    still-needed C element becomes absent) and an evict of a needed clean
    element adds 1. At the root the bound is the compulsory floor. The
    parent tests each child's bound before entering it, except after a
    forced move, whose child has the bound the parent has just passed. So
    every state but the root is entered below best_cost, and as the bound of
    a final state is its cost, the forced store, the only move that can
    reach one, records it without a test. The root is entered even when the
    incumbent meets the floor, so every search counts at least one node.
    The moves that reached a state form a linked (op, bit, parent) path,
    reversed once into the witness. When the budget runs out, a private
    exception unwinds the whole search.
    The six instances of perfbench's exact-search workload (3065 nodes)
    take about 0.007-0.009 s on a 2-vCPU Xeon VM, and all 152 capped
    instances (163709 nodes) about 0.34-0.44 s.
    """
    _check_positive(S=S, budget=budget)
    m, n, k = dims.m, dims.n, dims.k
    if m * n * k > 8 or S > 6:
        raise CapsExceededError(
            f"instance ({m},{n},{k}) with S={S} exceeds the exact-search caps "
            "(mnk <= 8, S <= 6)"
        )
    # the incumbent is the cheapest generated schedule that runs at S; it is
    # built only if nothing beats it
    best_cost, build = cheapest_runnable(dims, S)

    shapes = layout(dims)
    # a move is recorded as its opcode and bit; these give the other fields
    # of its code row: (matrix code, row, col) per element, (i, j, p) per fma
    elements = {
        1 << element: (code, *divmod(element - first, cols))
        for code, (rows, cols, first) in enumerate(shapes)
        for element in range(first, first + rows * cols)
    }
    width = len(elements)
    c_mask = (1 << width) - (1 << shapes[-1][2])  # C's ids come last
    triples = {1 << t: ijp for t, ijp in enumerate(itertools.product(range(m), range(n), range(k)))}
    operands = {
        bit: sum(1 << element for element in fma_operand_ids(dims, *ijp))
        for bit, ijp in triples.items()
    }
    # needed[rem]: the elements some fma in rem still reads
    needed = [0] * (1 << len(triples))
    for rem in range(1, len(needed)):
        low = rem & -rem
        needed[rem] = needed[rem ^ low] | operands[low]

    best_path = None
    # memo key of a state: res | dirty << width | rem << 2 * width
    memo: dict[int, int] = {}
    nodes = 0

    def search(res: int, dirty: int, rem: int, cost: int, key: int, bound: int, path) -> None:
        # enter a state whose bound, dirty term included, is below best_cost,
        # or the root; an unseen key reads as cost + 1
        nonlocal best_cost, best_path, nodes
        if memo.get(key, cost + 1) <= cost:
            return
        memo[key] = cost
        nodes += 1
        if nodes >= budget:
            raise _BudgetExhausted
        need = needed[rem]

        # forced move: a dirty slot with no fmas left must be stored sooner or
        # later; storing now frees a slot and commutes with everything else.
        # It keeps the bound, which this state has just passed, so the last
        # store of a schedule completes one cheaper than best_cost.
        done = dirty & ~need
        if done:
            low = done & -done
            path = (OP_STORE, low, path)
            if rem or dirty != low:
                search(res ^ low, dirty ^ low, rem, cost + 1, key ^ low ^ low << width, bound, path)
            else:
                best_cost, best_path = cost + 1, path
            return
        # forced move: a clean resident no pending fma uses is dead weight.
        # Evicting it keeps the bound, which this state has just passed.
        dead = res & ~need
        if dead:
            low = dead & -dead
            search(res ^ low, dirty, rem, cost, key ^ low, bound, (OP_EVICT, low, path))
            return

        # No child from here on is final, and none has a bound below this
        # state's, so once the bound fails for one, it fails for the rest.
        # A load keeps the bound: cost + 1, one fewer absent operand.
        occupancy = res.bit_count()
        if occupancy < S:
            bits = need & ~res
            while bits:
                if bound >= best_cost:
                    return
                low = bits & -bits
                bits ^= low
                search(res | low, dirty, rem, cost + 1, key | low, bound, (OP_LOAD, low, path))

        # fmas whose three inputs are resident. Each keeps the bound: its A
        # and B are resident and stay so, and its C, dirty now, moves from
        # the unfinished-store term to the dirty term if no fma is left on it.
        bits = rem
        while bits:
            low = bits & -bits
            bits ^= low
            ops = operands[low]
            if ops & res == ops:
                if bound >= best_cost:
                    return
                c = ops & c_mask
                search(res, dirty | c, rem ^ low, cost, (key | c << width) ^ low << 2 * width,
                       bound, (OP_FMA, low, path))

        # stores of dirty slots with work left (partial writeback) add 2:
        # cost + 1, and the still-needed C element becomes absent
        bits = dirty
        while bits:
            if bound + 2 >= best_cost:
                break
            low = bits & -bits
            bits ^= low
            search(res ^ low, dirty ^ low, rem, cost + 1, key ^ low ^ low << width,
                   bound + 2, (OP_STORE, low, path))

        # evictions of still-needed clean residents add 1: only worthwhile at
        # full occupancy, to make room
        if occupancy >= S:
            bits = res & ~dirty
            while bits:
                if bound + 1 >= best_cost:
                    return
                low = bits & -bits
                bits ^= low
                search(res ^ low, dirty, rem, cost, key ^ low, bound + 1, (OP_EVICT, low, path))

    # the root is always entered, so it counts as a node; at the incumbent's
    # cost its first child test prunes every child
    floor = compulsory_io(dims)
    rem = len(needed) - 1
    try:
        search(0, 0, rem, 0, rem << 2 * width, floor, None)
        optimal = True
    except _BudgetExhausted:
        # a schedule at the compulsory floor is optimal however far the
        # search got
        optimal = best_cost == floor
    if best_path is None:
        schedule = build()
    else:
        rows = []
        while best_path:
            op, bit, best_path = best_path
            rows.append((op, *(triples if op == OP_FMA else elements)[bit]))
        schedule = Schedule._wrap(np.array(rows[::-1], dtype=np.int64), dims)
    return TinyOptimum(min_io=best_cost, schedule=schedule, optimal=optimal, nodes=nodes)
