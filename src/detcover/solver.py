"""Randomized sieve deciding exact cover and k-dimensional matching.

The decision procedure XORs a probe value over every subset X of V - U.
Families of n/k edges that miss some vertex outside U are counted once
per subset of the missed vertices, an even number of times, so they
vanish in characteristic 2; what remains is the summed weight of exact
covers at random edge weights.  A nonzero sum proves a cover exists; a
zero sum is wrong only when the cover polynomial happens to vanish at
the random point, probability about n / (k * 2^m).

sieve_decide picks the probe from its input.  The general probe is
matchweight.cover_weight on the view restricted to the edges avoiding
X.  When the instance carries a partition and U is the union of its
first two blocks, every edge meets every block once, and the probe is
the b x b bipartite determinant (b = n/k) of a pair of blocks, whose
(row, col) entry XORs the weights of the edges joining left vertex
`row` to right vertex `col`.  The general probe squares pair weights,
the bipartite one does not; since squaring is additive in
characteristic 2, the square of the bipartite sum is the general sum,
so both return the same element.  Every pair of blocks gives that same
total, so the bipartite probe sieves the pair whose walk yields the
fewest X (the lowest pair on a tie).  The pairs' walks read no weight;
they run in lockstep until the first one ends, each keeping its X, so
every pair is walked once and the winner's list goes to the
determinants.

Both solvers run one attempt body: pick U, keep the edges meeting it at
most twice (no cover edge meets it more often when U is good), draw one
weight per kept edge and call sieve_decide; a nonzero sum ends the run
with yes.  solve_kdm takes U as partition blocks 0 and 1, which every
edge meets exactly twice, so a single attempt of 2^(n(k-2)/k) probes
decides the instance.  solve_xkc knows no partition: each attempt
samples U of size round(t*n) (t from the exponent optimizer), and the
attempt budget is ceil(ln(1/eps)/p).  Answers are one sided: yes is
always backed by a nonzero certificate.  An instance with a vertex in
no edge has no cover, so both answer it no before any attempt.

X is named by a code whose bit i puts the i-th vertex of V - U in X,
counting from the vertex in the fewest edges (equal counts by label).
One walk, _walk, serves both kernels: a depth-first search in code
order, one recursive visit per X's subtree, that adds one vertex a
step, tells the kernel which edges died (or revived, on the way back),
and skips the subtree of every X that fails the kernel's zero test; the
tests are monotone, so a superset of a failing X fails too, and the
visits nest no deeper than log2 of the number of X visited.  It also
applies the sieve's own cancellation to whole subtrees: if a vertex v
that X's subtree can still add lies in no live edge the kernel uses,
adding v leaves every probe in the subtree unchanged, so the probes
cancel in pairs and the walk skips the subtree.
The low code bits are the ones a subtree can still add, so the vertices
in the fewest edges sit there, where they most often lie in no used
edge and cancel a subtree near the root.

The general kernel, _live_probes, uses an edge when it lies in a family
of the live edges (a perfect matching of U by pairs and at most
2n/k - |U| loops, padded to n/k edges by edges that miss U); it keeps
one family, searches for another when it loses an edge, and restricts
the view to each X that has one.  The bipartite kernel,
_matchable_probes, uses an edge when it lies in a perfect matching of
the live support; it keeps the support and one perfect matching,
repaired by augmenting paths as cells empty, and yields each X whose
support has one.  Each X's determinant is then the product of its
determinants on the Dulmage-Mendelsohn blocks of the root support
(X = {}), found once per sweep from the perfect matching that the
winning walk holds when it ends: the blocks that no X of the sweep
touches give one factor, and the others are memoized by the X vertices
they meet.  Each X is walked once, and each sweep is set up once.  One
thread probes the X as the walk yields them; threaded runs deal the
walked X round robin to at most os.cpu_count() workers.  The workers
share the sweep's set-up, so they compute what one thread computes, and
the XOR of their shares is bit-identical for any worker count.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_, xor

from .gf2m import GF2m, field_for
from .hypergraph import Hypergraph, project, restrict_avoiding, validate
from .linalg import determinant
from .matchweight import cover_weight
from .params import check_epsilon, optimize, repetitions


@dataclass
class SieveConfig:
    """Knobs shared by both solvers."""

    m: int = 64              # field degree, 8 or 64
    seed: int = 0            # master seed for U sampling and edge weights
    epsilon: float = 2.0 ** -20  # false-no budget of solve_xkc
    threads: int = 1         # workers dealt the X of a sweep, at most os.cpu_count()

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        check_epsilon(self.epsilon)


@dataclass
class Decision:
    """Outcome of one solver run."""

    answer: str              # "yes" or "no"
    probes: int              # nominal X count, 2^|V - U| per attempt, skipped X included
    attempts: int            # U draws consumed
    elapsed: float           # wall seconds
    reason: str | None = None
    u_fraction: float | None = None
    max_attempts: int | None = None

    @property
    def yes(self) -> bool:
        return self.answer == "yes"


def u_size(H: Hypergraph, partitioned: bool) -> int:
    """|U| of one sweep: two partition blocks (2n/k vertices) when
    partitioned, else round(t*n) clamped to [2, n], with t from the
    exponent optimizer (t = 1 for k = 2)."""
    if partitioned:
        return 2 * (H.n // H.k)
    t = 1.0 if H.k == 2 else optimize(H.k).t
    return min(H.n, max(2, round(t * H.n)))


def _family(adj, free, loops, least, u):
    """Cells (a*u + b, a <= b) of a perfect matching of the U indices in
    bitmask `free` with at least `least` and at most `loops` loops, or
    None (always when loops < 0).  Bit b of adj[a]: a live edge joins
    indices a and b (a loop if a == b).  Depth first, covering the lowest
    free index first."""
    if loops < 0 or free.bit_count() < least:  # each index adds at most one loop
        return None
    if not free:
        return [] if least <= 0 else None
    low = free & -free
    a = low.bit_length() - 1
    opts = adj[a] & free if loops > 0 else adj[a] & (free ^ low)
    while opts:
        bit = opts & -opts
        opts ^= bit
        if bit == low:
            found = _family(adj, free ^ low, loops - 1, least - 1, u)
        else:
            found = _family(adj, free ^ low ^ bit, loops, least, u)
        if found is not None:
            found.append(a * u + bit.bit_length() - 1)
            return found
    return None


def _walk(rest, masks, kill, revive, user):
    """The X, in code order, that pass a kernel's zero test, less the
    subtrees that cancel (below); the kernel tests the root before it
    starts the walk.  Code bit i puts the i-th vertex of `rest` in X,
    counting from the vertex in the fewest edges, equal counts by label;
    edge i (vertex bitmask masks[i]) is live while it avoids X.

    One recursive visit per X: it yields X, then tries its children,
    which add a code bit below X's lowest, in increasing order.  Adding
    a vertex reads only its own edges and calls kill(ids) with those
    that just died, the ones that avoided X before the step.  kill
    returns False when the child fails the zero test; the test is
    monotone, so the walk skips the child's subtree.  Otherwise the
    child's subtree is one nested visit.  Leaving the child calls
    revive(ids) with the same edges, after a failed kill too.

    The root and every X that passes also skip their subtree when a
    vertex v the subtree can still add (a code bit below X's lowest)
    lies in no live edge i with uses(i), where uses = user() is built
    once per X and says whether a live edge lies in some term of the
    probe (a family or a perfect matching): every X' in the subtree
    that misses v then has the same probe as X' + v, so the two cancel.

    Visits nest |X| deep.  Each subset Y of a visited X has the lowest
    bit of a visited ancestor of X (X's bits from Y's lowest up), keeps
    at least that ancestor's used live edges, so it does not cancel, and
    passes the monotone zero test: every subset of a visited X is
    visited, so the depth is at most log2 of the number of X visited,
    far below Python's recursion limit for any |V - U| a sweep can
    finish."""
    bits = []                   # per vertex of rest: its bit, the (id, mask) of its edges
    r = rest
    while r:
        low = r & -r
        r ^= low
        bits.append((low, [(i, mk) for i, mk in enumerate(masks) if mk & low]))
    bits.sort(key=lambda bit: len(bit[1]))  # stable: equal edge counts keep label order
    lows, touch = [low for low, _ in bits], [ids for _, ids in bits]

    def cancels(below, x):  # a vertex of code bits 0..below-1 lies in no used live edge
        uses = user()
        return not all(any(not mk & x and uses(i) for i, mk in touch[t]) for t in range(below))

    def visit(x, top):  # X = x and its subtree, whose children add a code bit below top
        if top and cancels(top, x):
            return
        yield x
        for t in range(top):
            dead = [i for i, mk in touch[t] if not mk & x]
            if kill(dead):
                yield from visit(x | lows[t], t)
            revive(dead)

    yield from visit(0, len(lows))


def _live_probes(ends, masks, need, u, rest):
    """The general kernel's X, yielded as _walk reaches them: those whose
    live edges hold a family, the only X whose probe can be nonzero.
    Edge i (vertex bitmask masks[i]; U indices ends[i]) is live while it
    avoids X.  A family is `need` live edges meeting each U index
    0..u-1 once: a perfect matching of U by pairs and i <= 2*need - u
    loops, plus need - (u + i)/2 empties (edges that miss U).

    An edge's death moves only its cell's live count.  The kernel keeps
    one witness family and searches again only when a witness cell
    empties or too few empties are left.  A family never reappears as X
    grows, so a failed search keeps the parent's witness and fails the
    zero test; backtracking keeps the witness.  A live edge is used when
    it lies in a family: the witness's cells are used, and so is every
    live empty when the witness holds one; any other cell costs one
    _family search with the cell forced in, at most once per X."""
    top = 2 * need - u          # the most loops a family can use; below 0, no family
    full, empty = (1 << u) - 1, u * u
    cells = [e[0] * u + e[-1] if e else empty for e in ends]  # pair a < b: a*u + b; loop a: a*u + a
    count = [0] * (empty + 1)   # live edges per cell
    adj = [0] * u               # bit b of adj[a]: cell (a, b) or (b, a) is live
    for c in cells:
        count[c] += 1
        if c < empty:
            a, b = divmod(c, u)
            adj[a] |= 1 << b
            adj[b] |= 1 << a

    def search():  # a family's cells, which need need - len(cells) empties; a bare U index has none
        return _family(adj, full, top, 2 * (need - count[empty]) - u, u) if all(adj) else None

    def kill(ids):
        nonlocal witness
        broken = False          # a witness cell emptied
        for i in ids:
            c = cells[i]
            count[c] -= 1
            if not count[c] and c < empty:
                a, b = divmod(c, u)
                adj[a] &= ~(1 << b)
                adj[b] &= ~(1 << a)
                broken = broken or c in witness
        if broken or count[empty] < need - len(witness):
            found = search()
            if found is None:
                return False
            witness = found
        return True

    def revive(ids):
        for i in ids:
            c = cells[i]
            if not count[c] and c < empty:
                a, b = divmod(c, u)
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            count[c] += 1

    def user():
        least = 2 * (need - count[empty]) - u
        used = dict.fromkeys(witness, True)
        if need > len(witness):  # the witness holds an empty, and any live one can take its place
            used[empty] = True

        def uses(i):
            c = cells[i]
            if c not in used:   # search for a family with c in it
                if c == empty:
                    found = _family(adj, full, top - 2, least, u)
                else:
                    a, b = divmod(c, u)
                    loop = a == b
                    found = _family(adj, full & ~(1 << a | 1 << b), top - loop, least - loop, u)
                used[c] = found is not None
            return used[c]

        return uses

    witness = search()
    if witness is not None:
        yield from _walk(rest, masks, kill, revive, user)


def _bipartite_entries(H: Hypergraph, left, right) -> list[tuple[int, int, int, int]]:
    """(edge mask, edge id, row, col) per edge: row and col are the
    positions of the edge's vertices in the blocks `left` and `right`."""
    if not len(left) == len(right) == H.n // H.k:
        raise ValueError("paired partition blocks must hold n/k vertices each")
    lpos = {v: i for i, v in enumerate(left)}
    rpos = {v: i for i, v in enumerate(right)}
    entries = []
    for eid, (e, mk) in enumerate(zip(H.edges, H.edge_masks)):
        rows = [lpos[v] for v in e if v in lpos]
        cols = [rpos[v] for v in e if v in rpos]
        if len(rows) != 1 or len(cols) != 1:
            raise ValueError(f"edge {eid} does not join the paired partition blocks")
        entries.append((mk, eid, rows[0], cols[0]))
    return entries


def _perfect_matching(rows: list[int]) -> tuple[list[int], list[int]] | None:
    """A perfect matching of a bipartite graph as (row of each column,
    column of each row), or None if it has none; bit c of rows[r] joins
    row r to column c.  Kuhn's algorithm: one augmenting path per row,
    found by breadth-first search rather than recursion."""
    b = len(rows)
    row_of = [-1] * b   # column -> matched row
    col_of = [-1] * b   # row -> matched column
    if all(_augment(rows, root, row_of, col_of) for root in range(b)):
        return row_of, col_of
    return None


def _augment(rows, root, row_of, col_of) -> bool:
    """Match row `root` by flipping an augmenting path; False if none."""
    parent = {root: -1}
    queue = [root]
    seen = 0
    for u in queue:  # the queue grows while it is walked
        avail = rows[u] & ~seen
        seen |= avail
        while avail:
            low = avail & -avail
            avail ^= low
            c = low.bit_length() - 1
            v = row_of[c]
            if v >= 0:
                parent[v] = u
                queue.append(v)
                continue
            while u >= 0:  # c is free: shift every row on the path to c
                row_of[c] = u
                c, col_of[u] = col_of[u], c
                u = parent[u]
            return True
    return False


def _reach(support, row_of, c) -> int:
    """Bitmask of the columns that alternating paths from column c reach,
    c included: a reached column d leads, through its matched row
    row_of[d], to every column of support[row_of[d]]."""
    seen = frontier = 1 << c
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            step |= support[row_of[low.bit_length() - 1]]
        frontier = step & ~seen
        seen |= frontier
    return seen


def _matchable_probes(entries, b, rest):
    """The bipartite kernel's X: those of _walk whose live edges (those
    avoiding X) have a perfect matching on the b x b grid.  The walk
    reads the support alone, never a weight.

    A dead edge leaves its cell's live count, and its row's support when
    the cell empties.  The kernel keeps one perfect matching of the
    support.  When a matched cell empties, its row is matched again by
    an augmenting path; a support that lost its perfect matching never
    regains it as X grows, so a failed repair restores the matching
    saved before the step and fails the zero test.  Revived edges keep
    the matching, which stays perfect on the larger support.

    A live edge is used when its cell lies in a perfect matching of the
    support: a matched cell is; an unmatched (r, c) is iff it closes an
    alternating cycle (Dulmage and Mendelsohn), that is iff column c
    reaches column col_of[r] along support[row_of[.]], a bitmask search
    made at most once per column and X.

    The generator returns that matching when the walk ends: every kill
    is revived by then, so it is a perfect matching of the root support
    (X = {}).  It returns None when the root support has none."""
    cells = [(r, c) for _, _, r, c in entries]
    count = [[0] * b for _ in range(b)]     # live edges per cell
    support = [0] * b                       # bit c of support[r] iff count[r][c]
    for r, c in cells:
        count[r][c] += 1
        support[r] |= 1 << c
    matching = _perfect_matching(support)
    if matching is None:
        return
    row_of, col_of = matching

    def kill(ids):
        broken = []             # rows whose matched cell emptied
        for i in ids:
            r, c = cells[i]
            count[r][c] -= 1
            if not count[r][c]:
                support[r] ^= 1 << c
                if col_of[r] == c:
                    broken.append(r)
        if broken:
            saved = row_of[:], col_of[:]
            for r in broken:
                row_of[col_of[r]] = -1
                col_of[r] = -1
            if not all(_augment(support, r, row_of, col_of) for r in broken):
                row_of[:], col_of[:] = saved
                return False
        return True

    def revive(ids):
        for i in ids:
            r, c = cells[i]
            count[r][c] += 1
            support[r] |= 1 << c

    def user():
        reach = {}              # column c -> the columns that alternating paths from c reach

        def uses(i):            # an unmatched live (r, c) lies in a cycle iff c reaches r's column
            r, c = cells[i]
            if col_of[r] == c:
                return True
            if c not in reach:
                reach[c] = _reach(support, row_of, c)
            return reach[c] >> col_of[r] & 1

        return uses

    yield from _walk(rest, [mk for mk, *_ in entries], kill, revive, user)
    return row_of, col_of


def _sweep_kdm(entries, matching, weights, gf, xs, threads=1):
    """XOR of the bipartite determinants at the X in the list xs.

    Row r is the r-th vertex of the left block of the entries' pair and
    column c the c-th of its right block.  `matching` is a perfect
    matching (row of each column, column of each row) of the root
    support (X = {}), or None when it has none and so no X has one.
    The matching splits the root support into Dulmage-Mendelsohn blocks:
    columns c and d share one iff alternating paths lead from each to
    the other.  Paths between blocks run one way only, so in that order
    the root support, and every X's live support inside it, is block
    triangular, and X's determinant is the product of its diagonal
    blocks' determinants.  A cell between two blocks lies in no perfect
    matching of any X's support and is dropped.  A block's determinant
    depends only on the X vertices that its cells' edges meet: the
    blocks that no X in xs touches multiply into one factor, computed
    once, and the others are memoized by x & (their edges' vertices).
    A 1x1 block's determinant is its cell.  The blocks do not depend on
    which perfect matching splits them, and in characteristic 2 neither
    does any block's determinant.  The set-up is made once; only the
    per-X products are dealt to `threads` workers (see _xor_probes).
    """
    if matching is None or not xs:
        return 0
    row_of, col_of = matching
    b = len(col_of)
    support = [0] * b
    for _, _, r, c in entries:
        support[r] |= 1 << c
    reach = [_reach(support, row_of, c) for c in range(b)]
    block = [sum(1 << d for d in range(b) if reach[c] >> d & reach[d] >> c & 1) for c in range(b)]
    pos = [(block[c] & ((1 << c) - 1)).bit_count() for c in range(b)]  # c's place in its block
    cells = {}                  # block -> its (edge mask, weight, row, col), row and col block-local
    for mk, eid, r, c in entries:
        if block[c] == block[col_of[r]]:
            cells.setdefault(block[c], []).append((mk, weights[eid], pos[col_of[r]], pos[c]))

    def det(part, size, x):     # the block's determinant at X
        rows = [{} for _ in range(size)]
        for mk, w, r, c in part:
            if not mk & x:
                rows[r][c] = rows[r].get(c, 0) ^ w
        return rows[0].get(0, 0) if size == 1 else determinant(rows, gf)

    mul = gf.mul
    hit = reduce(or_, xs)
    factor, touched = 1, []
    for cols, part in cells.items():
        seen, size = reduce(or_, (mk for mk, *_ in part)), cols.bit_count()
        if seen & hit:
            touched.append((seen, part, size, {}))
        else:
            factor = mul(factor, det(part, size, 0))

    def probe(x):               # the product of X's touched blocks
        value = 1
        for seen, part, size, memo in touched:
            key = x & seen
            if key not in memo:  # racing workers at worst store one value twice
                memo[key] = det(part, size, key)
            value = memo[key] if value == 1 else mul(value, memo[key])  # 1 * d = d, no field call
        return value

    return mul(_xor_probes(probe, xs, threads), factor)


def _xor_probes(probe, xs, threads: int) -> int:
    """XOR of probe(x) over the X in xs.  One thread probes xs as it
    comes, without listing it; more list xs and deal it round robin to
    min(threads, len(xs), os.cpu_count()) workers."""
    if threads > 1:
        xs = list(xs)
        parts = min(threads, len(xs), os.cpu_count() or 1)
        if parts > 1:
            with ThreadPoolExecutor(max_workers=parts) as pool:
                shares = pool.map(lambda i: _xor_probes(probe, xs[i::parts], 1), range(parts))
                return reduce(xor, shares)
    return reduce(xor, map(probe, xs), 0)


def sieve_decide(H: Hypergraph, u_vertices, weights, gf: GF2m, threads: int = 1) -> int:
    """Summed cover weight at the given edge weights; nonzero proves a
    cover exists.  Requires every edge to meet U at most twice.

    When H carries a partition and U is exactly its blocks 0 and 1, every
    edge must meet every block once; the probes are the bipartite
    determinants of the pair of blocks that _cheapest_blocks picks, and
    the result is the square of their XOR.  Otherwise each probe is
    cover_weight on the edges avoiding X.  All give the same element.

    The X are walked once.  One thread probes each X as the walk yields
    it; with threads > 1 the walked X are dealt round robin to at most
    that many workers, whose shares combine by XOR, so the value is
    bit-identical for every worker count.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if len(weights) != len(H.edges):
        raise ValueError(f"{len(weights)} weights for {len(H.edges)} edges")
    if H.n == 0 or H.n % H.k != 0:
        raise ValueError("vertex count must be a positive multiple of k")
    u_vertices = set(u_vertices)
    if H.partition is not None and u_vertices == set(H.partition[0]) | set(H.partition[1]):
        _, entries, matching, xs = _cheapest_blocks(H)
        total = _sweep_kdm(entries, matching, weights, gf, xs, threads)
        return gf.mul(total, total)
    view = project(H, u_vertices)
    if view.dropped:
        raise ValueError(f"{len(view.dropped)} edges meet U more than twice")
    ends = [()] * len(H.edges)
    for eid, *at in view.pairs + view.loops:
        ends[eid] = tuple(at)
    rest = ((1 << H.n) - 1) ^ view.u_mask
    xs = _live_probes(ends, H.edge_masks, H.n // H.k, view.u_size, rest)
    return _xor_probes(lambda x: cover_weight(restrict_avoiding(view, H, x), weights, H.n, H.k, gf),
                       xs, threads)


def _cheapest_blocks(H: Hypergraph):
    """(H's partition with the pair moved to the front, its entries, the
    perfect matching of its root support that its walk returns, the X
    its walk yields) of the pair of blocks whose walk yields the fewest
    X, the lowest such pair on a tie.  Any pair gives the same
    total, the summed cover weight squared, so the choice saves only
    determinants.  The pairs' walks advance in lockstep, one yield per
    walk per round in pair order, and each keeps what it yields; the
    first walk to end wins with its list complete, so no walk runs past
    the winner's count plus one."""
    p = H.partition
    full = (1 << H.n) - 1
    walks = []
    for i, j in combinations(range(len(p)), 2):
        order = [p[i], p[j], *(q for t, q in enumerate(p) if t not in (i, j))]
        entries = _bipartite_entries(H, p[i], p[j])
        rest = full ^ sum(1 << v for v in (*p[i], *p[j]))
        walks.append((order, entries, [], _matchable_probes(entries, H.n // H.k, rest)))
    while True:
        for order, entries, xs, walk in walks:
            try:
                xs.append(next(walk))
            except StopIteration as end:
                return order, entries, end.value, xs


def _solve(H: Hypergraph, cfg: SieveConfig | None, partitioned: bool) -> Decision:
    """The attempt loop of both solvers (see the module docstring)."""
    t0 = time.perf_counter()
    cfg = cfg or SieveConfig()
    violation = validate(H)
    if violation is not None:
        raise ValueError(str(violation))
    if partitioned and H.partition is None:
        raise ValueError("partitioned solver needs an instance with a partition")
    n, k = H.n, H.k
    if n == 0:
        return Decision("yes", 0, 0, time.perf_counter() - t0, reason="empty instance")
    if n % k != 0:
        return Decision("no", 0, 0, time.perf_counter() - t0,
                        reason=f"cardinality: n={n} is not a multiple of k={k}")
    gf = field_for(cfg.m)
    uncovered = n - reduce(or_, H.edge_masks, 0).bit_count()
    if uncovered:
        return Decision("no", 0, 0, time.perf_counter() - t0,
                        reason=f"uncovered: {uncovered} of {n} vertices lie in no edge")
    rng = random.Random(cfg.seed)
    tn = u_size(H, partitioned)
    max_attempts = 1 if partitioned else repetitions(n, k, tn / n, cfg.epsilon)
    blocks = [*H.partition[0], *H.partition[1]] if partitioned else None  # kdm's U, no draw
    answer = "no"
    for attempt in range(1, max_attempts + 1):
        u_vertices = blocks or sorted(rng.sample(range(n), tn))
        u_mask = sum(1 << v for v in u_vertices)
        keep = [eid for eid, mk in enumerate(H.edge_masks) if (mk & u_mask).bit_count() <= 2]
        sub = Hypergraph(n, k, [H.edges[eid] for eid in keep], H.partition)
        weights = [gf.sample(rng) for _ in keep]
        if sieve_decide(sub, u_vertices, weights, gf, cfg.threads):
            answer = "yes"
            break
    return Decision(answer, attempt << (n - tn), attempt, time.perf_counter() - t0,
                    u_fraction=tn / n, max_attempts=max_attempts)


def solve_kdm(H: Hypergraph, cfg: SieveConfig | None = None) -> Decision:
    """Decide a partitioned instance with one sweep of bipartite probes;
    the only error mode is a false no, at probability about (n/k) / 2^m."""
    return _solve(H, cfg, partitioned=True)


def solve_xkc(H: Hypergraph, cfg: SieveConfig | None = None) -> Decision:
    """Decide an unpartitioned instance by repeated random-U sieving; a
    no is wrong with probability at most epsilon plus the
    vanishing-determinant term."""
    return _solve(H, cfg, partitioned=False)
