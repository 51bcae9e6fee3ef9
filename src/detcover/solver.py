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
X.  When the instance carries a partition and U is its blocks 0 and 1,
the probe is the b x b bipartite determinant (b = n/k) between those
blocks, whose (row, col) entry XORs the weights of the edges joining
left vertex `row` to right vertex `col`.  A term of it is b edges that
cover U once; the sieve keeps it iff they also cover V - U once, so any
pair of blocks would give the same total.  The general probe squares
pair weights, the bipartite one does not; since squaring is additive in
characteristic 2, the square of the bipartite sum is the general sum.

A Hypergraph validates itself when built, so neither solver checks its
instance again.  An instance with a vertex in no edge has no cover, so
both answer it no before any attempt.  Both then run one loop, which
differs only in how an attempt chooses U and in its attempt budget.
The loop first reduces the whole instance once, the root (below); a
root no answers every attempt no, so the run reports no with its whole
budget decided and no U drawn.  Otherwise each attempt chooses U,
draws one weight per edge meeting U at most twice (no cover edge meets
it more often when U is good), in edge order, and sieves the
root-kept edges that drew one (below).  A nonzero sum ends the run
with yes; a run that spends its budget answers no.  solve_xkc knows no
partition: its U is a random sample of round(t*n) vertices (t from the
exponent optimizer), and its budget is ceil(ln(1/eps)/p).  solve_kdm
fixes U to partition blocks 0 and 1, which every edge meets exactly
twice, so every edge draws, and its budget is 1: one attempt of
nominally 2^(n(k-2)/k) probes decides the instance.  Answers are one
sided: yes is always backed by a nonzero certificate, or by a cover in
hand.

An attempt sieves through _sieve, on the components kept_components
finds.  The sieve adds up exact covers alone, so dropping an edge that
lies in no cover is exact.  _reduced drops such edges by the clash
rule of Knuth's exact-cover preprocessor, run to a fixpoint: an edge
that misses a vertex v but meets every edge through v is in no cover.
A vertex left in no edge answers no.  The kept edges then split into
connected components, two edges joined when they share a vertex.
Every cover is one cover per component, so the sieve total is the
product of the components' totals, and a component of n_i vertices, u_i
of them in U, costs 2^(n_i - u_i) probes on its own.  A component whose
vertex count is not a multiple of k, or whose partition blocks differ
in size, holds no cover and answers no.  A one-edge component is its
own cover and is not swept (its total would be a power of its weight).
Each larger one is relabelled 0.. in vertex order, with its partition
blocks and its part of U, and sieved at the weights of its edges; for
kdm that part of U is the component's blocks 0 and 1, so it gets the
bipartite probe.  The answer is yes iff every swept component's total
is nonzero; the first zero answers no.  When every component is one
edge, the kept edges are one exact cover and no sweep runs.

The clash rule is monotone under edge deletion: an edge it drops from
a set it drops from every subset holding it.  So a subset keeps only
edges the set keeps, the same ones whether reduced alone or within the
set's kept edges, a vertex the set leaves bare stays bare, and a
component whose vertex count is not a multiple of k does not split into
components that all are.  An attempt sieves a subset of the edges, so
the root's no holds for it.  The kept edges are the largest subset the
rule drops nothing from, so an attempt whose U drops no root-kept edge
keeps exactly the root's and sieves the root's components; any other
attempt reduces its root-kept edges again.

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
support has one; _sweep_kdm takes one b x b determinant of each such
X's live entries as it comes.  Each X is walked once, and every sweep
runs on the calling thread.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import reduce
from operator import or_, xor

from .gf2m import GF2m, field_for
from .hypergraph import Hypergraph, project, restrict_avoiding
from .hypergraph import validate  # unused; perfbench/tracing.py patches this name
from .linalg import determinant
from .matchweight import cover_weight
from .params import check_epsilon, optimize, repetitions


@dataclass
class SieveConfig:
    """Knobs shared by both solvers."""

    m: int = 64              # field degree, 8 or 64
    seed: int = 0            # master seed for U sampling and edge weights
    epsilon: float = 2.0 ** -20  # false-no budget of solve_xkc
    threads: int = 1         # accepted and checked, never read: every sweep runs on one thread

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        check_epsilon(self.epsilon)
        field_for(self.m)


@dataclass
class Decision:
    """Outcome of one solver run."""

    answer: str              # "yes" or "no"
    probes: int              # nominal X count, 2^|V - U| per attempt, skipped X included
    attempts: int            # U draws made, or the whole budget when the root refutes them all
    elapsed: float           # wall seconds
    reason: str | None = None   # yes: the check or the deciding attempt's cover in hand that
                                # made a sweep needless; no: the refuting check or root, or None
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


def _live_probes(view, masks, need, rest):
    """The general kernel's X, yielded as _walk reaches them: those whose
    live edges hold a family, the only X whose probe can be nonzero.
    Edge i (vertex bitmask masks[i]; a pair, loop or empty of the view)
    is live while it avoids X.  A family is `need` live edges meeting
    each U index 0..u-1 once: a perfect matching of U by pairs and
    i <= 2*need - u loops, plus need - (u + i)/2 empties (edges that
    miss U).

    An edge's death moves only its cell's live count.  The kernel keeps
    one witness family and searches again only when a witness cell
    empties or too few empties are left.  A family never reappears as X
    grows, so a failed search keeps the parent's witness and fails the
    zero test; backtracking keeps the witness.  A live edge is used when
    it lies in a family: the witness's cells are used, and so is every
    live empty when the witness holds one; any other cell costs one
    _family search with the cell forced in, at most once per X."""
    u = view.u_size
    top = 2 * need - u          # the most loops a family can use; below 0, no family
    full, empty = (1 << u) - 1, u * u
    cells = [empty] * len(masks)  # pair a < b: a*u + b; loop a: a*u + a; an empty: u*u
    for i, a, b in view.pairs:
        cells[i] = a * u + b
    for i, a in view.loops:
        cells[i] = a * u + a
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
    positions of its vertices in the partition blocks `left` and `right`."""
    lpos = {v: i for i, v in enumerate(left)}
    rpos = {v: i for i, v in enumerate(right)}
    entries = []
    for eid, (e, mk) in enumerate(zip(H.edges, H.edge_masks)):
        [row] = [lpos[v] for v in e if v in lpos]
        [col] = [rpos[v] for v in e if v in rpos]
        entries.append((mk, eid, row, col))
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
    """The X of _walk whose live edges, those avoiding X, have a perfect
    matching on the b x b grid, yielded as the walk reaches them; none
    when the root support (X = {}) has none.  The walk reads the support
    alone, never a weight.

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
    made at most once per column and X."""
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


def _sweep_kdm(entries, b, weights, gf, xs):
    """XOR of the b x b bipartite determinants at the X in xs.

    Row r is the r-th vertex of the left block of the entries' pair and
    column c the c-th of its right block; X's (r, c) entry XORs the
    weights of the live edges (those avoiding X) that join them.  Each X
    costs one determinant of its live {col: value} rows.
    """
    def probe(x):
        rows = [{} for _ in range(b)]
        for mk, eid, r, c in entries:
            if not mk & x:
                rows[r][c] = rows[r].get(c, 0) ^ weights[eid]
        return determinant(rows, gf)

    return reduce(xor, map(probe, xs), 0)


def sieve_decide(H: Hypergraph, u_vertices, weights, gf: GF2m) -> int:
    """Summed cover weight at the given edge weights; nonzero proves a
    cover exists.  Requires every edge to meet U at most twice.

    When H carries a partition and U is exactly its blocks 0 and 1, each
    X whose live support has a perfect matching is probed by one
    bipartite determinant between blocks 0 and 1 (_sweep_kdm), and the
    result is the square of their XOR.  Otherwise each probe is
    cover_weight on the edges avoiding X.  All give the same element.
    The X are walked once and probed as they come, never listed.
    """
    if len(weights) != len(H.edges):
        raise ValueError(f"{len(weights)} weights for {len(H.edges)} edges")
    if H.n == 0 or H.n % H.k != 0:
        raise ValueError("vertex count must be a positive multiple of k")
    u_vertices = set(u_vertices)
    p = H.partition
    if p is not None and u_vertices == set(p[0]) | set(p[1]):
        entries = _bipartite_entries(H, p[0], p[1])
        rest = ((1 << H.n) - 1) ^ sum(1 << v for v in u_vertices)
        b = H.n // H.k
        total = _sweep_kdm(entries, b, weights, gf, _matchable_probes(entries, b, rest))
        return gf.mul(total, total)
    view = project(H, u_vertices)
    rest = ((1 << H.n) - 1) ^ view.u_mask
    xs = _live_probes(view, H.edge_masks, H.n // H.k, rest)
    return reduce(xor, (cover_weight(restrict_avoiding(view, H, x), weights, H.n, H.k, gf)
                        for x in xs), 0)


def _components(masks, ids) -> list[list[int]]:
    """The connected components of the edges `ids`, edge i of vertex
    bitmask masks[i], two edges joined when they share a vertex: each an
    increasing list of edge ids, the lists ordered by their first id.
    Each edge in turn merges the components it meets."""
    parts = []                  # (vertex bitmask, edge ids) of the components so far
    for i in ids:
        mk, joined, apart = masks[i], [i], []
        for part in parts:
            if part[0] & mk:
                mk |= part[0]
                joined += part[1]
            else:
                apart.append(part)
        apart.append((mk, joined))
        parts = apart
    parts.sort(key=lambda part: min(part[1]))
    return [sorted(joined) for _, joined in parts]


def _reduced(edges, n) -> list[int] | None:
    """The indices, increasing, of the edges (vertex tuples) `edges`
    that the clash rule keeps, or None when it leaves a vertex of 0..n-1
    in no edge; every edge of every exact cover is kept.  Edge sets are
    bitmasks of edge indices: through[v] holds the edges through vertex
    v, meets[i] those that meet edge i.  Run to a fixpoint: a live edge
    that misses v but meets every live edge through v lies in no cover,
    since the cover's edge through v would meet it (the clash rule of
    Knuth's exact-cover preprocessor, TAOCP 7.2.2.1).  With one live
    edge through v, that edge is forced (as in Knuth's Algorithm X) and
    the rule drops every edge meeting it."""
    through = [0] * n
    for i, e in enumerate(edges):
        for v in e:
            through[v] |= 1 << i
    meets = [reduce(or_, map(through.__getitem__, e)) for e in edges]
    live = (1 << len(edges)) - 1
    dropped = True
    while dropped:
        dropped = False
        for t in through:
            t &= live
            if not t:
                return None
            clash = live & ~t   # the live edges outside t that meet every edge of t
            while t and clash:
                low = t & -t
                t ^= low
                clash &= meets[low.bit_length() - 1]
            if clash:
                live ^= clash
                dropped = True
    return [i for i in range(len(edges)) if live >> i & 1]


def _component(H: Hypergraph, ids, u_vertices) -> tuple[Hypergraph, list[int]]:
    """The instance of H's edges `ids` on the vertices they hold,
    relabelled 0.. in increasing order, with each partition block cut to
    those vertices in its own order, and the vertices of U it holds,
    relabelled."""
    label = {v: i for i, v in enumerate(sorted({v for e in ids for v in H.edges[e]}))}
    blocks = None if H.partition is None else [
        tuple(label[v] for v in block if v in label) for block in H.partition]
    return (Hypergraph(len(label), H.k, [tuple(label[v] for v in H.edges[e]) for e in ids], blocks),
            [label[v] for v in u_vertices if v in label])


def kept_components(H: Hypergraph, ids) -> tuple[list[list[int]] | None, str | None]:
    """The components, as increasing lists of edge ids, of the edges
    among H's edges `ids` that _reduced keeps; or None and the reason
    when the rules of the module docstring find they hold no cover."""
    kept = _reduced([H.edges[e] for e in ids], H.n)
    if kept is None:
        return None, "clash: a vertex lies in no edge that the clash rule keeps"
    parts = _components(H.edge_masks, [ids[j] for j in kept])
    blocks = [sum(1 << v for v in block) for block in H.partition or ()]
    for part in parts:
        mk = reduce(or_, (H.edge_masks[e] for e in part))
        if mk.bit_count() % H.k or len({(mk & block).bit_count() for block in blocks}) > 1:
            return None, (f"component: no edges cover the {mk.bit_count()} vertices "
                          f"of a component of the kept edges exactly")
    return parts, None


def _sieve(H: Hypergraph, u_vertices, parts, weights, gf: GF2m) -> tuple[bool, str | None]:
    """Whether the components `parts` of kept_components, at weight
    weights[e] for edge e, hold an exact cover as far as the sieve on U
    can tell, and the reason when no sweep was needed: one sieve_decide
    per component of more than one edge.  Every edge of `parts` must
    meet U at most twice."""
    swept = [part for part in parts if len(part) > 1]    # a one-edge component is its own cover
    if not swept:
        return True, "clash: the kept edges are one exact cover"
    for part in swept:
        C, u = _component(H, part, u_vertices)
        if not sieve_decide(C, u, [weights[e] for e in part], gf):
            return False, None
    return True, None


def _solve(H: Hypergraph, cfg: SieveConfig | None, partitioned: bool) -> Decision:
    """The checks of both solvers, the root reduction, then the attempt
    loop (see the module docstring)."""
    t0 = time.perf_counter()
    cfg = cfg or SieveConfig()
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
    root, reason = kept_components(H, range(len(H.edges)))
    if root is None:            # each attempt would answer no (see the module docstring)
        return Decision("no", max_attempts << (n - tn), max_attempts, time.perf_counter() - t0,
                        reason=reason, u_fraction=tn / n, max_attempts=max_attempts)
    kept = [e for part in root for e in part]
    blocks = [*H.partition[0], *H.partition[1]] if partitioned else None
    for attempt in range(1, max_attempts + 1):
        u_vertices = blocks or sorted(rng.sample(range(n), tn))
        u_mask = sum(1 << v for v in u_vertices)
        # each edge meeting U at most twice draws, root-kept or not, so the
        # random stream does not depend on the reduction
        weights = [gf.sample(rng) if (mk & u_mask).bit_count() <= 2 else None
                   for mk in H.edge_masks]
        ids = [e for e in kept if weights[e] is not None]
        parts = root if len(ids) == len(kept) else kept_components(H, ids)[0]
        if parts is not None:
            yes, reason = _sieve(H, u_vertices, parts, weights, gf)
            if yes:
                return Decision("yes", attempt << (n - tn), attempt, time.perf_counter() - t0,
                                reason=reason, u_fraction=tn / n, max_attempts=max_attempts)
    return Decision("no", max_attempts << (n - tn), max_attempts, time.perf_counter() - t0,
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
