"""Pure-Python k-coloring backtracking kernel.

Same contract as the compiled `_colorcore` extension: DSATUR vertex
selection (Brélaz 1979), optional fixed assignments, optional color
symmetry breaking, and a hard node budget.  `kdiameter.coloring` picks
whichever implementation imports.

The search visits the same nodes in the same order as the C kernel
`_colorcore.c`, node for node, with the per-node work done on bitsets:

- Vertices are ranked once per call by (-degree, index).  A vertex's
  neighborhood is re-encoded as a bitset of ranks the first time it is
  colored, so a search that ends after a few nodes never pays for the
  whole graph.
- `buckets[s]` holds the ranks of the uncolored vertices of saturation s
  (the number of distinct colors among their colored neighbors), for
  s = 0..k.  The next vertex is the lowest rank in the highest non-empty
  bucket: the maximum of (saturation, degree, -index), as in the compiled
  kernel's `pick`.
- `seen[c]` holds the ranks with a neighbor of color c.  Coloring a vertex
  c moves its uncolored neighbors outside `seen[c]` up one bucket; undoing
  it moves the same set down again and restores `seen[c]` from the stack.

The search runs on an explicit stack, so graph size is not limited by the
interpreter's recursion limit.
"""

BACKEND = "python"

MODE_FIRST = 0
MODE_ENUMERATE = 1

STATUS_OK = 0
STATUS_BUDGET = 1


def search(adj, k, fixed=None, mode=MODE_FIRST, budget=10**9):
    """Backtracking search over proper k-colorings.

    adj    -- list of neighbor bitsets (int), one per vertex
    fixed  -- per-vertex preassigned color, or -1 or None for a free vertex
    mode   -- MODE_FIRST returns the first proper coloring found;
              MODE_ENUMERATE collects colorings (canonical representatives
              under color permutation when nothing is fixed)
    budget -- node budget; exceeding it aborts with STATUS_BUDGET

    Returns (status, payload, nodes): payload is a coloring list or None in
    first mode, a list of colorings in enumerate mode.
    """
    n = len(adj)
    empty = None if mode == MODE_FIRST else []
    colors = [-1] * n
    symmetry = True
    if fixed is not None:
        for v, c in enumerate(fixed):
            if c is None or c < 0:
                continue
            if c >= k:
                return STATUS_OK, empty, 0
            symmetry = False
            colors[v] = c

    # a stable sort, so vertices of equal degree keep their index order
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    rank_bit = [0] * n
    for r, v in enumerate(order):
        rank_bit[v] = 1 << r
    nbrs = [-1] * n

    def neighbors(r):
        """The neighbors of rank r as a bitset of ranks, built on first use."""
        nb, x = adj[order[r]], 0
        while nb:
            low = nb & -nb
            x |= rank_bit[low.bit_length() - 1]
            nb ^= low
        nbrs[r] = x
        return x

    seen = [0] * k
    classes = [0] * k
    for r, v in enumerate(order):
        if colors[v] >= 0:
            seen[colors[v]] |= neighbors(r)
            classes[colors[v]] |= 1 << r
    # a fixed vertex next to one of its own color: nothing to search
    if any(seen[c] & classes[c] for c in range(k)):
        return STATUS_OK, empty, 0
    free = (1 << n) - 1 - sum(classes)
    buckets = [free] + [0] * k
    for c in range(k):
        for s in reversed(range(c + 1)):
            m = buckets[s] & seen[c]
            buckets[s] ^= m
            buckets[s + 1] |= m

    full = (1 << k) - 1
    used = max(colors, default=-1) + 1
    depth, nfree = 0, free.bit_count()
    # one frame per colored free vertex: its rank, its bucket, the colors
    # left to try, its color (-1 before the first), the ranks its color
    # moved up a bucket, the `seen` it replaced, and `used` before it
    f_rank, f_level, f_avail, f_color, f_moved, f_seen, f_used = (
        [0] * nfree for _ in range(7))
    nodes = 0
    found = []
    while True:
        if depth == nfree:
            found.append(list(colors))
            if mode == MODE_FIRST:
                break
        else:
            s = k
            while not buckets[s]:
                s -= 1
            bit = buckets[s] & -buckets[s]
            avail = full
            for c in range(k):
                if seen[c] & bit:
                    avail ^= 1 << c
            if symmetry:
                avail &= (1 << min(k, used + 1)) - 1
            buckets[s] ^= bit
            free ^= bit
            f_rank[depth] = bit.bit_length() - 1
            f_level[depth], f_avail[depth] = s, avail
            f_color[depth], f_used[depth] = -1, used
            depth += 1
        while depth:
            d = depth - 1
            c = f_color[d]
            if c >= 0:
                seen[c] = f_seen[d]
                moved, s = f_moved[d], 1
                while moved:
                    m = buckets[s] & moved
                    if m:
                        buckets[s] ^= m
                        buckets[s - 1] |= m
                        moved ^= m
                    s += 1
            avail = f_avail[d]
            if not avail:
                bit = 1 << f_rank[d]
                buckets[f_level[d]] |= bit
                free |= bit
                depth = d
                continue
            low = avail & -avail
            c = low.bit_length() - 1
            f_avail[d] = avail ^ low
            nodes += 1
            if nodes > budget:
                return STATUS_BUDGET, None if mode == MODE_FIRST else found, nodes
            r = f_rank[d]
            f_color[d] = c
            colors[order[r]] = c
            nb = nbrs[r]
            if nb < 0:
                nb = neighbors(r)
            old = seen[c]
            f_seen[d] = old
            seen[c] = old | nb
            moved = nb & free & ~old
            f_moved[d], s = moved, k - 1
            while moved:
                m = buckets[s] & moved
                if m:
                    buckets[s] ^= m
                    buckets[s + 1] |= m
                    moved ^= m
                s -= 1
            used = max(f_used[d], c + 1)
            break
        else:
            break

    if mode == MODE_FIRST:
        return STATUS_OK, (found[0] if found else None), nodes
    return STATUS_OK, found, nodes
