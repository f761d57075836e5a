"""Pure-Python k-coloring backtracking kernel.

Same contract as the compiled `_colorcore` extension: DSATUR vertex
selection (Brélaz 1979), optional fixed assignments, optional color
symmetry breaking, and a hard node budget.  `kdiameter.coloring` picks
whichever implementation imports.

The search visits the same nodes in the same order as the C kernel
`_colorcore.c`, node for node, with the per-node work done on bitsets of
the caller's vertex numbers, so coloring v reads `adj[v]` as it is:

- `buckets[s]` holds the uncolored vertices of saturation s (the number of
  distinct colors among their colored neighbors), for s = 0..k.
- The degree tiers, built once per call, hold one bitset of vertices per
  distinct degree, highest degree first.  The next vertex is the lowest
  bit of the first tier that meets the highest non-empty bucket: the
  maximum of (saturation, degree, -index), as in the compiled kernel's
  `pick`.  That scans at most one mask per distinct degree at each node,
  where `pick` scans all n vertices.
- `seen[c]` holds the vertices with a neighbor of color c.  Coloring a
  vertex c moves its uncolored neighbors outside `seen[c]` up one bucket;
  undoing it moves the same set down again and restores `seen[c]` from the
  stack.

The search runs on an explicit stack, so graph size is not limited by the
interpreter's recursion limit.  Each colored vertex has one frame, a list
of its vertex, bucket, colors left to try, color, the vertices that color
moved up, the `seen` it replaced and `used` before it.  The step that
picks a vertex colors it with its first color at once, and a vertex of
saturation k, which has no color left, is never pushed: the search
backtracks as the C kernel does when its frame is popped without a node.
"""

BACKEND = "python"

MODE_FIRST = 0
MODE_ENUMERATE = 1

STATUS_OK = 0
STATUS_BUDGET = 1


def search(adj, k, fixed=None, mode=MODE_FIRST, budget=10**9):
    """Backtracking search over proper k-colorings.

    adj    -- sequence of neighbor bitsets (int), one per vertex
    fixed  -- per-vertex preassigned color, or -1 or None for a free vertex
    mode   -- MODE_FIRST returns the first proper coloring found;
              MODE_ENUMERATE collects colorings (canonical representatives
              under color permutation when nothing is fixed)
    budget -- node budget; exceeding it aborts with STATUS_BUDGET

    Returns (status, payload, nodes): payload is a coloring list or None in
    first mode, a list of colorings in enumerate mode.  Raises ValueError,
    as the C kernel does, for a negative k or a row with a bit outside the
    graph.
    """
    n = len(adj)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if n and (min(adj) < 0 or max(adj) >> n):
        v = next(v for v, row in enumerate(adj) if row < 0 or row >> n)
        raise ValueError(f"adjacency row {v} is not a bitset of vertices 0..{n - 1}")
    empty = None if mode == MODE_FIRST else []
    colors = [-1] * n
    seen = [0] * k
    classes = [0] * k
    symmetry = True
    if fixed is not None:
        for v, c in enumerate(fixed):
            if c is None or c < 0:
                continue
            if c >= k:
                return STATUS_OK, empty, 0
            symmetry = False
            colors[v] = c
            seen[c] |= adj[v]
            classes[c] |= 1 << v
    # a fixed vertex next to one of its own color: nothing to search
    if any(seen[c] & classes[c] for c in range(k)):
        return STATUS_OK, empty, 0

    by_degree = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    tiers = [by_degree[d] for d in sorted(by_degree, reverse=True)]

    free = (1 << n) - 1 - sum(classes)
    buckets = [free] + [0] * k
    for c in range(k):
        for s in reversed(range(c + 1)):
            m = buckets[s] & seen[c]
            buckets[s] ^= m
            buckets[s + 1] |= m

    full = (1 << k) - 1
    used = max(colors, default=-1) + 1
    nfree = free.bit_count()
    # one frame per colored free vertex: [vertex, its bucket, the colors
    # left to try, its color, the vertices its color moved up a bucket, the
    # `seen` that color replaced, `used` before it]
    frames = []
    nodes = 0
    found = []
    while True:
        s = k
        if len(frames) == nfree:
            found.append(list(colors))
            if mode == MODE_FIRST:
                break
        else:
            while not buckets[s]:
                s -= 1
        if s < k:
            # the next vertex, colored at once; a vertex of saturation k
            # would be a dead end, so it is never pushed
            top = buckets[s]
            for t in tiers:
                m = top & t
                if m:
                    break
            bit = m & -m
            avail = full
            if s:
                for c in range(k):
                    if seen[c] & bit:
                        avail ^= 1 << c
            if symmetry:
                avail &= (1 << min(k, used + 1)) - 1
            buckets[s] ^= bit
            free ^= bit
            v, before = bit.bit_length() - 1, used
            frames.append(None)   # its frame, written as it is colored below
        else:
            # backtrack: undo the top frame's color, popping the frames with
            # no color left to try
            while frames:
                v, s, avail, c, moved, old, before = frames[-1]
                seen[c] = old
                level = 1
                while moved:
                    m = buckets[level] & moved
                    if m:
                        buckets[level] ^= m
                        buckets[level - 1] |= m
                        moved ^= m
                    level += 1
                if avail:
                    break
                bit = 1 << v
                buckets[s] |= bit
                free |= bit
                frames.pop()
            else:
                break
        # color the top frame's vertex with its lowest color left
        low = avail & -avail
        nodes += 1
        if nodes > budget:
            return STATUS_BUDGET, None if mode == MODE_FIRST else found, nodes
        c = low.bit_length() - 1
        colors[v] = c
        nb = adj[v]
        old = seen[c]
        seen[c] = old | nb
        moved = nb & free & ~old
        frames[-1] = [v, s, avail ^ low, c, moved, old, before]
        s = k - 1
        while moved:
            m = buckets[s] & moved
            if m:
                buckets[s] ^= m
                buckets[s + 1] |= m
                moved ^= m
            s -= 1
        used = before if c < before else c + 1

    if mode == MODE_FIRST:
        return STATUS_OK, (found[0] if found else None), nodes
    return STATUS_OK, found, nodes
