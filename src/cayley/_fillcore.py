"""Pure-Python kernel for the exhaustive Cayley-table search.

The search fills an n x n table by backtracking with element 0 fixed as the
identity. Branching happens only on cells in the rows of generator
elements, visited in discovery order; every other cell is forced by
constraint propagation (Latin-square exclusion plus incremental
associativity on all triples whose value becomes determined).

Symmetry is reduced by a discovery-order canonical form: element 1 is
constrained to have order p (the smallest prime factor of n, an order that
occurs in every group of order n) with its powers labeled 1..p-1, and each
later element receives the next free label at the moment the search first
produces it, either as a new generator after the previous rows close up or
as a fresh product value. Every isomorphism class is reached this way, once
per generating sequence; surviving duplicates are removed afterwards by the
isomorphism-search deduplication pass.

Propagation computes the closure of the partial table under four
associativity rules, one for each role a newly set cell a*b = v can play
in a triple. Every cell it sets goes on the trail and is processed after
it is set, and processing checks every triple the cell takes part in
against the cells known at that moment. A check that misses a cell set
later is therefore repeated when that cell is processed, so whether
propagation fails, and the fixpoint it reaches when it does not, do not
depend on the order of the checks or on how the table is stored. Only the
closure decides the branching, the leaves, their order and the node count.

Once every cell is set, propagation stops and returns Light's criterion
on the complete table over the generators instead of processing the rest
of the trail, which reaches the same closure. A complete table can set
no cell, so the rest of the trail could only find a violated triple. Each
triple is checked when the last of its cells is processed, so a violated
triple still has that cell ahead on the trail, and the rest of the trail
fails exactly when some triple fails. Every label is a product of a
generator and an earlier label (the label 1 cycle included), so the
elements a with (x*a)*y = x*(a*y) for all x, y, a set that contains 0 and
is closed under products, are all of them as soon as they contain the
generators: the criterion decides associativity exactly.

This is the reference kernel. The C extension _fillcore_c, built from
_fillcore.c with the same functions, applies the same rules to reach the
same closure with the same branching, and so must return identical
tables in the same order with the same node count; the backend-parity
test compiles it and compares the two.
"""

from __future__ import annotations

MAX_KERNEL_ORDER = 64  # bitmask width in the compiled kernel

# The partial table is stored as byte rows of stride 256, so that a row
# is a bytes.translate table; 255 marks an unknown entry and maps to
# itself, which needs every label below 255.
_STRIDE = 256
_UNKNOWN = 255


def smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def associative(rows: bytearray, row: list, gens: list[int], n: int) -> bool:
    """Light's criterion on a complete table of order n, stored as byte
    rows of stride _STRIDE with row[x] a view of row x: (x*g)*y = x*(g*y)
    for every generator g and all x, y, one row comparison per (g, x)."""
    W = _STRIDE
    for g in gens:
        grow = rows[g * W : g * W + n]
        for x in range(n):
            xg = rows[x * W + g] * W
            if rows[xg : xg + n] != grow.translate(row[x]):
                return False
    return True


def enumerate_group_tables(n: int) -> tuple[list[tuple[int, ...]], int]:
    """All group tables of order n reached by the canonical search.

    Returns (tables, nodes): row-major tables in deterministic search
    order (complete up to isomorphism, possibly with isomorphic
    duplicates), and the number of decision nodes explored.
    """
    if not 1 <= n <= MAX_KERNEL_ORDER:
        raise ValueError(f"order must be in 1..{MAX_KERNEL_ORDER}")
    if n == 1:
        return [(0,)], 1

    W, U = _STRIDE, _UNKNOWN
    # The partial table x*y = v four times over, so that each rule reads
    # the entries it compares from contiguous rows: rows[x*W + y] = v,
    # cols[y*W + x] = v, and the quotients left[v*W + x] = y and
    # right[v*W + y] = x. v is already in row x iff left[v*W + x] is
    # known, and in column y iff right[v*W + y] is.
    rows = bytearray([U]) * (n * W)
    cols = bytearray([U]) * (n * W)
    left = bytearray([U]) * (n * W)
    right = bytearray([U]) * (n * W)
    # Row x and column y as translate tables, without a copy per use.
    row = [memoryview(rows)[x * W : x * W + W] for x in range(n)]
    col = [memoryview(cols)[y * W : y * W + W] for y in range(n)]
    cells = [(a, b) for a in range(n) for b in range(n)]
    full = len(cells)
    trail: list[tuple[int, int]] = []
    gens: list[int] = []
    scan_u: list[int] = []
    scan_g: list[int] = []
    leaves: list[tuple[int, ...]] = []
    nlab = 0
    nodes = 0

    def set_cell(a: int, b: int, v: int) -> bool:
        cur = rows[a * W + b]
        if cur == v:
            return True
        if cur != U or left[v * W + a] != U or right[v * W + b] != U:
            return False
        rows[a * W + b] = v
        cols[b * W + a] = v
        left[v * W + a] = b
        right[v * W + b] = a
        trail.append(cells[a * n + b])
        return True

    def unwind(mark: int) -> None:
        for a, b in trail[mark:]:
            v = rows[a * W + b]
            rows[a * W + b] = U
            cols[b * W + a] = U
            left[v * W + a] = U
            right[v * W + b] = U
        del trail[mark:]

    def propagate(start: int) -> bool:
        """Close the trail suffix under the associativity rules.

        Each rule compares a slice of v's entries (have) with the entries
        the cell a*b = v forces there (want), taken when the cell's
        processing starts; only labels where the two differ need work.
        A stale slice can only miss a cell set later, which is still
        ahead on the trail, and set_cell re-reads the live table, so a
        conflict is never masked (see the module docstring).
        """
        labels = range(nlab)
        i = start
        while i < len(trail):
            if len(trail) == full:
                return associative(rows, row, gens, n)
            a, b = trail[i]
            i += 1
            aw, bw = a * W, b * W
            v = rows[aw + b]
            vw = v * W
            # (a*b)*k = a*(b*k): row v is row b mapped through row a.
            have = rows[vw : vw + nlab]
            want = rows[bw : bw + nlab].translate(row[a])
            if have != want:
                for k, x, y in zip(labels, have, want):
                    if x == y:
                        continue
                    if x == U:
                        if not set_cell(v, k, y):
                            return False
                    elif y != U:
                        return False
                    else:
                        z = rows[bw + k]
                        if z != U and not set_cell(a, z, x):
                            return False
            # (i*a)*b = i*(a*b): column v is column a mapped through column b.
            have = cols[vw : vw + nlab]
            want = cols[aw : aw + nlab].translate(col[b])
            if have != want:
                for i2, x, y in zip(labels, have, want):
                    if x == y:
                        continue
                    if x == U:
                        if not set_cell(i2, v, y):
                            return False
                    elif y != U:
                        return False
                    else:
                        w = cols[aw + i2]
                        if w != U and not set_cell(w, b, x):
                            return False
            # This cell as outer product: i*j = a, so a*b = i*(j*b).
            have = left[vw : vw + nlab]
            want = left[aw : aw + nlab].translate(col[b])
            if have != want:
                for i2, x, y in zip(labels, have, want):
                    if x != y and y != U and not set_cell(i2, y, v):
                        return False
            # This cell as inner product: j*k = b, so a*b = (a*j)*k.
            have = right[vw : vw + nlab]
            want = right[bw : bw + nlab].translate(row[a])
            if have != want:
                for k2, x, y in zip(labels, have, want):
                    if x != y and y != U and not set_cell(y, k2, v):
                        return False
        return True

    def create_label() -> int:
        nonlocal nlab
        c = nlab
        nlab = c + 1
        set_cell(0, c, c)
        set_cell(c, 0, c)
        for g in gens:
            scan_u.append(c)
            scan_g.append(g)
        return c

    def add_generator() -> None:
        c = create_label()
        gens.append(c)
        for u in range(nlab):
            scan_u.append(u)
            scan_g.append(c)

    def search(qi: int) -> None:
        nonlocal nlab, nodes
        while qi < len(scan_u):
            g = scan_g[qi]
            u = scan_u[qi]
            if rows[g * W + u] != U:
                qi += 1
                continue
            labeled = nlab
            for v in range(labeled):
                if left[v * W + g] != U or right[v * W + u] != U:
                    continue
                nodes += 1
                mark = len(trail)
                if set_cell(g, u, v) and propagate(mark):
                    search(qi + 1)
                unwind(mark)
            if labeled < n:
                nodes += 1
                mark = len(trail)
                glen, slen = len(gens), len(scan_u)
                c = create_label()
                if set_cell(g, u, c) and propagate(mark):
                    search(qi + 1)
                unwind(mark)
                nlab = labeled
                del gens[glen:]
                del scan_u[slen:]
                del scan_g[slen:]
            return
        labeled = nlab
        if labeled == n:
            # Propagation provably completes every row once the generator
            # rows close; the hole branch below is a backstop so that
            # search completeness never rests on propagation strength.
            table = b"".join(row[x][:n] for x in range(n))
            if U not in table:
                leaves.append(tuple(table))
                return
            a, b = cells[table.index(U)]
            for v in range(n):
                if left[v * W + a] != U or right[v * W + b] != U:
                    continue
                nodes += 1
                mark = len(trail)
                if set_cell(a, b, v) and propagate(mark):
                    search(qi)
                unwind(mark)
            return
        # The labeled set is a complete proper subgroup: its order must
        # divide n and the next closure at least doubles it.
        if n % labeled != 0 or labeled * 2 > n:
            return
        mark = len(trail)
        glen, slen = len(gens), len(scan_u)
        add_generator()
        if propagate(mark):
            search(qi)
        unwind(mark)
        nlab = labeled
        del gens[glen:]
        del scan_u[slen:]
        del scan_g[slen:]

    # Identity, then the forced C_p cycle on element 1.
    create_label()
    add_generator()
    p = smallest_prime_factor(n)
    for _ in range(2, p):
        create_label()
    ok = True
    for k in range(1, p - 1):
        ok = ok and set_cell(1, k, k + 1)
    ok = ok and set_cell(1, p - 1, 0)
    if not ok or not propagate(0):
        raise AssertionError("canonical prefix is inconsistent")
    search(0)
    # search refers to itself; breaking that cycle frees the search state
    # (every leaf table, the trail) now, not at the next full collection.
    del search
    return leaves, nodes
