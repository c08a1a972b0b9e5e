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

This is the reference kernel. The C extension _fillcore_c, built from
_fillcore.c with the same functions, implements the identical algorithm
and must return identical tables in the same order with the same node
count; the backend-parity test compiles it and compares the two.
"""

from __future__ import annotations

MAX_KERNEL_ORDER = 64  # bitmask width in the compiled kernel


def smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


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

    size = n * n
    table = [-1] * size
    rowmask = [0] * n
    colmask = [0] * n
    fact: list[list[int]] = [[] for _ in range(n)]
    trail: list[int] = []
    gens: list[int] = []
    scan_u: list[int] = []
    scan_g: list[int] = []
    leaves: list[tuple[int, ...]] = []
    state = {"nlab": 0, "nodes": 0}

    def set_cell(a: int, b: int, v: int) -> bool:
        idx = a * n + b
        cur = table[idx]
        if cur == v:
            return True
        if cur != -1:
            return False
        bit = 1 << v
        if rowmask[a] & bit or colmask[b] & bit:
            return False
        table[idx] = v
        rowmask[a] |= bit
        colmask[b] |= bit
        fact[v].append(idx)
        trail.append(idx)
        return True

    def unwind(mark: int) -> None:
        while len(trail) > mark:
            idx = trail.pop()
            v = table[idx]
            table[idx] = -1
            a, b = divmod(idx, n)
            bit = 1 << v
            rowmask[a] ^= bit
            colmask[b] ^= bit
            fact[v].pop()

    def propagate(start: int) -> bool:
        """Close the trail suffix under the associativity rules."""
        i = start
        nlab = state["nlab"]
        while i < len(trail):
            idx = trail[i]
            i += 1
            a, b = divmod(idx, n)
            v = table[idx]
            rowa = a * n
            rowb = b * n
            rowv = v * n
            # (a*b)*k = a*(b*k) for known b*k.
            for k in range(nlab):
                z = table[rowb + k]
                if z == -1:
                    continue
                x1 = table[rowv + k]
                x2 = table[rowa + z]
                if x1 == -1:
                    if x2 != -1 and not set_cell(v, k, x2):
                        return False
                elif x2 == -1:
                    if not set_cell(a, z, x1):
                        return False
                elif x1 != x2:
                    return False
            # (i2*a)*b = i2*(a*b) for known i2*a.
            for i2 in range(nlab):
                y = table[i2 * n + a]
                if y == -1:
                    continue
                x1 = table[y * n + b]
                x2 = table[i2 * n + v]
                if x1 == -1:
                    if x2 != -1 and not set_cell(y, b, x2):
                        return False
                elif x2 == -1:
                    if not set_cell(i2, v, x1):
                        return False
                elif x1 != x2:
                    return False
            # This cell as outer product: i2*j2 = a, so a*b = i2*(j2*b).
            for packed in fact[a]:
                i2, j2 = divmod(packed, n)
                z = table[j2 * n + b]
                if z == -1:
                    continue
                x1 = table[i2 * n + z]
                if x1 == -1:
                    if not set_cell(i2, z, v):
                        return False
                elif x1 != v:
                    return False
            # This cell as inner product: j2*k2 = b, so a*b = (a*j2)*k2.
            for packed in fact[b]:
                j2, k2 = divmod(packed, n)
                w = table[rowa + j2]
                if w == -1:
                    continue
                x1 = table[w * n + k2]
                if x1 == -1:
                    if not set_cell(w, k2, v):
                        return False
                elif x1 != v:
                    return False
        return True

    def create_label() -> int:
        c = state["nlab"]
        state["nlab"] = c + 1
        set_cell(0, c, c)
        set_cell(c, 0, c)
        for g in gens:
            scan_u.append(c)
            scan_g.append(g)
        return c

    def add_generator() -> None:
        c = create_label()
        gens.append(c)
        for u in range(state["nlab"]):
            scan_u.append(u)
            scan_g.append(c)

    def search(qi: int) -> None:
        while qi < len(scan_u):
            g = scan_g[qi]
            u = scan_u[qi]
            if table[g * n + u] != -1:
                qi += 1
                continue
            nlab = state["nlab"]
            forbidden = rowmask[g] | colmask[u]
            for v in range(nlab):
                if forbidden >> v & 1:
                    continue
                state["nodes"] += 1
                mark = len(trail)
                if set_cell(g, u, v) and propagate(mark):
                    search(qi + 1)
                unwind(mark)
            if nlab < n:
                state["nodes"] += 1
                mark = len(trail)
                glen, slen = len(gens), len(scan_u)
                c = create_label()
                if set_cell(g, u, c) and propagate(mark):
                    search(qi + 1)
                unwind(mark)
                state["nlab"] = nlab
                del gens[glen:]
                del scan_u[slen:]
                del scan_g[slen:]
            return
        nlab = state["nlab"]
        if nlab == n:
            # Propagation provably completes every row once the generator
            # rows close; the hole branch below is a backstop so that
            # search completeness never rests on propagation strength.
            hole = -1
            for idx in range(size):
                if table[idx] == -1:
                    hole = idx
                    break
            if hole == -1:
                leaves.append(tuple(table))
                return
            a, b = divmod(hole, n)
            forbidden = rowmask[a] | colmask[b]
            for v in range(n):
                if forbidden >> v & 1:
                    continue
                state["nodes"] += 1
                mark = len(trail)
                if set_cell(a, b, v) and propagate(mark):
                    search(qi)
                unwind(mark)
            return
        # The labeled set is a complete proper subgroup: its order must
        # divide n and the next closure at least doubles it.
        if n % nlab != 0 or nlab * 2 > n:
            return
        mark = len(trail)
        glen, slen = len(gens), len(scan_u)
        add_generator()
        if propagate(mark):
            search(qi)
        unwind(mark)
        state["nlab"] = nlab
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
    return leaves, state["nodes"]
