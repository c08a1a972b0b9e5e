/* Compiled kernel for the exhaustive Cayley-table search.

   The contract with the pure-Python kernel in _fillcore.py (see its
   module docstring for the search, the canonical form and why the
   propagation order does not matter): the same four associativity rules
   and Latin exclusion, so the same closure after every decision; the
   same branching; and so the same tables in the same order with the
   same node count, which the backend-parity test checks. How each side
   stores the table and scans the rules is its own: here the table is an
   int16 array with a per-value list of cells, and row and column
   exclusion sets are uint64_t bitmasks, which limits the order to 64.

   Both kernels stop propagating once all n^2 cells are set and return
   Light's criterion on the complete table over the generators: a
   complete table can set no cell, a violated triple still has its
   last-set cell ahead on the trail, and every label is a product of
   generators, so the criterion fails exactly when the rest of the trail
   would (the full argument is in _fillcore.py).

   Built by setup.py as the optional module cayley._fillcore_c. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>

#define MAX_KERNEL_ORDER 64

typedef struct {
    int n, size, nlab, gens_len, scan_len, trail_len;
    long long nodes;
    int16_t *table;    /* row-major, -1 for an empty cell */
    uint64_t *rowmask; /* values already in each row */
    uint64_t *colmask; /* values already in each column */
    int *fact;         /* cells holding each value: capacity n per value */
    int *fact_cnt;
    int *trail;        /* cells in the order they were set */
    int *gens;
    int *scan_u;       /* cells g*u to decide, in discovery order */
    int *scan_g;
    PyObject *leaves;
} Search;

static int smallest_prime_factor(int n)
{
    for (int d = 2; d * d <= n; d++) {
        if (n % d == 0)
            return d;
    }
    return n;
}

static int set_cell(Search *s, int a, int b, int v)
{
    int idx = a * s->n + b;
    int cur = s->table[idx];
    uint64_t bit = (uint64_t)1 << v;
    if (cur == v)
        return 1;
    if (cur != -1)
        return 0;
    if ((s->rowmask[a] | s->colmask[b]) & bit)
        return 0;
    s->table[idx] = (int16_t)v;
    s->rowmask[a] |= bit;
    s->colmask[b] |= bit;
    s->fact[v * s->n + s->fact_cnt[v]++] = idx;
    s->trail[s->trail_len++] = idx;
    return 1;
}

static void unwind(Search *s, int mark)
{
    while (s->trail_len > mark) {
        int idx = s->trail[--s->trail_len];
        int v = s->table[idx];
        uint64_t bit = (uint64_t)1 << v;
        s->table[idx] = -1;
        s->rowmask[idx / s->n] ^= bit;
        s->colmask[idx % s->n] ^= bit;
        s->fact_cnt[v]--;
    }
}

/* Light's criterion on the complete table: (x*g)*y = x*(g*y) for every
   generator g and all x, y. */
static int associative(const Search *s)
{
    const int n = s->n;
    const int16_t *t = s->table;
    for (int j = 0; j < s->gens_len; j++) {
        const int16_t *grow = t + s->gens[j] * n;
        for (int x = 0; x < n; x++) {
            const int16_t *xrow = t + x * n, *xgrow = t + xrow[s->gens[j]] * n;
            for (int y = 0; y < n; y++) {
                if (xgrow[y] != xrow[grow[y]])
                    return 0;
            }
        }
    }
    return 1;
}

/* Close the trail suffix under the associativity rules. */
static int propagate(Search *s, int start)
{
    const int n = s->n, nlab = s->nlab;
    const int16_t *t = s->table;
    for (int i = start; i < s->trail_len; i++) {
        if (s->trail_len == s->size)
            return associative(s);
        int idx = s->trail[i];
        int a = idx / n, b = idx % n, v = t[idx];
        int rowa = a * n, rowb = b * n, rowv = v * n;
        /* (a*b)*k = a*(b*k) for known b*k. */
        for (int k = 0; k < nlab; k++) {
            int z = t[rowb + k];
            if (z == -1)
                continue;
            int x1 = t[rowv + k], x2 = t[rowa + z];
            if (x1 == -1) {
                if (x2 != -1 && !set_cell(s, v, k, x2))
                    return 0;
            } else if (x2 == -1) {
                if (!set_cell(s, a, z, x1))
                    return 0;
            } else if (x1 != x2) {
                return 0;
            }
        }
        /* (i2*a)*b = i2*(a*b) for known i2*a. */
        for (int i2 = 0; i2 < nlab; i2++) {
            int y = t[i2 * n + a];
            if (y == -1)
                continue;
            int x1 = t[y * n + b], x2 = t[i2 * n + v];
            if (x1 == -1) {
                if (x2 != -1 && !set_cell(s, y, b, x2))
                    return 0;
            } else if (x2 == -1) {
                if (!set_cell(s, i2, v, x1))
                    return 0;
            } else if (x1 != x2) {
                return 0;
            }
        }
        /* This cell as outer product: i2*j2 = a, so a*b = i2*(j2*b).
           The count is read on every pass, as the pure kernel iterates a
           list that set_cell may extend. */
        for (int f = 0; f < s->fact_cnt[a]; f++) {
            int packed = s->fact[a * n + f];
            int i2 = packed / n, j2 = packed % n;
            int z = t[j2 * n + b];
            if (z == -1)
                continue;
            int x1 = t[i2 * n + z];
            if (x1 == -1) {
                if (!set_cell(s, i2, z, v))
                    return 0;
            } else if (x1 != v) {
                return 0;
            }
        }
        /* This cell as inner product: j2*k2 = b, so a*b = (a*j2)*k2. */
        for (int f = 0; f < s->fact_cnt[b]; f++) {
            int packed = s->fact[b * n + f];
            int j2 = packed / n, k2 = packed % n;
            int w = t[rowa + j2];
            if (w == -1)
                continue;
            int x1 = t[w * n + k2];
            if (x1 == -1) {
                if (!set_cell(s, w, k2, v))
                    return 0;
            } else if (x1 != v) {
                return 0;
            }
        }
    }
    return 1;
}

static int create_label(Search *s)
{
    int c = s->nlab++;
    set_cell(s, 0, c, c);
    set_cell(s, c, 0, c);
    for (int g = 0; g < s->gens_len; g++) {
        s->scan_u[s->scan_len] = c;
        s->scan_g[s->scan_len] = s->gens[g];
        s->scan_len++;
    }
    return c;
}

static void add_generator(Search *s)
{
    int c = create_label(s);
    s->gens[s->gens_len++] = c;
    for (int u = 0; u < s->nlab; u++) {
        s->scan_u[s->scan_len] = u;
        s->scan_g[s->scan_len] = c;
        s->scan_len++;
    }
}

static int emit_leaf(Search *s)
{
    PyObject *leaf = PyTuple_New(s->size);
    if (leaf == NULL)
        return -1;
    for (int i = 0; i < s->size; i++) {
        PyObject *v = PyLong_FromLong(s->table[i]);
        if (v == NULL) {
            Py_DECREF(leaf);
            return -1;
        }
        PyTuple_SET_ITEM(leaf, i, v);
    }
    int rc = PyList_Append(s->leaves, leaf);
    Py_DECREF(leaf);
    return rc;
}

/* Returns 0, or -1 with a Python exception set. */
static int search(Search *s, int qi)
{
    const int n = s->n;
    int nlab, mark, glen, slen;
    uint64_t forbidden;
    while (qi < s->scan_len) {
        int g = s->scan_g[qi], u = s->scan_u[qi];
        if (s->table[g * n + u] != -1) {
            qi++;
            continue;
        }
        nlab = s->nlab;
        forbidden = s->rowmask[g] | s->colmask[u];
        for (int v = 0; v < nlab; v++) {
            if (forbidden >> v & 1)
                continue;
            s->nodes++;
            mark = s->trail_len;
            if (set_cell(s, g, u, v) && propagate(s, mark) && search(s, qi + 1) < 0)
                return -1;
            unwind(s, mark);
        }
        if (nlab < n) {
            s->nodes++;
            mark = s->trail_len;
            glen = s->gens_len;
            slen = s->scan_len;
            int c = create_label(s);
            if (set_cell(s, g, u, c) && propagate(s, mark) && search(s, qi + 1) < 0)
                return -1;
            unwind(s, mark);
            s->nlab = nlab;
            s->gens_len = glen;
            s->scan_len = slen;
        }
        return 0;
    }
    nlab = s->nlab;
    if (nlab == n) {
        /* Propagation completes every row once the generator rows close;
           the hole branch is a backstop, as in the pure kernel. */
        int hole = -1;
        for (int idx = 0; idx < s->size; idx++) {
            if (s->table[idx] == -1) {
                hole = idx;
                break;
            }
        }
        if (hole == -1)
            return emit_leaf(s);
        int a = hole / n, b = hole % n;
        forbidden = s->rowmask[a] | s->colmask[b];
        for (int v = 0; v < n; v++) {
            if (forbidden >> v & 1)
                continue;
            s->nodes++;
            mark = s->trail_len;
            if (set_cell(s, a, b, v) && propagate(s, mark) && search(s, qi) < 0)
                return -1;
            unwind(s, mark);
        }
        return 0;
    }
    /* The labeled set is a complete proper subgroup: its order must
       divide n and the next closure at least doubles it. */
    if (n % nlab != 0 || nlab * 2 > n)
        return 0;
    mark = s->trail_len;
    glen = s->gens_len;
    slen = s->scan_len;
    add_generator(s);
    if (propagate(s, mark) && search(s, qi) < 0)
        return -1;
    unwind(s, mark);
    s->nlab = nlab;
    s->gens_len = glen;
    s->scan_len = slen;
    return 0;
}

/* Identity, then the forced C_p cycle on element 1, then the search. */
static int run(Search *s)
{
    int n = s->n, p = smallest_prime_factor(n), ok = 1;
    create_label(s);
    add_generator(s);
    for (int k = 2; k < p; k++)
        create_label(s);
    for (int k = 1; k < p - 1; k++)
        ok = ok && set_cell(s, 1, k, k + 1);
    ok = ok && set_cell(s, 1, p - 1, 0);
    if (!ok || !propagate(s, 0)) {
        PyErr_SetString(PyExc_AssertionError, "canonical prefix is inconsistent");
        return -1;
    }
    return search(s, 0);
}

PyDoc_STRVAR(enumerate_doc,
"enumerate_group_tables(n) -> (tables, nodes)\n\n"
"All group tables of order n reached by the canonical search.\n"
"Same contract and output order as _fillcore.enumerate_group_tables.");

static PyObject *enumerate_group_tables(PyObject *module, PyObject *arg)
{
    int overflow;
    long n = PyLong_AsLongAndOverflow(arg, &overflow);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || n < 1 || n > MAX_KERNEL_ORDER)
        return PyErr_Format(PyExc_ValueError, "order must be in 1..%d", MAX_KERNEL_ORDER);
    if (n == 1)
        return Py_BuildValue("([(i)]i)", 0, 1);

    Search s = {0};
    PyObject *result = NULL;
    s.n = (int)n;
    s.size = s.n * s.n;
    s.table = calloc(s.size, sizeof *s.table);
    s.rowmask = calloc(s.n, sizeof *s.rowmask);
    s.colmask = calloc(s.n, sizeof *s.colmask);
    s.fact = calloc(s.size, sizeof *s.fact);
    s.fact_cnt = calloc(s.n, sizeof *s.fact_cnt);
    s.trail = calloc(s.size, sizeof *s.trail);
    s.gens = calloc(s.n, sizeof *s.gens);
    /* Each (element, generator) pair is queued at most once. */
    s.scan_u = calloc(s.size, sizeof *s.scan_u);
    s.scan_g = calloc(s.size, sizeof *s.scan_g);
    if (!s.table || !s.rowmask || !s.colmask || !s.fact || !s.fact_cnt
            || !s.trail || !s.gens || !s.scan_u || !s.scan_g) {
        PyErr_NoMemory();
        goto done;
    }
    s.leaves = PyList_New(0);
    if (s.leaves == NULL)
        goto done;
    for (int i = 0; i < s.size; i++)
        s.table[i] = -1;
    if (run(&s) == 0)
        result = Py_BuildValue("(OL)", s.leaves, s.nodes);
done:
    Py_XDECREF(s.leaves);
    free(s.table);
    free(s.rowmask);
    free(s.colmask);
    free(s.fact);
    free(s.fact_cnt);
    free(s.trail);
    free(s.gens);
    free(s.scan_u);
    free(s.scan_g);
    return result;
}

static PyMethodDef methods[] = {
    {"enumerate_group_tables", enumerate_group_tables, METH_O, enumerate_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    "_fillcore_c",
    "Compiled kernel for the exhaustive Cayley-table search.",
    -1,
    methods,
};

PyMODINIT_FUNC PyInit__fillcore_c(void)
{
    PyObject *module = PyModule_Create(&module_def);
    if (module != NULL && PyModule_AddIntConstant(module, "MAX_KERNEL_ORDER", MAX_KERNEL_ORDER) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
