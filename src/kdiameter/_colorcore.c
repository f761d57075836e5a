/* Compiled k-coloring backtracking kernel, a plain CPython extension.

   Same contract as `_colorcore_py`, node for node: DSATUR vertex selection
   (Brélaz 1979) by highest saturation, then highest degree, then lowest
   index; optional fixed colors; color symmetry breaking when nothing is
   fixed; and a hard node budget, checked before each node.  The graph is
   held in CSR form with per-vertex neighbor-color counts, and the search
   backtracks on an explicit stack. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define MODE_FIRST 0
#define MODE_ENUMERATE 1
#define STATUS_OK 0
#define STATUS_BUDGET 1

typedef struct {
    Py_ssize_t n;
    int k, mode, symmetry;
    long long budget, nodes;
    Py_ssize_t *indptr, *indices;   /* CSR adjacency; degree = indptr step */
    Py_ssize_t *frame_v;            /* per depth: the vertex colored there, */
    int *frame_c, *frame_used;      /* its color, and `used` before it */
    int *colors;                    /* -1 when uncolored */
    int *satur;                     /* distinct colors among v's neighbors */
    int *counts;                    /* counts[v*k + c]: neighbors of v colored c */
} State;

/* Read the neighbor bitsets into CSR form through int.to_bytes, which also
   refuses what is not an int.  A bitset must be non-negative with no bit at
   index n or above. */
static int read_adjacency(State *st, PyObject *rows)
{
    Py_ssize_t n = st->n, nbytes = (n + 7) / 8, cap = n + 1, total = 0, v, i;
    if ((st->indices = PyMem_Malloc(cap * sizeof(Py_ssize_t))) == NULL)
        goto nomem;
    for (v = 0; v < n; v++) {
        PyObject *row = PySequence_Fast_GET_ITEM(rows, v), *bytes;
        const unsigned char *buf;
        bytes = PyObject_CallMethod((PyObject *)&PyLong_Type, "to_bytes", "Ons",
                                    row, nbytes, "little");
        if (bytes == NULL && !PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        buf = bytes ? (const unsigned char *)PyBytes_AS_STRING(bytes) : NULL;
        if (bytes == NULL || (n % 8 && buf[nbytes - 1] >> (n % 8))) {
            Py_XDECREF(bytes);
            PyErr_Clear();
            PyErr_Format(PyExc_ValueError,
                         "adjacency row %zd is not a bitset of vertices 0..%zd", v, n - 1);
            return -1;
        }
        for (i = 0; i < n; i++) {
            if (!(buf[i / 8] >> (i % 8) & 1))
                continue;
            if (total == cap) {
                Py_ssize_t *grown = PyMem_Realloc(st->indices, 2 * cap * sizeof(Py_ssize_t));
                if (grown == NULL) {
                    Py_DECREF(bytes);
                    goto nomem;
                }
                st->indices = grown;
                cap *= 2;
            }
            st->indices[total++] = i;
        }
        Py_DECREF(bytes);
        st->indptr[v + 1] = total;
    }
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

static Py_ssize_t pick(const State *st)
{
    Py_ssize_t best = -1, v, *ip = st->indptr;
    for (v = 0; v < st->n; v++) {
        if (st->colors[v] >= 0)
            continue;
        if (best < 0 || st->satur[v] > st->satur[best] ||
            (st->satur[v] == st->satur[best] && ip[v + 1] - ip[v] > ip[best + 1] - ip[best]))
            best = v;
    }
    return best;
}

/* Color v with c (step 1) or uncolor it (step -1), updating its neighbors'
   color counts and saturations. */
static void recolor(State *st, Py_ssize_t v, int c, int step)
{
    Py_ssize_t i;
    st->colors[v] = step > 0 ? c : -1;
    for (i = st->indptr[v]; i < st->indptr[v + 1]; i++) {
        int *count = &st->counts[st->indices[i] * st->k + c];
        if (step > 0 ? (*count)++ == 0 : --*count == 0)
            st->satur[st->indices[i]] += step;
    }
}

static int record(const State *st, PyObject *found)
{
    PyObject *coloring = PyList_New(st->n);
    Py_ssize_t v;
    int err;
    if (coloring == NULL)
        return -1;
    for (v = 0; v < st->n; v++) {
        PyObject *c = PyLong_FromLong(st->colors[v]);
        if (c == NULL) {
            Py_DECREF(coloring);
            return -1;
        }
        PyList_SET_ITEM(coloring, v, c);
    }
    err = PyList_Append(found, coloring);
    Py_DECREF(coloring);
    return err;
}

/* Returns STATUS_OK, STATUS_BUDGET, or -1 with an exception set. */
static int run(State *st, Py_ssize_t remaining, int used, PyObject *found)
{
    Py_ssize_t depth = 0;
    for (;;) {
        if (depth == remaining) {
            if (record(st, found) < 0)
                return -1;
            if (st->mode == MODE_FIRST)
                return STATUS_OK;
        } else {
            st->frame_v[depth] = pick(st);
            st->frame_c[depth] = -1;
            st->frame_used[depth] = used;
            depth++;
        }
        /* move the deepest frame to its next color, popping spent frames */
        for (;;) {
            Py_ssize_t d = depth - 1, v;
            int c, top;
            if (depth == 0)
                return STATUS_OK;
            v = st->frame_v[d];
            c = st->frame_c[d];
            if (c >= 0)
                recolor(st, v, c, -1);
            top = st->k;
            if (st->symmetry && st->frame_used[d] + 1 < top)
                top = st->frame_used[d] + 1;
            for (c++; c < top && st->counts[v * st->k + c]; c++)
                ;
            if (c < top) {
                if (++st->nodes > st->budget)
                    return STATUS_BUDGET;
                recolor(st, v, c, 1);
                st->frame_c[d] = c;
                used = c < st->frame_used[d] ? st->frame_used[d] : c + 1;
                break;
            }
            depth--;
        }
    }
}

/* Fix the colors given in `fixed`, as `_colorcore_py` reads them.  Returns
   1 when no coloring can respect them (a color >= k, or two adjacent
   vertices of one color), 0 otherwise, -1 on error. */
static int apply_fixed(State *st, PyObject *fixed)
{
    PyObject *items = PySequence_Fast(fixed, "fixed must be a sequence");
    Py_ssize_t v, i;
    int blocked = 0, overflow = 0;
    if (items == NULL)
        return -1;
    for (v = 0; v < PySequence_Fast_GET_SIZE(items) && !blocked; v++) {
        PyObject *item = PySequence_Fast_GET_ITEM(items, v);
        long long c = item == Py_None ? -1 : PyLong_AsLongLongAndOverflow(item, &overflow);
        if (c == -1 && PyErr_Occurred())
            blocked = -1;
        else if (item == Py_None || overflow < 0 || (!overflow && c < 0))
            continue;
        else if (overflow > 0 || c >= st->k)
            blocked = 1;
        else if (v >= st->n) {
            PyErr_SetString(PyExc_IndexError, "fixed has more entries than vertices");
            blocked = -1;
        } else {
            st->symmetry = 0;
            st->colors[v] = (int)c;
        }
    }
    Py_DECREF(items);
    for (v = 0; v < st->n && !blocked; v++) {
        if (st->colors[v] < 0)
            continue;
        for (i = st->indptr[v]; i < st->indptr[v + 1]; i++)
            if (st->colors[st->indices[i]] == st->colors[v])
                return 1;
        recolor(st, v, st->colors[v], 1);
    }
    return blocked;
}

static PyObject *search(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"adj", "k", "fixed", "mode", "budget", NULL};
    PyObject *adj, *fixed = Py_None, *budget = NULL, *rows, *found = NULL, *result = NULL;
    State st = {.symmetry = 1};
    Py_ssize_t n, v, remaining = 0;
    int overflow = 0, status = STATUS_OK, used = 0, blocked = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Oi|OiO", kwlist, &adj,
                                     &st.k, &fixed, &st.mode, &budget))
        return NULL;
    if (st.k < 0)
        return PyErr_Format(PyExc_ValueError, "k must be non-negative, got %d", st.k);
    st.budget = budget ? PyLong_AsLongLongAndOverflow(budget, &overflow) : 1000000000LL;
    if (st.budget == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        st.budget = overflow > 0 ? LLONG_MAX : -1;
    if ((rows = PySequence_Fast(adj, "adj must be a sequence")) == NULL)
        return NULL;
    st.n = n = PySequence_Fast_GET_SIZE(rows);
    /* two blocks: indptr and frame_v; then frame_c, frame_used, colors,
       satur and the n*k counts */
    st.indptr = PyMem_Calloc(2 * n + 1, sizeof(Py_ssize_t));
    st.frame_c = PyMem_Calloc(n + 1, ((size_t)st.k + 4) * sizeof(int));
    if (st.indptr == NULL || st.frame_c == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    st.frame_v = st.indptr + n + 1;
    st.frame_used = st.frame_c + n;
    st.colors = st.frame_used + n;
    st.satur = st.colors + n;
    st.counts = st.satur + n;
    if (read_adjacency(&st, rows) < 0)
        goto done;
    for (v = 0; v < n; v++)
        st.colors[v] = -1;
    if (fixed != Py_None && (blocked = apply_fixed(&st, fixed)) < 0)
        goto done;
    if ((found = PyList_New(0)) == NULL)
        goto done;
    if (!blocked) {
        for (v = 0; v < n; v++) {
            if (st.colors[v] < 0)
                remaining++;
            else if (st.colors[v] + 1 > used)
                used = st.colors[v] + 1;
        }
        if ((status = run(&st, remaining, used, found)) < 0)
            goto done;
    }
    if (st.mode != MODE_FIRST)
        result = Py_BuildValue("iOL", status, found, st.nodes);
    else
        result = Py_BuildValue("iOL", status, status == STATUS_OK && PyList_GET_SIZE(found)
                               ? PyList_GET_ITEM(found, 0) : Py_None, st.nodes);
done:
    Py_XDECREF(found);
    Py_DECREF(rows);
    PyMem_Free(st.indptr);
    PyMem_Free(st.indices);
    PyMem_Free(st.frame_c);
    return result;
}

static PyMethodDef methods[] = {
    {"search", (PyCFunction)(void (*)(void))search, METH_VARARGS | METH_KEYWORDS,
     "search(adj, k, fixed=None, mode=MODE_FIRST, budget=10**9)\n\n"
     "Backtracking search over proper k-colorings; see `_colorcore_py.search`."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "kdiameter._colorcore",
    .m_doc = "Compiled k-coloring backtracking kernel; see `_colorcore_py`.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__colorcore(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m && (PyModule_AddStringConstant(m, "BACKEND", "c") < 0 ||
              PyModule_AddIntConstant(m, "MODE_FIRST", MODE_FIRST) < 0 ||
              PyModule_AddIntConstant(m, "MODE_ENUMERATE", MODE_ENUMERATE) < 0 ||
              PyModule_AddIntConstant(m, "STATUS_OK", STATUS_OK) < 0 ||
              PyModule_AddIntConstant(m, "STATUS_BUDGET", STATUS_BUDGET) < 0))
        Py_CLEAR(m);
    return m;
}
