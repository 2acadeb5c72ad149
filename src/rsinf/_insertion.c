/* Compiled twin of _insertion_py.insert_sequence: integer offsets in, in
   input order; rows of offsets out, each strictly decreasing, and an
   equal offset bumps the one already in the row.  An offset outside 64
   bits raises OverflowError, and _kernel then falls back to the pure
   kernel. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef struct { long long *e; Py_ssize_t len, cap; } Row;

/* Append x, doubling the row's capacity when it is full. */
static int push(Row *row, long long x) {
    if (row->len == row->cap) {
        Py_ssize_t cap = row->cap ? 2 * row->cap : 4;
        long long *e = PyMem_Realloc(row->e, cap * sizeof(long long));
        if (e == NULL) return -1;
        row->e = e;
        row->cap = cap;
    }
    row->e[row->len++] = x;
    return 0;
}

static PyObject *insert_sequence(PyObject *module, PyObject *offsets) {
    PyObject *seq = PySequence_Tuple(offsets), *out = NULL;
    if (seq == NULL) return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(seq), nrows = 0, cap = 0;
    Row *rows = NULL;  /* the row headers, grown by doubling as push grows a row */
    for (Py_ssize_t t = 0; t < n; t++) {
        int overflow;
        long long x = PyLong_AsLongLongAndOverflow(PyTuple_GET_ITEM(seq, t), &overflow);
        if (overflow) { PyErr_SetString(PyExc_OverflowError, "offset outside 64 bits"); goto done; }
        if (x == -1 && PyErr_Occurred()) goto done;
        Py_ssize_t r = 0;
        for (; r < nrows; r++) {
            /* bump the leftmost offset not larger than x, so an equal
               offset displaces the one already in the row */
            Row *row = &rows[r];
            Py_ssize_t lo = 0, hi = row->len;
            while (lo < hi) {
                Py_ssize_t mid = (lo + hi) / 2;
                if (row->e[mid] > x) lo = mid + 1; else hi = mid;
            }
            if (lo == row->len) break;
            long long bumped = row->e[lo];
            row->e[lo] = x;
            x = bumped;
        }
        if (r == nrows) {
            if (nrows == cap) {
                Py_ssize_t grown = cap ? 2 * cap : 4;
                Row *more = PyMem_Realloc(rows, grown * sizeof(Row));
                if (more == NULL) { PyErr_NoMemory(); goto done; }
                rows = more;
                cap = grown;
            }
            rows[nrows++] = (Row){NULL, 0, 0};
        }
        if (push(&rows[r], x) < 0) { PyErr_NoMemory(); goto done; }
    }
    out = PyList_New(nrows);
    for (Py_ssize_t r = 0; out != NULL && r < nrows; r++) {
        PyObject *row = PyList_New(rows[r].len);
        if (row == NULL) { Py_CLEAR(out); break; }
        PyList_SET_ITEM(out, r, row);
        for (Py_ssize_t c = 0; c < rows[r].len; c++) {
            PyObject *off = PyLong_FromLongLong(rows[r].e[c]);
            if (off == NULL) { Py_CLEAR(out); break; }
            PyList_SET_ITEM(row, c, off);
        }
    }
done:
    for (Py_ssize_t r = 0; r < nrows; r++) PyMem_Free(rows[r].e);
    PyMem_Free(rows);
    Py_DECREF(seq);
    return out;
}

static PyMethodDef methods[] = {
    {"insert_sequence", insert_sequence, METH_O,
     "insert_sequence($module, offsets, /)\n--\n\n"
     "Insert all offsets in order; return rows of offsets."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_insertion", NULL, 0, methods};

PyMODINIT_FUNC PyInit__insertion(void) { return PyModule_Create(&module); }
