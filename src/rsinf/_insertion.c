/* Compiled twin of _insertion_py.insert_sequence for offsets that fit in
   64 bits: an offset outside them raises OverflowError, and _kernel then
   falls back to the pure kernel. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef struct { long long off; Py_ssize_t idx; } Entry;
typedef struct { Entry *e; Py_ssize_t len, cap; } Row;

/* Append x, doubling the row's capacity when it is full. */
static int push(Row *row, Entry x) {
    if (row->len == row->cap) {
        Py_ssize_t cap = row->cap ? 2 * row->cap : 4;
        Entry *e = PyMem_Realloc(row->e, cap * sizeof(Entry));
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
    Py_ssize_t n = PyTuple_GET_SIZE(seq), nrows = 0;
    Row *rows = PyMem_Calloc(n + 1, sizeof(Row));  /* n entries fill at most n rows */
    if (rows == NULL) { PyErr_NoMemory(); goto done; }
    for (Py_ssize_t t = 0; t < n; t++) {
        int overflow;
        Entry x = {PyLong_AsLongLongAndOverflow(PyTuple_GET_ITEM(seq, t), &overflow), t};
        if (overflow) { PyErr_SetString(PyExc_OverflowError, "offset outside 64 bits"); goto done; }
        if (x.off == -1 && PyErr_Occurred()) goto done;
        Py_ssize_t r = 0;
        for (;; r++) {
            /* bump the leftmost offset not larger than x's, so an equal
               offset displaces the older entry */
            Row *row = &rows[r];
            Py_ssize_t lo = 0, hi = row->len;
            while (lo < hi) {
                Py_ssize_t mid = (lo + hi) / 2;
                if (row->e[mid].off > x.off) lo = mid + 1; else hi = mid;
            }
            if (lo == row->len) break;
            Entry bumped = row->e[lo];
            row->e[lo] = x;
            x = bumped;
        }
        if (push(&rows[r], x) < 0) { PyErr_NoMemory(); goto done; }
        if (r == nrows) nrows++;
    }
    out = PyList_New(nrows);
    for (Py_ssize_t r = 0; out != NULL && r < nrows; r++) {
        PyObject *row = PyList_New(rows[r].len);
        if (row == NULL) { Py_CLEAR(out); break; }
        PyList_SET_ITEM(out, r, row);
        for (Py_ssize_t c = 0; c < rows[r].len; c++) {
            PyObject *idx = PyLong_FromSsize_t(rows[r].e[c].idx);
            if (idx == NULL) { Py_CLEAR(out); break; }
            PyList_SET_ITEM(row, c, idx);
        }
    }
done:
    for (Py_ssize_t r = 0; rows != NULL && r < nrows; r++) PyMem_Free(rows[r].e);
    PyMem_Free(rows);
    Py_DECREF(seq);
    return out;
}

static PyMethodDef methods[] = {
    {"insert_sequence", insert_sequence, METH_O,
     "insert_sequence($module, offsets, /)\n--\n\n"
     "Insert all offsets in order; return rows of indices into the input."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_insertion", NULL, 0, methods};

PyMODINIT_FUNC PyInit__insertion(void) { return PyModule_Create(&module); }
