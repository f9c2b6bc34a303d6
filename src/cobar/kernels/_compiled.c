/* Compiled kernels: the Ward merge loop and the SGD epoch of the biased
 * matrix factorization baseline.
 *
 * `ward_linkage` runs the steps of `cobar.kernels._python.ward_linkage` on
 * the condensed upper triangle of the distance matrix, in place, with the
 * same Lance-Williams expression and operand order, so merges and heights
 * agree bit for bit.
 *
 * `mf_sgd_epoch` performs the steps of `cobar.kernels._python.mf_sgd_epoch`
 * in the same order: the prediction is global mean + user bias + item bias
 * + the sequential dot product, the biases are updated first, and the item
 * factors are updated with the user factors from before the step.
 *
 * Every array is checked (ndim, element type, C-contiguity, writability and
 * agreeing shapes) and every index against its range before it is used, so
 * bad input raises instead of touching memory outside the arrays.  Both
 * kernels promise the numpy backend's bits, so the build turns off
 * floating-point contraction (`-ffp-contract=off`).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct {
    const char *name;
    int ndim;
    char kind;              /* 'i': signed integer, 'd': double */
    Py_ssize_t itemsize;
    int writable;
    const char *dtype;      /* for messages */
} ArraySpec;

enum { USERS, ITEMS, RATINGS, ORDER, USER_FACTORS, ITEM_FACTORS, USER_BIAS, ITEM_BIAS, N_ARRAYS };

static const ArraySpec specs[N_ARRAYS] = {
    {"users", 1, 'i', 4, 0, "int32"},
    {"items", 1, 'i', 4, 0, "int32"},
    {"ratings", 1, 'd', 8, 0, "float64"},
    {"order", 1, 'i', 8, 0, "int64"},
    {"user_factors", 2, 'd', 8, 1, "float64"},
    {"item_factors", 2, 'd', 8, 1, "float64"},
    {"user_bias", 1, 'd', 8, 1, "float64"},
    {"item_bias", 1, 'd', 8, 1, "float64"},
};

static int
has_kind(const char *format, char kind)
{
    if (format[0] == '@' || format[0] == '=')
        format++;
    if (format[0] == '\0' || format[1] != '\0')
        return 0;
    return kind == 'd' ? format[0] == 'd' : strchr("ilq", format[0]) != NULL;
}

/* Fills `view` with a buffer that matches `spec`; on failure sets an
 * exception, holds no buffer and returns -1. */
static int
get_array(PyObject *obj, Py_buffer *view, const ArraySpec *spec)
{
    if (!PyObject_CheckBuffer(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be an array, not %.200s", spec->name, Py_TYPE(obj)->tp_name);
        return -1;
    }
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->ndim != spec->ndim)
        PyErr_Format(PyExc_ValueError, "%s must be %d-dimensional, got %d dimensions",
                     spec->name, spec->ndim, view->ndim);
    else if (view->itemsize != spec->itemsize || !has_kind(view->format, spec->kind))
        PyErr_Format(PyExc_TypeError, "%s must hold %s, got format '%s' of %zd bytes",
                     spec->name, spec->dtype, view->format, view->itemsize);
    else if (!PyBuffer_IsContiguous(view, 'C'))
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", spec->name);
    else if (spec->writable && view->readonly)
        PyErr_Format(PyExc_ValueError, "%s must be writable", spec->name);
    else
        return 0;
    PyBuffer_Release(view);
    return -1;
}

static const ArraySpec d2_spec = {"d2", 1, 'd', 8, 1, "float64"};

/* A new numpy array made through numpy.empty, with its buffer in `view`;
 * the caller releases both. */
static PyObject *
new_array(PyObject *shape, const char *dtype, Py_buffer *view)
{
    PyObject *numpy = PyImport_ImportModule("numpy");
    if (numpy == NULL)
        return NULL;
    PyObject *array = PyObject_CallMethod(numpy, "empty", "Os", shape, dtype);
    Py_DECREF(numpy);
    if (array != NULL && PyObject_GetBuffer(array, view, PyBUF_CONTIG) < 0)
        Py_CLEAR(array);
    return array;
}

/* Smallest entry of active slot r's row among slots 0..a-1; the entry of
 * pair r < c is D[off[r] + c]. */
static double
row_minimum(const double *D, const Py_ssize_t *off, Py_ssize_t r, Py_ssize_t a)
{
    double best = INFINITY;
    for (Py_ssize_t c = 0; c < r; c++)
        if (D[off[c] + r] < best)
            best = D[off[c] + r];
    for (Py_ssize_t c = r + 1; c < a; c++)
        if (D[off[r] + c] < best)
            best = D[off[r] + c];
    return best;
}

/* The active-slot loop of `_python.ward_linkage` on the condensed buffer D
 * of n >= 2 clusters.  Slots 0..a-1 hold the a active clusters; merging
 * slots i < j writes the Ward update into slot i's pairs and moves the last
 * active slot into j.  Fills the n-1 merges and heights; returns -1 with an
 * exception set on failure. */
static int
ward_loop(double *D, Py_ssize_t n, int64_t *merges, double *heights)
{
    Py_ssize_t *off = PyMem_New(Py_ssize_t, n);
    int64_t *node_id = PyMem_New(int64_t, n);
    double *size = PyMem_New(double, n), *row_min = PyMem_New(double, n);
    char *stale = PyMem_Calloc(n, 1);
    int status = -1;
    if (!off || !node_id || !size || !row_min || !stale) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t r = 0; r < n; r++) {
        off[r] = r * n - r * (r + 1) / 2 - r - 1;
        node_id[r] = r;
        size[r] = 1.0;
        row_min[r] = INFINITY;
    }
    for (Py_ssize_t r = 0; r < n; r++)
        for (Py_ssize_t c = r + 1; c < n; c++) {
            double v = D[off[r] + c];
            if (v < row_min[r])
                row_min[r] = v;
            if (v < row_min[c])
                row_min[c] = v;
        }

    for (Py_ssize_t m = 0; m < n - 1; m++) {
        Py_ssize_t a = n - m, last = a - 1;
        double g = INFINITY;
        for (Py_ssize_t r = 0; r < a; r++)
            if (row_min[r] < g)
                g = row_min[r];

        /* all pairs at the minimum, lexicographic smallest id pair wins;
         * both rows of such a pair have their minimum at g */
        Py_ssize_t i = -1, j = -1;
        int64_t lo = 0, hi = 0;
        for (Py_ssize_t r = 0; r < a; r++) {
            if (row_min[r] != g)
                continue;
            for (Py_ssize_t c = r + 1; c < a; c++) {
                if (D[off[r] + c] != g)
                    continue;
                int64_t x = node_id[r], y = node_id[c];
                int64_t p = x < y ? x : y, q = x < y ? y : x;
                if (i < 0 || p < lo || (p == lo && q < hi)) {
                    lo = p;
                    hi = q;
                    i = r;
                    j = c;
                }
            }
        }
        if (i < 0) {
            PyErr_SetString(PyExc_OverflowError, "Ward linkage overflowed to inf");
            goto done;
        }
        merges[2 * m] = lo;
        merges[2 * m + 1] = hi;
        heights[m] = g;

        /* Ward update of slot i against every other active slot; a row whose
         * old minimum was its distance to i or j is stale unless improved */
        double si = size[i], sj = size[j];
        for (Py_ssize_t k = 0; k < a; k++) {
            if (k == i || k == j)
                continue;
            double *to_i = k < i ? &D[off[k] + i] : &D[off[i] + k];
            double old_i = *to_i;
            double old_j = k < j ? D[off[k] + j] : D[off[j] + k];
            double s = size[k];
            double v = ((si + s) * old_i + (sj + s) * old_j - s * g) / ((si + sj) + s);
            if (v < 0.0)    /* np.maximum(v, 0.0): NaN passes */
                v = 0.0;
            if (v < row_min[k])
                row_min[k] = v;
            else if (row_min[k] == old_i || row_min[k] == old_j)
                stale[k] = 1;
            *to_i = v;
        }
        size[i] = si + sj;
        node_id[i] = n + m;

        /* the last active slot moves into the freed slot j */
        if (j != last) {
            for (Py_ssize_t k = 0; k < last; k++) {
                if (k == j)
                    continue;
                if (k < j)
                    D[off[k] + j] = D[off[k] + last];
                else
                    D[off[j] + k] = D[off[k] + last];
            }
            size[j] = size[last];
            node_id[j] = node_id[last];
            row_min[j] = row_min[last];
            stale[j] = stale[last];
        }
        stale[last] = 0;
        for (Py_ssize_t r = 0; r < last; r++)
            if (stale[r]) {
                stale[r] = 0;
                row_min[r] = row_minimum(D, off, r, last);
            }
        row_min[i] = row_minimum(D, off, i, last);
    }
    status = 0;
done:
    PyMem_Free(off);
    PyMem_Free(node_id);
    PyMem_Free(size);
    PyMem_Free(row_min);
    PyMem_Free(stale);
    return status;
}

static PyObject *
ward_linkage(PyObject *self, PyObject *arg)
{
    Py_buffer d2, merges_view, heights_view;
    PyObject *merges = NULL, *heights = NULL, *result = NULL;

    if (get_array(arg, &d2, &d2_spec) < 0)
        return NULL;
    Py_ssize_t length = d2.shape[0];
    Py_ssize_t n = (Py_ssize_t)((1.0 + sqrt(1.0 + 8.0 * (double)length)) / 2.0);
    while (n > 1 && n * (n - 1) / 2 > length)
        n--;
    while ((n + 1) * n / 2 <= length)
        n++;
    if (n * (n - 1) / 2 != length) {
        PyErr_Format(PyExc_ValueError, "d2 has %zd entries, which is not n(n-1)/2 for any n", length);
        goto release_d2;
    }
    double *D = d2.buf;
    for (Py_ssize_t t = 0; t < length; t++)
        if (!(D[t] >= 0.0 && D[t] < INFINITY)) {
            PyErr_SetString(PyExc_ValueError, "squared distances must be finite and nonnegative");
            goto release_d2;
        }

    Py_ssize_t n_merges = n > 1 ? n - 1 : 0;
    PyObject *shape = Py_BuildValue("(nn)", n_merges, (Py_ssize_t)2);
    if (shape == NULL)
        goto release_d2;
    merges = new_array(shape, "int64", &merges_view);
    Py_DECREF(shape);
    if (merges == NULL)
        goto release_d2;
    shape = Py_BuildValue("(n)", n_merges);
    if (shape == NULL)
        goto release_merges;
    heights = new_array(shape, "float64", &heights_view);
    Py_DECREF(shape);
    if (heights == NULL)
        goto release_merges;

    if (n < 2 || ward_loop(D, n, merges_view.buf, heights_view.buf) == 0)
        result = PyTuple_Pack(2, merges, heights);
    PyBuffer_Release(&heights_view);
    Py_DECREF(heights);
release_merges:
    PyBuffer_Release(&merges_view);
    Py_DECREF(merges);
release_d2:
    PyBuffer_Release(&d2);
    return result;
}

static PyObject *
mf_sgd_epoch(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"users", "items", "ratings", "order", "user_factors", "item_factors",
                             "user_bias", "item_bias", "global_mean", "learning_rate", "regularization", NULL};
    PyObject *objs[N_ARRAYS];
    Py_buffer views[N_ARRAYS];
    double mean, lr, reg;
    int held = 0;
    PyObject *result = NULL;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOOOOddd:mf_sgd_epoch", kwlist,
                                     &objs[USERS], &objs[ITEMS], &objs[RATINGS], &objs[ORDER],
                                     &objs[USER_FACTORS], &objs[ITEM_FACTORS], &objs[USER_BIAS],
                                     &objs[ITEM_BIAS], &mean, &lr, &reg))
        return NULL;
    for (; held < N_ARRAYS; held++)
        if (get_array(objs[held], &views[held], &specs[held]) < 0)
            goto done;

    Py_ssize_t n = views[USERS].shape[0];
    Py_ssize_t n_users = views[USER_FACTORS].shape[0];
    Py_ssize_t n_items = views[ITEM_FACTORS].shape[0];
    Py_ssize_t k = views[USER_FACTORS].shape[1];
    if (views[ITEMS].shape[0] != n || views[RATINGS].shape[0] != n) {
        PyErr_SetString(PyExc_ValueError, "users, items and ratings must have the same length");
        goto done;
    }
    if (views[ITEM_FACTORS].shape[1] != k) {
        PyErr_SetString(PyExc_ValueError, "user_factors and item_factors must have the same number of columns");
        goto done;
    }
    if (views[USER_BIAS].shape[0] != n_users || views[ITEM_BIAS].shape[0] != n_items) {
        PyErr_SetString(PyExc_ValueError, "user_bias and item_bias must have one entry per factor row");
        goto done;
    }

    const int32_t *users = views[USERS].buf, *items = views[ITEMS].buf;
    const int64_t *order = views[ORDER].buf;
    const double *ratings = views[RATINGS].buf;
    double *user_factors = views[USER_FACTORS].buf, *item_factors = views[ITEM_FACTORS].buf;
    double *user_bias = views[USER_BIAS].buf, *item_bias = views[ITEM_BIAS].buf;

    for (Py_ssize_t t = 0; t < views[ORDER].shape[0]; t++) {
        int64_t idx = order[t];
        if (idx < 0 || idx >= n) {
            PyErr_Format(PyExc_IndexError, "order[%zd] = %lld is out of range for %zd ratings",
                         t, (long long)idx, n);
            goto done;
        }
        int32_t u = users[idx], i = items[idx];
        if (u < 0 || u >= n_users) {
            PyErr_Format(PyExc_IndexError, "users[%lld] = %d is out of range for %zd users",
                         (long long)idx, (int)u, n_users);
            goto done;
        }
        if (i < 0 || i >= n_items) {
            PyErr_Format(PyExc_IndexError, "items[%lld] = %d is out of range for %zd items",
                         (long long)idx, (int)i, n_items);
            goto done;
        }
        double *p = user_factors + (Py_ssize_t)u * k, *q = item_factors + (Py_ssize_t)i * k;
        double dot = 0.0;
        for (Py_ssize_t f = 0; f < k; f++)
            dot += p[f] * q[f];
        double err = ratings[idx] - (mean + user_bias[u] + item_bias[i] + dot);
        user_bias[u] += lr * (err - reg * user_bias[u]);
        item_bias[i] += lr * (err - reg * item_bias[i]);
        for (Py_ssize_t f = 0; f < k; f++) {
            double pf = p[f], qf = q[f];
            p[f] = pf + lr * (err * qf - reg * pf);
            q[f] = qf + lr * (err * pf - reg * qf);
        }
    }
    result = Py_NewRef(Py_None);
done:
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    return result;
}

static PyMethodDef methods[] = {
    {"ward_linkage", ward_linkage, METH_O,
     "ward_linkage(d2)\n--\n\n"
     "See `cobar.kernels._python.ward_linkage`."},
    {"mf_sgd_epoch", (PyCFunction)(void (*)(void))mf_sgd_epoch, METH_VARARGS | METH_KEYWORDS,
     "mf_sgd_epoch(users, items, ratings, order, user_factors, item_factors, user_bias, item_bias,"
     " global_mean, learning_rate, regularization)\n--\n\n"
     "See `cobar.kernels._python.mf_sgd_epoch`."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_compiled", "Compiled Ward merge loop and MF SGD epoch.", 0, methods,
};

PyMODINIT_FUNC
PyInit__compiled(void)
{
    return PyModuleDef_Init(&module);
}
