/* Compiled SGD epoch of the biased matrix factorization baseline.
 *
 * `mf_sgd_epoch` performs the steps of `cobar.kernels._python.mf_sgd_epoch`
 * in the same order: the prediction is global mean + user bias + item bias
 * + the sequential dot product, the biases are updated first, and the item
 * factors are updated with the user factors from before the step.
 *
 * Every array is checked (ndim, element type, C-contiguity, writability and
 * agreeing shapes) and every index against its range before it is used, so
 * bad input raises instead of touching memory outside the arrays.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
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
    {"mf_sgd_epoch", (PyCFunction)(void (*)(void))mf_sgd_epoch, METH_VARARGS | METH_KEYWORDS,
     "mf_sgd_epoch(users, items, ratings, order, user_factors, item_factors, user_bias, item_bias,"
     " global_mean, learning_rate, regularization)\n--\n\n"
     "See `cobar.kernels._python.mf_sgd_epoch`."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_mf", "Compiled SGD epoch of the MF baseline.", 0, methods,
};

PyMODINIT_FUNC
PyInit__mf(void)
{
    return PyModuleDef_Init(&module);
}
