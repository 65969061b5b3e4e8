/*
 * Native RLZ factorize kernel (Figure 1 of the paper, one C call per
 * document).
 *
 * rlz_factorize(text, suffix_array, query) parses `query` greedily against
 * `text` (the dictionary) and returns the parse as two lists, exactly the
 * streams repro.suffix.SuffixArray.factorize_stream returns:
 *
 *   - a copy factor is (position, length): text[position : position +
 *     length] equals the next `length` query bytes, and no longer prefix of
 *     the rest of the query occurs anywhere in the text;
 *   - a literal is (byte, 0), for a query byte that occurs nowhere in the
 *     text.
 *
 * `suffix_array` is the text's suffix array as contiguous native int64
 * values (a numpy array; a read-only view of shared memory is fine), one
 * per text byte.  Its layout is checked; its values are trusted to be the
 * suffix array of `text` (repro.suffix.SuffixArray builds it, or checks
 * its bounds when it arrives from elsewhere).
 *
 * Each factor is one lcp-aware binary search over the whole suffix array
 * for the insertion point of the rest of the query (a suffix that is a
 * proper prefix of the query sorts before it).  The longest match is the
 * larger lcp L of the two neighbours of that point.  L == 0 gives a
 * literal.  Otherwise the factor's position is the leftmost rank whose
 * suffix starts with those L bytes: a lower bound over the first L bytes,
 * which is the rank the per-character refinement of the paper ends on (the
 * reference tie-break).  Comparisons run 8 bytes at a time and resume at
 * the prefix the bisection has already certified, so no per-position keys
 * or jump index are needed, and zero bytes need no special case.
 *
 * The entry point is bound with ctypes.PyDLL, so it is entered with the
 * GIL held.  It takes buffer views of its three arguments, releases the GIL
 * for the whole parse, and takes it back only to build the result lists;
 * see repro.core.native.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int64_t *positions, *lengths;
    size_t count, capacity;
} factors_t;

static int append(factors_t *out, int64_t position, int64_t length)
{
    if (out->count == out->capacity) {
        size_t capacity = out->capacity ? 2 * out->capacity : 1024;
        int64_t *positions = realloc(out->positions, capacity * sizeof(int64_t));
        if (positions == NULL)
            return -1;
        out->positions = positions;
        int64_t *lengths = realloc(out->lengths, capacity * sizeof(int64_t));
        if (lengths == NULL)
            return -1;
        out->lengths = lengths;
        out->capacity = capacity;
    }
    out->positions[out->count] = position;
    out->lengths[out->count] = length;
    out->count++;
    return 0;
}

/*
 * Length of the common prefix of text[p:] and q[:m], capped at the shorter
 * of the two; the first `f` bytes are already known to match.
 */
static inline int64_t extend(const uint8_t *text, int64_t n, int64_t p,
                             const uint8_t *q, int64_t m, int64_t f)
{
    int64_t limit = n - p < m ? n - p : m;
    const uint8_t *t = text + p;
    while (limit - f >= 8) {
        uint64_t a, b;
        memcpy(&a, t + f, 8);
        memcpy(&b, q + f, 8);
        if (a != b) {
            uint64_t x = a ^ b;
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
            return f + (__builtin_ctzll(x) >> 3);
#else
            return f + (__builtin_clzll(x) >> 3);
#endif
        }
        f += 8;
    }
    while (f < limit && t[f] == q[f])
        f++;
    return f;
}

/* The greedy parse of q[:m]; -1 when out of memory. */
static int parse(const uint8_t *text, int64_t n, const int64_t *sa,
                 const uint8_t *query, int64_t qlen, factors_t *out)
{
    /* Ranks the bisection moved past (their suffix sorts before the
     * query), with their lcp: the lower bound below starts after the last
     * one that falls short of the match.  One per halving step. */
    int64_t passed_rank[64], passed_lcp[64];
    int64_t cursor = 0;
    while (cursor < qlen) {
        const uint8_t *q = query + cursor;
        int64_t m = qlen - cursor;
        int64_t lo = 0, hi = n, llcp = 0, rlcp = 0;
        int passed = 0;
        /* ---- lcp-aware bisect for the insertion point ---------------- */
        while (lo < hi) {
            int64_t mid = lo + ((hi - lo) >> 1);
            int64_t p = sa[mid];
            int64_t f = extend(text, n, p, q, m, llcp < rlcp ? llcp : rlcp);
            int64_t limit = n - p < m ? n - p : m;
            int before; /* does the suffix sort before the query? */
            if (f == limit)
                before = limit < m; /* a proper prefix of the query */
            else
                before = text[p + f] < q[f];
            if (before) {
                passed_rank[passed] = mid;
                passed_lcp[passed] = f;
                passed++;
                lo = mid + 1;
                llcp = f;
            } else {
                hi = mid;
                rlcp = f;
            }
        }
        /* llcp and rlcp are now the exact lcps of the two neighbours. */
        int64_t length = llcp > rlcp ? llcp : rlcp;
        if (length == 0) {
            if (append(out, q[0], 0) < 0)
                return -1;
            cursor++;
            continue;
        }
        /* ---- leftmost rank whose suffix starts with q[:length] -------- */
        int64_t known = llcp >= rlcp ? lo - 1 : lo; /* reaches `length` */
        int64_t low = 0, low_lcp = 0;
        while (passed > 0) {
            passed--;
            if (passed_lcp[passed] < length) {
                low = passed_rank[passed] + 1;
                low_lcp = passed_lcp[passed];
                break;
            }
        }
        int64_t high = known;
        while (low < high) {
            int64_t mid = low + ((high - low) >> 1);
            int64_t f = extend(text, n, sa[mid], q, length, low_lcp);
            if (f == length) {
                high = mid;
            } else {
                low = mid + 1;
                low_lcp = f;
            }
        }
        if (append(out, sa[low], length) < 0)
            return -1;
        cursor += length;
    }
    return 0;
}

static PyObject *to_list(const int64_t *values, size_t count)
{
    PyObject *list = PyList_New((Py_ssize_t)count);
    if (list == NULL)
        return NULL;
    for (size_t i = 0; i < count; i++) {
        PyObject *value = PyLong_FromLongLong(values[i]);
        if (value == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, (Py_ssize_t)i, value);
    }
    return list;
}

/* Whether a contiguous buffer holds native-order signed 64-bit integers. */
static int is_int64(const Py_buffer *view)
{
    const char *format = view->format;
    size_t size = format ? strlen(format) : 0;
    if (view->itemsize != 8 || size == 0 || size > 2)
        return 0;
    if (size == 2 && format[0] != '@' && format[0] != '=' &&
        !(format[0] == '<' && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__))
        return 0;
    return format[size - 1] == 'q' || format[size - 1] == 'l';
}

/* `(positions, lengths)` lists for `query`'s parse against `text`. */
PyObject *rlz_factorize(PyObject *text, PyObject *suffix_array, PyObject *query)
{
    Py_buffer views[3];
    PyObject *sources[3] = {text, suffix_array, query};
    PyObject *result = NULL;
    int acquired = 0;
    /* PyBUF_FORMAT without strides: the exporter must be contiguous. */
    for (; acquired < 3; acquired++)
        if (PyObject_GetBuffer(sources[acquired], &views[acquired],
                               acquired == 1 ? PyBUF_FORMAT : PyBUF_SIMPLE) < 0)
            goto done;
    int64_t n = (int64_t)views[0].len;
    if (!is_int64(&views[1]) || views[1].len != (Py_ssize_t)(n * 8)) {
        PyErr_Format(PyExc_ValueError,
                     "suffix array must be %zd contiguous int64 values, one per "
                     "text byte (got %zd bytes of format %s)",
                     views[0].len, views[1].len,
                     views[1].format ? views[1].format : "B");
        goto done;
    }
    factors_t out = {NULL, NULL, 0, 0};
    int status;
    Py_BEGIN_ALLOW_THREADS
    status = parse(views[0].buf, n, views[1].buf, views[2].buf,
                   (int64_t)views[2].len, &out);
    Py_END_ALLOW_THREADS
    if (status < 0) {
        PyErr_NoMemory();
    } else {
        PyObject *positions = to_list(out.positions, out.count);
        PyObject *lengths = positions ? to_list(out.lengths, out.count) : NULL;
        if (lengths != NULL)
            result = PyTuple_Pack(2, positions, lengths);
        Py_XDECREF(positions);
        Py_XDECREF(lengths);
    }
    free(out.positions);
    free(out.lengths);
done:
    while (acquired > 0)
        PyBuffer_Release(&views[--acquired]);
    return result;
}
