/*
 * Native RLZ decode kernel (Figure 2 of the paper, one C call per document).
 *
 * The input is one document's factor streams after any zlib inflation:
 * `positions` holds u32 little-endian words, `lengths` holds vbyte
 * codewords (7-bit digits, least significant first, the final byte of each
 * codeword has its high bit set).  A factor of length 0 is a literal whose
 * byte value rides in its position word; any other factor copies
 * `dictionary[position : position + length]`.
 *
 * Both entry points first validate every factor, exactly the checks the
 * Python decoder (repro.core.decoder and the pair codecs) makes:
 *
 *   - the position stream holds at least `count` words;
 *   - the length stream holds at least `count` complete codewords (and is
 *     empty when `count` is 0); bytes after the last one are ignored;
 *   - a literal's position is at most 255;
 *   - a copy factor satisfies `position + length <= len(dictionary)`.
 *
 * No read goes past the end of any buffer, and no output byte is written
 * before every factor has passed.  A stream that fails any check (or whose
 * length does not fit in 64 bits) makes the entry point return None: the
 * caller then re-runs the Python decoder, which raises the typed error.
 *
 * The entry points take and return Python objects and are bound with
 * ctypes.PyDLL, so they run with the GIL held; see repro.core.native.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

typedef struct {
    Py_buffer positions;
    Py_buffer lengths;
    Py_buffer dictionary;
    int acquired;
} streams_t;

static int acquire(streams_t *s, PyObject *positions, PyObject *lengths,
                   PyObject *dictionary)
{
    s->acquired = 0;
    if (PyObject_GetBuffer(positions, &s->positions, PyBUF_SIMPLE) < 0)
        return -1;
    s->acquired = 1;
    if (PyObject_GetBuffer(lengths, &s->lengths, PyBUF_SIMPLE) < 0)
        return -1;
    s->acquired = 2;
    if (PyObject_GetBuffer(dictionary, &s->dictionary, PyBUF_SIMPLE) < 0)
        return -1;
    s->acquired = 3;
    return 0;
}

static void release(streams_t *s)
{
    if (s->acquired > 2)
        PyBuffer_Release(&s->dictionary);
    if (s->acquired > 1)
        PyBuffer_Release(&s->lengths);
    if (s->acquired > 0)
        PyBuffer_Release(&s->positions);
}

static inline uint64_t load_u32(const uint8_t *word)
{
    return (uint64_t)word[0] | ((uint64_t)word[1] << 8) |
           ((uint64_t)word[2] << 16) | ((uint64_t)word[3] << 24);
}

/* Read one codeword at *cursor; 0 when it is truncated or exceeds 64 bits. */
static inline int next_vbyte(const uint8_t **cursor, const uint8_t *end,
                             uint64_t *value)
{
    const uint8_t *p = *cursor;
    uint64_t result = 0;
    unsigned shift = 0;
    while (p < end) {
        uint8_t byte = *p++;
        uint64_t digit = byte & 0x7F;
        if (digit && (shift >= 64 || (shift > 57 && (digit >> (64 - shift)))))
            return 0;
        if (shift < 64)
            result |= digit << shift;
        if (byte & 0x80) {
            *cursor = p;
            *value = result;
            return 1;
        }
        if (shift < 64)
            shift += 7;
    }
    return 0;
}

/* Validate every factor; the document's length, or -1 to reject. */
static Py_ssize_t validate(const streams_t *s, uint64_t count)
{
    const uint8_t *positions = s->positions.buf;
    const uint8_t *cursor = s->lengths.buf;
    const uint8_t *end = cursor + s->lengths.len;
    uint64_t limit = (uint64_t)s->dictionary.len;
    uint64_t total = 0;

    if (count > (uint64_t)s->positions.len / 4)
        return -1;
    if (count == 0)
        return s->lengths.len == 0 ? 0 : -1;
    for (uint64_t i = 0; i < count; i++) {
        uint64_t length, position = load_u32(positions + 4 * i);
        if (!next_vbyte(&cursor, end, &length))
            return -1;
        if (length == 0) {
            if (position > 255)
                return -1;
            total += 1;
        } else {
            if (length > limit || position > limit - length)
                return -1;
            total += length;
        }
        if (total > (uint64_t)PY_SSIZE_T_MAX)
            return -1;
    }
    return (Py_ssize_t)total;
}

/*
 * Copy bytes [start, end) of a validated document into `out`.  Returns the
 * output size of the factors intersecting that range: a factor-walk that
 * stops at the first factor reaching `end`, like the Python window path.
 */
static uint64_t copy_range(const streams_t *s, uint64_t count, uint64_t start,
                           uint64_t end, uint8_t *out)
{
    const uint8_t *positions = s->positions.buf;
    const uint8_t *cursor = s->lengths.buf;
    const uint8_t *stop = cursor + s->lengths.len;
    const uint8_t *dictionary = s->dictionary.buf;
    uint64_t offset = 0, covered = 0;

    for (uint64_t i = 0; i < count && offset < end; i++) {
        uint64_t length, position = load_u32(positions + 4 * i);
        next_vbyte(&cursor, stop, &length);
        uint64_t size = length ? length : 1;
        uint64_t factor_end = offset + size;
        if (factor_end > start) {
            uint64_t from = offset > start ? offset : start;
            uint64_t to = factor_end < end ? factor_end : end;
            if (length == 0)
                out[from - start] = (uint8_t)position;
            else
                memcpy(out + (from - start), dictionary + position + (from - offset),
                       to - from);
            covered += size;
        }
        offset = factor_end;
    }
    return covered;
}

/* The whole document as bytes, or None to reject. */
PyObject *rlz_decode_document(PyObject *positions, PyObject *lengths,
                              uint64_t count, PyObject *dictionary)
{
    streams_t s;
    PyObject *result = NULL;
    if (acquire(&s, positions, lengths, dictionary) == 0) {
        Py_ssize_t total = validate(&s, count);
        if (total < 0) {
            Py_INCREF(Py_None);
            result = Py_None;
        } else if ((result = PyBytes_FromStringAndSize(NULL, total)) != NULL) {
            copy_range(&s, count, 0, (uint64_t)total,
                       (uint8_t *)PyBytes_AS_STRING(result));
        }
    }
    release(&s);
    return result;
}

/*
 * `(window, covered)` for document bytes [start, start + length), clamped
 * to the document, or None to reject.  `covered` is the output size of the
 * factors intersecting the window (0 for an empty window).
 */
PyObject *rlz_decode_window(PyObject *positions, PyObject *lengths,
                            uint64_t count, PyObject *dictionary,
                            uint64_t start, uint64_t length)
{
    streams_t s;
    PyObject *result = NULL;
    if (acquire(&s, positions, lengths, dictionary) == 0) {
        Py_ssize_t total = validate(&s, count);
        if (total < 0) {
            Py_INCREF(Py_None);
            result = Py_None;
        } else {
            uint64_t end = (uint64_t)total;
            if (start < end && length < end - start)
                end = start + length;
            uint64_t size = start < end ? end - start : 0;
            PyObject *window = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)size);
            if (window != NULL) {
                uint64_t covered = size ? copy_range(&s, count, start, end,
                                                     (uint8_t *)PyBytes_AS_STRING(window))
                                        : 0;
                result = Py_BuildValue("(NK)", window, (unsigned long long)covered);
            }
        }
    }
    release(&s);
    return result;
}
