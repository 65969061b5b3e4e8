/*
 * Native RLZ decode kernel (Figure 2 of the paper, one C call per document).
 *
 * The input is one pair blob as repro.core.PairEncoder writes it:
 *
 *   vbyte  factor count
 *   vbyte  byte length of the position stream
 *   bytes  position stream: u32 little-endian words, zlib-wrapped when
 *          `layout` has INFLATE_POSITIONS
 *   bytes  length stream, to the end of the blob: vbyte codewords (7-bit
 *          digits, least significant first, the final byte of each codeword
 *          has its high bit set), zlib-wrapped when `layout` has
 *          INFLATE_LENGTHS
 *
 * A factor of length 0 is a literal whose byte value rides in its position
 * word; any other factor copies `dictionary[position : position + length]`.
 *
 * rlz_decode_document inflates both streams to their end and validates
 * every factor before it copies one, with exactly the checks the Python
 * decoder (repro.core.decoder and the pair codecs) makes:
 *
 *   - a zlib stream is complete, checksum included; bytes after it are
 *     ignored;
 *   - the position stream holds at least `count` words;
 *   - the length stream holds at least `count` complete codewords (and is
 *     empty when `count` is 0); bytes after the last one are ignored;
 *   - a literal's position is at most 255;
 *   - a copy factor satisfies `position + length <= len(dictionary)`.
 *
 * rlz_decode_window reads only a prefix.  It inflates the length stream
 * until the factors read so far cover the window's end (all `count` of
 * them when the window runs past the document, which clamps it), and the
 * position stream through the last covering factor's word.  It makes the
 * same checks on every factor up to that last covering one and none after
 * it, so a blob malformed only past the window still yields the window:
 * the container's extent CRC rejects on-disk corruption before any decode.
 *
 * No read goes past the end of any buffer.  A blob that fails a check, or
 * whose header or a length does not fit in 64 bits, makes the entry point
 * return None: the caller then re-runs the Python decoder, which raises the
 * typed error.
 *
 * The entry points are bound with ctypes.PyDLL, so they are entered with
 * the GIL held.  Each takes buffer views of the blob and the dictionary,
 * releases the GIL for the inflate, the validation and the copy, and takes
 * it back only to build the result bytes.  That work runs in per-thread
 * state (one z_stream, reset per stream, and three growable buffers) that
 * a pthread-key destructor frees when the thread exits; see
 * repro.core.native.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <zlib.h>

#define INFLATE_POSITIONS 1
#define INFLATE_LENGTHS 2

/* The first window inflate of a length stream; later ones double it. */
#define LENGTH_CHUNK 256

typedef struct {
    uint8_t *data;
    size_t size, capacity;
} buffer_t;

typedef struct {
    z_stream zlib;
    int zlib_ready;
    buffer_t positions, lengths, output;
} state_t;

/* One pair stream: the blob's bytes, or their inflation into a buffer. */
typedef struct {
    const uint8_t *data; /* the bytes available so far */
    size_t size;
    int complete;        /* no more bytes will come */
    z_stream *zlib;      /* NULL for a bare stream */
    buffer_t *buffer;
} stream_t;

/* ------------------------------------------------------------------ */
/* Per-thread state                                                    */
/* ------------------------------------------------------------------ */
static pthread_key_t state_key;
static int state_key_ready;
static pthread_once_t state_once = PTHREAD_ONCE_INIT;

static void free_state(void *opaque)
{
    state_t *state = opaque;
    if (state->zlib_ready)
        inflateEnd(&state->zlib);
    free(state->positions.data);
    free(state->lengths.data);
    free(state->output.data);
    free(state);
}

static void create_state_key(void)
{
    state_key_ready = pthread_key_create(&state_key, free_state) == 0;
}

static state_t *thread_state(void)
{
    pthread_once(&state_once, create_state_key);
    if (!state_key_ready)
        return NULL;
    state_t *state = pthread_getspecific(state_key);
    if (state == NULL && (state = calloc(1, sizeof *state)) != NULL &&
        pthread_setspecific(state_key, state) != 0) {
        free(state);
        state = NULL;
    }
    return state;
}

static int reserve(buffer_t *buffer, size_t capacity)
{
    if (capacity <= buffer->capacity)
        return 0;
    if (capacity < 2 * buffer->capacity)
        capacity = 2 * buffer->capacity;
    uint8_t *data = realloc(buffer->data, capacity);
    if (data == NULL)
        return -1;
    buffer->data = data;
    buffer->capacity = capacity;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Streams                                                             */
/* ------------------------------------------------------------------ */
static int open_stream(stream_t *stream, state_t *state, buffer_t *buffer,
                       const uint8_t *raw, size_t size, int inflated)
{
    stream->zlib = NULL;
    if (!inflated) {
        stream->data = raw;
        stream->size = size;
        stream->complete = 1;
        return 0;
    }
    z_stream *zlib = &state->zlib;
    if (state->zlib_ready) {
        if (inflateReset(zlib) != Z_OK)
            return -1;
    } else {
        memset(zlib, 0, sizeof *zlib);
        if (inflateInit(zlib) != Z_OK)
            return -1;
        state->zlib_ready = 1;
    }
    if (size > UINT_MAX)
        return -1;
    zlib->next_in = (Bytef *)raw;
    zlib->avail_in = (uInt)size;
    buffer->size = 0;
    stream->zlib = zlib;
    stream->buffer = buffer;
    stream->data = buffer->data;
    stream->size = 0;
    stream->complete = 0;
    return 0;
}

/*
 * Make at least `want` bytes available, or every byte when the stream is
 * shorter.  -1 for a corrupt or truncated zlib stream (or no memory).
 */
static int fill(stream_t *stream, size_t want)
{
    if (stream->complete || stream->size >= want)
        return 0;
    buffer_t *buffer = stream->buffer;
    z_stream *zlib = stream->zlib;
    if (reserve(buffer, want) < 0)
        return -1;
    while (buffer->size < want) {
        size_t room = want - buffer->size;
        zlib->next_out = buffer->data + buffer->size;
        zlib->avail_out = room > UINT_MAX ? UINT_MAX : (uInt)room;
        int status = inflate(zlib, Z_NO_FLUSH);
        buffer->size = (size_t)(zlib->next_out - buffer->data);
        if (status == Z_STREAM_END) {
            stream->complete = 1;
            break;
        }
        /* Z_BUF_ERROR here means the input ran out before the stream end. */
        if (status != Z_OK)
            return -1;
    }
    stream->data = buffer->data;
    stream->size = buffer->size;
    return 0;
}

/*
 * Inflate the whole stream; `hint` is a guess at its inflated size, capped
 * by deflate's largest ratio (1032:1) so a forged factor count reserves
 * nothing the stream cannot fill.
 */
static int fill_all(stream_t *stream, size_t hint)
{
    size_t want = hint;
    if (stream->zlib != NULL && want / 1032 > stream->zlib->avail_in)
        want = 1032 * (size_t)stream->zlib->avail_in + 64;
    while (!stream->complete) {
        if (fill(stream, want) < 0)
            return -1;
        if (want > SIZE_MAX / 2)
            return -1;
        want *= 2;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Factors                                                             */
/* ------------------------------------------------------------------ */
static inline uint64_t load_u32(const uint8_t *word)
{
    return (uint64_t)word[0] | ((uint64_t)word[1] << 8) |
           ((uint64_t)word[2] << 16) | ((uint64_t)word[3] << 24);
}

/*
 * Read one codeword from data[*at, size): 1 when read (and *at advanced),
 * 0 when the bytes end inside it, -1 when it exceeds 64 bits.
 */
static inline int next_vbyte(const uint8_t *data, size_t size, size_t *at,
                             uint64_t *value)
{
    uint64_t result = 0;
    unsigned shift = 0;
    for (size_t i = *at; i < size; i++) {
        uint8_t byte = data[i];
        uint64_t digit = byte & 0x7F;
        if (digit && (shift >= 64 || (shift > 57 && (digit >> (64 - shift)))))
            return -1;
        if (shift < 64)
            result |= digit << shift;
        if (byte & 0x80) {
            *at = i + 1;
            *value = result;
            return 1;
        }
        if (shift < 64)
            shift += 7;
    }
    return 0;
}

/*
 * Validate the first `count` factors; their output size, or -1 to reject.
 * The caller guarantees `positions` holds `count` words.
 */
static int64_t validate(const uint8_t *positions, const stream_t *lengths,
                        uint64_t count, uint64_t limit)
{
    size_t at = 0;
    uint64_t total = 0;
    for (uint64_t i = 0; i < count; i++) {
        uint64_t length, position = load_u32(positions + 4 * i);
        if (next_vbyte(lengths->data, lengths->size, &at, &length) != 1)
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
    return (int64_t)total;
}

/*
 * Copy bytes [start, end) of `count` validated factors into `out`.  Returns
 * the output size of the factors intersecting that range: a factor-walk
 * that stops at the first factor reaching `end`, like the Python window
 * path.
 */
static uint64_t copy_range(const uint8_t *positions, const stream_t *lengths,
                           uint64_t count, const uint8_t *dictionary,
                           uint64_t start, uint64_t end, uint8_t *out)
{
    size_t at = 0;
    uint64_t offset = 0, covered = 0;

    for (uint64_t i = 0; i < count && offset < end; i++) {
        uint64_t length = 0, position = load_u32(positions + 4 * i);
        next_vbyte(lengths->data, lengths->size, &at, &length);
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

/* ------------------------------------------------------------------ */
/* Decodes (run without the GIL)                                       */
/* ------------------------------------------------------------------ */
typedef struct {
    const uint8_t *blob;
    size_t blob_size;
    int layout;
    const uint8_t *dictionary;
    uint64_t dictionary_size;
    uint64_t count;
    const uint8_t *positions; /* the raw stream slices */
    size_t positions_size;
    const uint8_t *lengths;
    size_t lengths_size;
} input_t;

/* Cut the blob into its header and raw stream slices; -1 to reject. */
static int read_header(input_t *in)
{
    size_t at = 0;
    uint64_t position_size;
    if (next_vbyte(in->blob, in->blob_size, &at, &in->count) != 1 ||
        next_vbyte(in->blob, in->blob_size, &at, &position_size) != 1 ||
        position_size > in->blob_size - at)
        return -1;
    in->positions = in->blob + at;
    in->positions_size = (size_t)position_size;
    in->lengths = in->positions + position_size;
    in->lengths_size = in->blob_size - at - (size_t)position_size;
    return 0;
}

/* The whole document into state->output; its size, or -1 to reject. */
static int64_t decode_document(state_t *state, input_t *in)
{
    stream_t positions, lengths;
    if (read_header(in) < 0 || in->count > SIZE_MAX / 8)
        return -1;
    if (open_stream(&positions, state, &state->positions, in->positions,
                    in->positions_size, in->layout & INFLATE_POSITIONS) < 0 ||
        fill_all(&positions, 4 * (size_t)in->count + 64) < 0)
        return -1;
    if (open_stream(&lengths, state, &state->lengths, in->lengths,
                    in->lengths_size, in->layout & INFLATE_LENGTHS) < 0 ||
        fill_all(&lengths, (size_t)in->count + 64) < 0)
        return -1;
    if (in->count > positions.size / 4 || (in->count == 0 && lengths.size != 0))
        return -1;
    int64_t total = validate(positions.data, &lengths, in->count, in->dictionary_size);
    if (total < 0 || reserve(&state->output, (size_t)total) < 0)
        return -1;
    copy_range(positions.data, &lengths, in->count, in->dictionary, 0,
               (uint64_t)total, state->output.data);
    return total;
}

/*
 * Bytes [start, start + length) of the document, clamped to it, into
 * state->output; their size (with the covering factors' output size in
 * *covered), or -1 to reject.
 */
static int64_t decode_window(state_t *state, input_t *in, uint64_t start,
                             uint64_t length, uint64_t *covered)
{
    stream_t positions, lengths;
    uint64_t end = start + length, offset = 0, factors = 0;
    size_t at = 0;

    *covered = 0;
    if (read_header(in) < 0)
        return -1;
    if (length == 0)
        return 0;
    if (open_stream(&lengths, state, &state->lengths, in->lengths,
                    in->lengths_size, in->layout & INFLATE_LENGTHS) < 0)
        return -1;
    /* Read lengths until the factors cover `end` or the document ends. */
    while (factors < in->count && offset < end) {
        uint64_t value;
        int status = next_vbyte(lengths.data, lengths.size, &at, &value);
        if (status < 0)
            return -1;
        if (status == 0) {
            size_t want = lengths.size < LENGTH_CHUNK ? LENGTH_CHUNK : 2 * lengths.size;
            if (lengths.complete || fill(&lengths, want) < 0)
                return -1;
            continue;
        }
        uint64_t size = value ? value : 1;
        if (size > (uint64_t)PY_SSIZE_T_MAX - offset)
            return -1;
        offset += size;
        factors++;
    }
    if (end > offset)
        end = offset;
    if (start >= end)
        return 0;
    /* `factors` now ends with the last covering factor. */
    if (open_stream(&positions, state, &state->positions, in->positions,
                    in->positions_size, in->layout & INFLATE_POSITIONS) < 0 ||
        fill(&positions, 4 * (size_t)factors) < 0 || positions.size / 4 < factors)
        return -1;
    if (validate(positions.data, &lengths, factors, in->dictionary_size) < 0 ||
        reserve(&state->output, (size_t)(end - start)) < 0)
        return -1;
    *covered = copy_range(positions.data, &lengths, factors, in->dictionary, start,
                          end, state->output.data);
    return (int64_t)(end - start);
}

/* ------------------------------------------------------------------ */
/* Entry points                                                        */
/* ------------------------------------------------------------------ */
typedef struct {
    Py_buffer blob, dictionary;
    int acquired;
} views_t;

static int acquire(views_t *views, input_t *in, PyObject *blob, int layout,
                   PyObject *dictionary)
{
    views->acquired = 0;
    if (PyObject_GetBuffer(blob, &views->blob, PyBUF_SIMPLE) < 0)
        return -1;
    views->acquired = 1;
    if (PyObject_GetBuffer(dictionary, &views->dictionary, PyBUF_SIMPLE) < 0)
        return -1;
    views->acquired = 2;
    in->blob = views->blob.buf;
    in->blob_size = (size_t)views->blob.len;
    in->layout = layout;
    in->dictionary = views->dictionary.buf;
    in->dictionary_size = (uint64_t)views->dictionary.len;
    return 0;
}

static void release(views_t *views)
{
    if (views->acquired > 1)
        PyBuffer_Release(&views->dictionary);
    if (views->acquired > 0)
        PyBuffer_Release(&views->blob);
}

static PyObject *rejected(void)
{
    Py_INCREF(Py_None);
    return Py_None;
}

/* The whole document as bytes, or None to reject. */
PyObject *rlz_decode_document(PyObject *blob, int layout, PyObject *dictionary)
{
    views_t views;
    input_t in;
    PyObject *result = NULL;
    if (acquire(&views, &in, blob, layout, dictionary) == 0) {
        state_t *state = thread_state();
        int64_t size = -1;
        if (state != NULL) {
            Py_BEGIN_ALLOW_THREADS
            size = decode_document(state, &in);
            Py_END_ALLOW_THREADS
        }
        result = size < 0 ? rejected()
                          : PyBytes_FromStringAndSize((const char *)state->output.data,
                                                      (Py_ssize_t)size);
    }
    release(&views);
    return result;
}

/*
 * `(window, covered)` for document bytes [start, start + length), clamped
 * to the document, or None to reject.  `covered` is the output size of the
 * factors intersecting the window (0 for an empty window).
 */
PyObject *rlz_decode_window(PyObject *blob, int layout, PyObject *dictionary,
                            uint64_t start, uint64_t length)
{
    views_t views;
    input_t in;
    PyObject *result = NULL;
    if (acquire(&views, &in, blob, layout, dictionary) == 0) {
        state_t *state = thread_state();
        int64_t size = -1;
        uint64_t covered = 0;
        if (state != NULL) {
            Py_BEGIN_ALLOW_THREADS
            size = decode_window(state, &in, start, length, &covered);
            Py_END_ALLOW_THREADS
        }
        if (size < 0) {
            result = rejected();
        } else {
            PyObject *window = PyBytes_FromStringAndSize(
                (const char *)state->output.data, (Py_ssize_t)size);
            if (window != NULL)
                result = Py_BuildValue("(NK)", window, (unsigned long long)covered);
        }
    }
    release(&views);
    return result;
}
