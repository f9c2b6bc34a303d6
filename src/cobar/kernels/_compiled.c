/* Compiled kernels, eight loops: the cosine distance pass and the Ward
 * merge loop of cobar's user hierarchy, the SGD epoch of the biased matrix
 * factorization baseline, the query of the cosine kNN baselines, the build
 * of cobar's per-item cluster statistics, cobar's whole prediction, which
 * walks them, the tokenizer of a rating file, and the counting sort that
 * lays the ratings out in CSR form.
 *
 * `cosine_rows` fills the condensed distances that
 * `cobar.kernels._python.cosine_rows` fills with `np.bincount`, summing
 * each dot product in the order of scipy's `csr_matmat`: for row i, item by
 * item in ascending order, r_ik * r_jk is added to the sum of each j > i.
 * Each distance is 1 - (dot / norm_i) / norm_j clipped to [0, 2] as
 * `np.clip` clips, NaN passing, so the distances agree bit for bit.
 *
 * `ward_loop` squares the condensed upper triangle of the distance
 * matrix in place, rejecting a distance that is NaN, negative or infinite
 * or whose square overflows as it squares it, and merges there the same
 * pair as `cobar.kernels._python.ward_loop` at every step, with the same
 * Lance-Williams expression and operand order, so merges and heights, the
 * square roots of the linkages, agree bit for bit.  The two loops are one
 * algorithm: both retire the first active slot at each merge and keep lazy
 * lower bounds on each row's contiguous upper run.  The numpy loop runs
 * each merge vectorised over the slots; this one keeps one minimum per
 * block of 32 rows and prefetches the strided column entries it updates
 * and moves.
 *
 * These two n^2 loops release the GIL and choose their own thread count,
 * which they return: 2 when the input is above the loop's floor
 * (COSINE_FLOOR rows, WARD_FLOOR clusters) and the process may run on two
 * CPUs or more, 1 otherwise.  With 2, a loop splits its work with one POSIX
 * worker thread: the cosine pass its rows, in two ranges of about half the
 * pairs each; the Ward loop its first bounds and, at each merge, the
 * update and the move over the active slots, while the pair search, the
 * rescans and the tie scan stay on the calling thread.  Every entry is
 * computed as on one thread and row minima are combined in slot order, so
 * the results never depend on the thread count.  The calling thread
 * allocates every buffer and joins the worker before it returns, also when
 * the Ward loop stops at an overflow.  Without POSIX threads, or when the
 * worker cannot start, the loops run on the calling thread.
 *
 * `sgd_epoch` performs the steps of `cobar.kernels._python.sgd_epoch` in
 * the same order: the prediction is global mean + user bias + item bias +
 * the sequential dot product, the biases are updated first, and the item
 * factors are updated with the user factors from before the step.
 *
 * `knn_query` performs the numpy operations of
 * `cobar.kernels._python.knn_query` in numpy's order, but computes only the
 * dot products it reads, those of the entity with the neighbours in the
 * query column.  It sums them from the cheaper of two sides, scattering the
 * entity's row over its columns or gathering each neighbour's row against
 * the entity's ratings; both add the products in ascending column order
 * from +0.0, as `np.bincount` does, and the gather's extra zero products
 * change no bit.  The top k are picked as the stable argsort picks them,
 * and the two sums are numpy's pairwise sum.
 *
 * `stats_build` finds the gap nodes and fills the gap entries
 * `cobar.kernels._python.stats_build` finds and fills, each entry the sum
 * of the two ranges its gap joins with the left one first, but walks each
 * gap up the tree as it reaches it and pops the gaps off a stack, where
 * the numpy loop walks and joins all gaps in rounds.  `stats_walk` runs
 * the steps of `cobar.kernels._python._stats_walk` for cobar's prediction,
 * whose `cobar_value` and `cobar_detail` walk the fallback chain of
 * `_python.cobar_detail` around it, blend and clamp.
 *
 * `csr_fill` lays the rating triples out in CSR form, each row sorted, by
 * a two-pass counting sort; `cobar.kernels._python.csr_fill` argsorts, and
 * the pairs are unique, so the two give the same arrays.  Every loop reads
 * the int32 indices it writes, beside int64 indptrs and node ids.
 *
 * `tokenize` splits a rating file's bytes as the line loop of
 * `cobar.data.parse_ratings` splits its text, and reads each rating in
 * place with the parser `float()` calls, for the inputs of a strict ASCII
 * subset on which the two read alike; it returns None for every other
 * input.  The numpy backend has no tokenizer, as the line loop is its
 * parse.
 *
 * The queries run once per prediction, so they are bound: a
 * `bind_knn_query` or `bind_cobar_query` call takes the arrays once and
 * returns a `BoundQuery`, which holds their buffers until it is freed and
 * whose call reads the two indices of a query and checks them against the
 * sizes it found in the arrays at the bind, so no caller checks them
 * again.  The bound kNN query also owns its work
 * buffers, allocated once at the bind, so a query allocates nothing.
 *
 * No loop checks its arrays: `cobar.kernels` checks every shape, element
 * type and length before it calls in, or builds the arrays itself, and
 * only the buffer codes `y*`
 * (C-contiguous) and `w*` (also writable) remain here.  The
 * kernels promise the numpy backend's bits, so the build turns off
 * floating-point contraction (`-ffp-contract=off`).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The cosine pass and the Ward loop split their rows over two threads where
 * POSIX threads and C11 atomics exist; elsewhere they run serially. */
#if defined(HAVE_PTHREAD_H) && defined(HAVE_SCHED_H) && !defined(__STDC_NO_ATOMICS__)
#define HAVE_SPLIT 1
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <time.h>
#include <unistd.h>
#endif

/* Each n^2 loop splits only above its floor: the cosine pass over more than
 * COSINE_FLOOR rows, and the Ward loop over more than WARD_FLOOR clusters,
 * for the merges while more than WARD_FLOOR are active.  On 2 vCPUs
 * (x86-64, gcc), two threads cut the cosine pass of 3,000 cap-shaped users
 * by 40-50% and its Ward loop by 20-30%; on 1,500 users the pass saved 1-3
 * ms of a 40 ms fit and Ward about nothing.  Below the floors, the second
 * CPU is left to other work, such as the other folds of an evaluation.  A
 * build may lower both with -D, as the tests do to split small inputs. */
#ifndef COSINE_FLOOR
#define COSINE_FLOOR 2000
#endif
#ifndef WARD_FLOOR
#define WARD_FLOOR 2000
#endif

/* A waiting thread spins this many times, then yields its CPU between
 * polls.  A caller that yields for more than STALL_NS nanoseconds on the
 * worker's part waited for a worker without a CPU: a merge's part takes
 * microseconds, a time slice of another process milliseconds.  One such
 * stall in a call may be the host's; at MAX_STALLS, the CPUs are taken and
 * the Ward loop stops splitting. */
#define SPIN_LIMIT 4096
#define STALL_NS 500000
#define MAX_STALLS 2

#ifdef HAVE_SPLIT
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define CPU_PAUSE() __builtin_ia32_pause()
#elif defined(__GNUC__) && defined(__aarch64__)
#define CPU_PAUSE() __asm__ __volatile__("yield")
#else
#define CPU_PAUSE() ((void)0)
#endif

/* A calling thread and one worker running the two parts of a job.  The
 * caller runs part 0, and part 1 goes to whichever thread claims it first,
 * so a worker that is not running delays nothing: `posted` counts the jobs
 * posted, `taken` the jobs whose part 1 was claimed, and `finished` those
 * the worker finished.  A job's data is written before its post and read
 * after its claim (release, acquire), and what the worker writes is read
 * after its finish.  `stalls` counts the caller's waits of more than
 * STALL_NS on a claimed part.  The worker allocates nothing. */
typedef struct {
    pthread_t thread;
    void (*run)(void *ctx, int part);
    void *ctx;
    atomic_uint posted, taken, finished;
    atomic_int quit;
    int stalls;
} Pair;

/* One poll of a wait: a pause for the first SPIN_LIMIT polls, then a
 * yield of the CPU. */
static void
backoff(int *spins)
{
    if (*spins < SPIN_LIMIT) {
        ++*spins;
        CPU_PAUSE();
    }
    else
        sched_yield();
}

static int64_t
now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

/* Claims part 1 of job `job`; 0 when the other thread claimed it first. */
static int
pair_claim(Pair *pair, unsigned job)
{
    unsigned open = job - 1;
    return atomic_compare_exchange_strong_explicit(&pair->taken, &open, job, memory_order_acq_rel,
                                                   memory_order_acquire);
}

static void *
pair_worker(void *arg)
{
    Pair *pair = arg;
    unsigned job = 0, now;
    for (;;) {
        int spins = 0;
        while ((now = atomic_load_explicit(&pair->posted, memory_order_acquire)) == job)
            backoff(&spins);
        job = now;
        if (atomic_load_explicit(&pair->quit, memory_order_relaxed))
            return NULL;
        if (pair_claim(pair, job)) {
            pair->run(pair->ctx, 1);
            atomic_store_explicit(&pair->finished, job, memory_order_release);
        }
    }
}

/* Starts the worker of `run`; 0 when it cannot start, and the parts must
 * then run on the caller. */
static int
pair_start(Pair *pair, void (*run)(void *, int), void *ctx)
{
    pair->run = run;
    pair->ctx = ctx;
    pair->stalls = 0;
    atomic_init(&pair->posted, 0);
    atomic_init(&pair->taken, 0);
    atomic_init(&pair->finished, 0);
    atomic_init(&pair->quit, 0);
    return pthread_create(&pair->thread, NULL, pair_worker, pair) == 0;
}

/* Runs both parts of one job and returns when both are done. */
static void
pair_run(Pair *pair)
{
    unsigned job = atomic_load_explicit(&pair->posted, memory_order_relaxed) + 1;
    atomic_store_explicit(&pair->posted, job, memory_order_release);
    pair->run(pair->ctx, 0);
    if (pair_claim(pair, job))
        pair->run(pair->ctx, 1);
    else {
        /* the worker claimed it: wait for this job, not an earlier one */
        int spins = 0;
        int64_t yielding = 0;
        while (atomic_load_explicit(&pair->finished, memory_order_acquire) != job) {
            if (spins == SPIN_LIMIT && yielding == 0)
                yielding = now_ns();
            backoff(&spins);
        }
        pair->stalls += yielding != 0 && now_ns() - yielding > STALL_NS;
    }
}

/* Ends the worker and joins it. */
static void
pair_stop(Pair *pair)
{
    atomic_store_explicit(&pair->quit, 1, memory_order_relaxed);
    atomic_store_explicit(&pair->posted, atomic_load_explicit(&pair->posted, memory_order_relaxed) + 1,
                          memory_order_release);
    pthread_join(pair->thread, NULL);
}

/* Whether this process may run on two CPUs or more: the CPUs of its
 * affinity, as `os.sched_getaffinity` counts them, or where that cannot be
 * read, those online, as `os.cpu_count` counts them. */
static int
two_cpus(void)
{
#if defined(HAVE_SCHED_SETAFFINITY) && defined(CPU_COUNT)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set) > 1;
#endif
    return sysconf(_SC_NPROCESSORS_ONLN) > 1;
}
#else
/* No worker ever starts, and every part runs on the calling thread. */
typedef struct {
    int stalls;
} Pair;

static int
two_cpus(void)
{
    return 0;
}

static int
pair_start(Pair *pair, void (*run)(void *, int), void *ctx)
{
    return 0;
}

static void
pair_run(Pair *pair)
{
}

static void
pair_stop(Pair *pair)
{
}
#endif

/* The layout of `cobar.kernels.csr_rows`: the n rating triples (int32
 * keys and others, ratings) in CSR form with the keys as rows, each row
 * sorted by others, into the int64 indptr (n_keys + 1 entries), int32
 * indices and data.  A two-pass counting sort: the triples are first
 * bucketed by other, then placed, bucket by bucket in ascending other, at
 * their key's next slot, so every row comes out sorted.  The pairs are
 * unique, so this is the order of the numpy loop's argsort.  The scratch,
 * each triple's key and rating in bucket order and a cursor per key and
 * per other, is freed before the call returns. */
static PyObject *
csr_fill(PyObject *self, PyObject *args)
{
    Py_buffer b[6];
    Py_ssize_t n_others;
    if (!PyArg_ParseTuple(args, "y*y*y*nw*w*w*:csr_fill", &b[0], &b[1], &b[2], &n_others, &b[3], &b[4], &b[5]))
        return NULL;
    const int32_t *keys = b[0].buf, *others = b[1].buf;
    const double *ratings = b[2].buf;
    int64_t *indptr = b[3].buf;
    int32_t *indices = b[4].buf;
    double *data = b[5].buf;
    Py_ssize_t n = b[2].len / (Py_ssize_t)sizeof(double), n_keys = b[3].len / (Py_ssize_t)sizeof(int64_t) - 1;
    PyObject *result = NULL;
    int32_t *bucket_keys = PyMem_New(int32_t, n);
    double *bucket_ratings = PyMem_New(double, n);
    int64_t *key_next = PyMem_New(int64_t, n_keys);
    int64_t *other_next = PyMem_Calloc(n_others + 1, sizeof(int64_t));
    if (!bucket_keys || !bucket_ratings || !key_next || !other_next) {
        PyErr_NoMemory();
        goto done;
    }
    /* counts, then the start of each key's row and each other's bucket */
    memset(indptr, 0, (n_keys + 1) * sizeof(int64_t));
    for (Py_ssize_t t = 0; t < n; t++) {
        indptr[keys[t] + 1]++;
        other_next[others[t] + 1]++;
    }
    for (Py_ssize_t k = 0; k < n_keys; k++) {
        indptr[k + 1] += indptr[k];
        key_next[k] = indptr[k];
    }
    for (Py_ssize_t o = 0; o < n_others; o++)
        other_next[o + 1] += other_next[o];
    for (Py_ssize_t t = 0; t < n; t++) {
        int64_t s = other_next[others[t]]++;
        bucket_keys[s] = keys[t];
        bucket_ratings[s] = ratings[t];
    }
    /* other_next[o] is now the end of bucket o */
    for (Py_ssize_t o = 0, s = 0; o < n_others; o++)
        for (; s < other_next[o]; s++) {
            int64_t slot = key_next[bucket_keys[s]]++;
            indices[slot] = (int32_t)o;
            data[slot] = bucket_ratings[s];
        }
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(bucket_keys);
    PyMem_Free(bucket_ratings);
    PyMem_Free(key_next);
    PyMem_Free(other_next);
    for (int a = 0; a < 6; a++)
        PyBuffer_Release(&b[a]);
    return result;
}

/* The arrays of `cosine_rows`, and the sums and column cursors of its two
 * parts: part 0 takes the rows before `split`, part 1 the rest. */
typedef struct {
    const int64_t *rp, *cp;
    const int32_t *ri, *ci;
    const double *rd, *cd, *norms;
    double *dist;
    Py_ssize_t n, n_columns, split;
    double *acc[2];
    int64_t *cursor[2];
} Cosine;

/* Forces a function into each of its callers. */
#if defined(__GNUC__) || defined(__clang__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

/* The distance pass over rows first..stop-1, with the sums `acc`, n zeros,
 * and the column cursors `cursor`.  Inlined into both callers: as a call
 * of its own, with the same instructions, the serial pass over 1,500 and
 * 3,000 cap-shaped users ran 7-10% slower (interleaved runs, x86-64, gcc). */
static ALWAYS_INLINE void
cosine_range(const Cosine *c, Py_ssize_t first, Py_ssize_t stop, double *acc, int64_t *cursor)
{
    const int64_t *rp = c->rp, *cp = c->cp;
    const int32_t *ri = c->ri, *ci = c->ci;
    const double *rd = c->rd, *cd = c->cd, *norms = c->norms;
    Py_ssize_t n = c->n;
    /* row first's pairs start after those of the rows before it */
    double *dist = c->dist + (first * n - first * (first + 1) / 2);
    memcpy(cursor, cp, c->n_columns * sizeof(int64_t));
    for (Py_ssize_t i = first; i < stop; i++) {
        for (int64_t p = rp[i]; p < rp[i + 1]; p++) {
            int64_t k = ri[p], q = cursor[k], end = cp[k + 1];
            double w = rd[p];
            while (q < end && ci[q] <= i)
                q++;
            cursor[k] = q;
            for (; q < end; q++)
                acc[ci[q]] += w * cd[q];
        }
        double norm_i = norms[i];
        for (Py_ssize_t j = i + 1; j < n; j++) {
            double v = 1.0 - acc[j] / norm_i / norms[j];
            acc[j] = 0.0;
            if (v < 0.0)    /* np.clip(v, 0.0, 2.0): NaN passes */
                v = 0.0;
            else if (v > 2.0)
                v = 2.0;
            *dist++ = v;
        }
    }
}

static void
cosine_part(void *ctx, int part)
{
    Cosine *c = ctx;
    cosine_range(c, part ? c->split : 0, part ? c->n : c->split, c->acc[part], c->cursor[part]);
}

/* The distance pass of `_python.cosine_rows`, whose steps it takes one
 * product at a time, for n rows, n the length of `norms`: the CSR arrays of
 * the rows (rp, ri, rd) and of the columns (cp, ci, cd), each sorted, with
 * int32 indices, hold the same ratings.  Row i's dot products with the rows
 * j > i are summed in `acc`, item by item in row i's order; a cursor per
 * column skips the rows j <= i, which every earlier row that rated the item
 * has passed.  Row i's distances are then written to `dist`, in pdist
 * order, and its sums zeroed for the next row.  Above COSINE_FLOOR rows, on
 * two CPUs, the rows split in two ranges of about half the pairs each, the
 * first n(1 - 1/sqrt 2) rows and the rest; each range has its own sums and
 * cursors, which skip the rows before it as they skip row i's, and writes
 * its own pairs.  Returns the number of threads the pass ran on. */
static PyObject *
cosine_rows(PyObject *self, PyObject *args)
{
    Py_buffer b[8];
    if (!PyArg_ParseTuple(args, "y*y*y*y*y*y*y*w*:cosine_rows", &b[0], &b[1], &b[2], &b[3], &b[4], &b[5],
                          &b[6], &b[7]))
        return NULL;
    Cosine c = {
        .rp = b[0].buf, .ri = b[1].buf, .rd = b[2].buf, .cp = b[3].buf, .ci = b[4].buf, .cd = b[5].buf,
        .norms = b[6].buf, .dist = b[7].buf,
        .n = b[6].len / (Py_ssize_t)sizeof(double), .n_columns = b[3].len / (Py_ssize_t)sizeof(int64_t) - 1,
    };
    PyObject *result = NULL;
    int parts = c.n > COSINE_FLOOR && two_cpus() ? 2 : 1;
    c.split = parts == 2 ? c.n - (Py_ssize_t)(c.n / sqrt(2.0)) : c.n;
    /* the worker's buffers too are allocated here, by the calling thread */
    for (int part = 0; part < parts; part++) {
        c.acc[part] = PyMem_Calloc(c.n, sizeof(double));
        c.cursor[part] = PyMem_New(int64_t, c.n_columns);
        if (!c.acc[part] || !c.cursor[part]) {
            PyErr_NoMemory();
            goto done;
        }
    }
    Py_BEGIN_ALLOW_THREADS
    Pair pair;
    if (parts == 2 && pair_start(&pair, cosine_part, &c)) {
        pair_run(&pair);
        pair_stop(&pair);
    }
    else {
        parts = 1;
        cosine_range(&c, 0, c.n, c.acc[0], c.cursor[0]);
    }
    Py_END_ALLOW_THREADS
    result = PyLong_FromLong(parts);
done:
    for (int part = 0; part < 2; part++) {
        PyMem_Free(c.acc[part]);
        PyMem_Free(c.cursor[part]);
    }
    for (int a = 0; a < 8; a++)
        PyBuffer_Release(&b[a]);
    return result;
}

/* The Ward loop keeps one bound per block of WARD_BLOCK slots and fetches
 * the strided column entries it walks WARD_AHEAD slots ahead. */
#define WARD_BLOCK 32
#define WARD_AHEAD 16
/* With two threads, a merge's pass splits WARD_SHARE percent of the way up
 * the active slots, rounded down to a block: a slot k < i walks two strided
 * column entries, a slot i < k < j one and a slot k > j none, so the first
 * slots cost more.  On 3,000 to 6,000 cap-shaped users (2 vCPUs, gcc) 40
 * was the fastest of 25 to 55 percent, by 1-3%. */
#define WARD_SHARE 40
/* The message of the input the first bounds reject, as the numpy loop
 * words it. */
#define WARD_BAD_INPUT "distances must be finite and nonnegative, with finite squares"
#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(p) __builtin_prefetch(p)
#else
#define PREFETCH(p) ((void)0)
#endif

/* Smallest of the len entries at `run`, or inf; the scan stops at the first
 * entry equal to `floor`, a lower bound on them, which is their minimum. */
static double
run_minimum(const double *run, Py_ssize_t len, double floor)
{
    double best = INFINITY;
    for (Py_ssize_t c = 0; c < len; c++)
        if (run[c] < best) {
            best = run[c];
            if (best == floor)
                break;
        }
    return best;
}

/* Smallest bound of the block that holds slot r. */
static double
block_minimum(const double *umin, Py_ssize_t r)
{
    return run_minimum(umin + r / WARD_BLOCK * WARD_BLOCK, WARD_BLOCK, -INFINITY);
}

/* The state of `ward_loop`, and the job its parts share: the first bounds
 * while `first` is set, then the merge of slots i < j at height g with the
 * active slots lo..n-1.  Part 0 takes the slots lo..split-1, part 1 the
 * rest; each flags its own bad input in the first bounds, bad[part], and
 * finds its own minima of rows i and j, row_i[part] and row_j[part]. */
typedef struct {
    double *D, *size, *umin, *bmin;
    const Py_ssize_t *off;
    char *stale;
    Py_ssize_t n, lo, i, j, split;
    double g, row_i[2], row_j[2];
    int first, bad[2];
} Ward;

/* The Lance-Williams update of the merge of clusters x and y at squared
 * linkage g, of sizes sx and sy, against a cluster of size s at squared
 * distances dx and dy from them; np.maximum(v, 0.0): NaN passes. */
static ALWAYS_INLINE double
ward_update(double sx, double sy, double s, double dx, double dy, double g)
{
    double v = ((sx + s) * dx + (sy + s) * dy - s * g) / ((sx + sy) + s);
    return v < 0.0 ? 0.0 : v;
}

/* One pass over the slots k in [first, stop) of the merge of slots i < j:
 * the merged cluster takes slot j, and the cluster of slot lo, whose row
 * lies wholly in its upper run, moves into slot i, unless i is lo.  Slot k
 * writes v, the update against the merged cluster, at its pair with j and
 * lo's pair with k at its pair with i, or, for k = lo, v at the pair (i, j).
 * So a row k < j gains v in its upper run for the pair with j it loses, a
 * row k < i also lo's pair for the one with i, and rows k > j keep theirs;
 * rows i and j get whole new upper runs.  When i is lo the move writes each
 * entry of row i onto itself, and row i is retired.  Slot k reads and
 * writes only entries of row k and of rows lo, i and j at column k, and
 * bounds of slot k, and the step of lo writes only D(i, j), which no slot
 * reads, so parts over slot ranges split at a multiple of WARD_BLOCK write
 * disjoint entries and block bounds. */
static void
ward_range(Ward *w, Py_ssize_t first, Py_ssize_t stop, int part)
{
    double *D = w->D, *umin = w->umin, *bmin = w->bmin;
    const double *size = w->size;
    const Py_ssize_t *off = w->off;
    char *stale = w->stale;
    Py_ssize_t lo = w->lo, i = w->i, j = w->j, k = first;
    const double *moved = D + off[lo];
    double si = size[i], sj = size[j], g = w->g, row_i = INFINITY, row_j = INFINITY;
    if (k == lo && k < stop) {
        if (i != lo) {
            row_i = ward_update(si, sj, size[lo], D[off[lo] + i], D[off[lo] + j], g);
            D[off[i] + j] = row_i;
        }
        k++;
    }
    /* rows k < i: their pairs with i and j, two strided entries */
    for (; k < stop && k < i; k++) {
        if (k + WARD_AHEAD < i) {
            PREFETCH(&D[off[k + WARD_AHEAD] + i]);
            PREFETCH(&D[off[k + WARD_AHEAD] + j]);
        }
        double old_i = D[off[k] + i], old_j = D[off[k] + j], in = moved[k];
        double v = ward_update(si, sj, size[k], old_i, old_j, g), low = umin[k];
        D[off[k] + i] = in;
        D[off[k] + j] = v;
        if (v < low)
            low = v;
        if (in < low)
            low = in;
        if (low < umin[k]) {
            umin[k] = low;
            stale[k] = 0;
            if (low < bmin[k / WARD_BLOCK])
                bmin[k / WARD_BLOCK] = low;
        }
        else if (umin[k] == old_i || umin[k] == old_j)
            stale[k] = 1;
    }
    if (k == i)
        k++;
    /* rows i < k < j: their pair with j, one strided entry */
    for (; k < stop && k < j; k++) {
        if (k + WARD_AHEAD < j)
            PREFETCH(&D[off[k + WARD_AHEAD] + j]);
        double old_j = D[off[k] + j], in = moved[k];
        double v = ward_update(si, sj, size[k], D[off[i] + k], old_j, g);
        D[off[i] + k] = in;
        D[off[k] + j] = v;
        if (in < row_i)
            row_i = in;
        if (v < umin[k]) {
            umin[k] = v;
            stale[k] = 0;
            if (v < bmin[k / WARD_BLOCK])
                bmin[k / WARD_BLOCK] = v;
        }
        else if (umin[k] == old_j)
            stale[k] = 1;
    }
    if (k == j)
        k++;
    /* rows k > j: rows i and j only, contiguous */
    for (; k < stop; k++) {
        double in = moved[k];
        double v = ward_update(si, sj, size[k], D[off[i] + k], D[off[j] + k], g);
        D[off[i] + k] = in;
        D[off[j] + k] = v;
        if (in < row_i)
            row_i = in;
        if (v < row_j)
            row_j = v;
    }
    w->row_i[part] = row_i;
    w->row_j[part] = row_j;
}

/* Squares the len distances at `run` in place and returns the smallest
 * square; sets *bad when a distance is negative or NaN or its square is
 * not finite, which also catches inf.  Four running minima keep the
 * compares off one dependency chain; the squares of accepted distances
 * hold no NaN and no -0.0, so their minimum is the same in any order. */
static double
square_run(double *run, Py_ssize_t len, int *bad)
{
    double best[4] = {INFINITY, INFINITY, INFINITY, INFINITY};
    int flag = 0;
    Py_ssize_t c = 0;
    for (; c + 4 <= len; c += 4)
        for (int k = 0; k < 4; k++) {
            double v = run[c + k], square = v * v;
            flag |= (v < 0.0) | !(square < INFINITY);
            run[c + k] = square;
            best[k] = square < best[k] ? square : best[k];
        }
    for (; c < len; c++) {
        double v = run[c], square = v * v;
        flag |= (v < 0.0) | !(square < INFINITY);
        run[c] = square;
        best[0] = square < best[0] ? square : best[0];
    }
    *bad |= flag;
    return run_minimum(best, 4, -INFINITY);
}

/* The first bounds, for the rows r in [first, stop): squares the
 * distances of row r's upper run and sets umin[r] to the smallest square.
 * Flags the part's input bad when a distance is not accepted. */
static void
ward_bounds(Ward *w, Py_ssize_t first, Py_ssize_t stop, int part)
{
    int bad = 0;
    for (Py_ssize_t r = first; r < stop; r++)
        w->umin[r] = square_run(w->D + w->off[r] + r + 1, w->n - r - 1, &bad);
    w->bad[part] = bad;
}

/* One part of the job: the first bounds of its rows, or the merge's pass
 * over its slots. */
static void
ward_part(void *ctx, int part)
{
    Ward *w = ctx;
    Py_ssize_t first = part ? w->split : w->lo, stop = part ? w->n : w->split;
    if (w->first)
        ward_bounds(w, first, stop, part);
    else
        ward_range(w, first, stop, part);
}

/* The Ward merge loop of `cobar.kernels.ward_linkage` on the condensed
 * distances D of n >= 2 clusters, where n - 1 is the length of `heights`.
 * The first bounds square every distance in place, and reject the input,
 * before any merge is written, when a distance is NaN, negative or
 * infinite or its square overflows; the loop then works on the squares.
 * Slots lo..n-1 hold the n - lo active clusters, pair r < c at
 * D[off[r] + c], and merge m retires slot lo = m: merging slots i < j
 * writes the Ward update into slot j's pairs and moves slot lo into slot i,
 * unless i is lo, in one pass (`ward_range`).  Row lo is contiguous, as
 * every active slot lies above it, and a row's upper run never shrinks.
 * Fills the n-1 merges and heights, each height the square root of a
 * merge's linkage, or stops at the first linkage that overflowed to inf
 * and writes the merges from there as -1 and their heights as inf.
 *
 * `_python.ward_loop` runs this loop vectorised over the slots, so each
 * step merges the same pair in the same slots with the same Lance-Williams
 * operands; the tie-break compares node ids, not slots.  umin[r] is a lower
 * bound on the minimum of slot r's upper run D[off[r] + r+1 .. off[r] +
 * n-1], exact unless stale[r], and inf for a retired slot; bmin holds the
 * smallest bound of each block of slots.  A merge keeps every bound valid:
 * a removed entry cannot lower a minimum, and a rewritten one either
 * becomes the row's exact minimum or is at least its bound.  A row whose
 * exact minimum left is marked stale.  Once every stale row at the
 * smallest bound g has been rescanned, g is the smallest distance and
 * every row holding a pair at g has the exact bound g, so the tie scan
 * reads only those rows.  A rescan reads one contiguous run, up to its
 * first entry equal to g.
 *
 * The search, the rescans and the tie scan run on the calling thread.  Above
 * WARD_FLOOR clusters, on two CPUs, the first bounds split at half the
 * entries, as the cosine pass splits, and while more than WARD_FLOOR slots
 * are active, a merge's pass runs in two parts, over the active slots below
 * and above WARD_SHARE percent of the way up.  Row i's and row j's minima
 * are the parts' taken in slot order, the first smallest as a serial scan
 * finds it, so the bits do not depend on the split.  After MAX_STALLS
 * stalls the loop runs on the calling thread alone.  Returns the number of
 * threads the loop started on. */
static PyObject *
ward_loop(PyObject *self, PyObject *args)
{
    Py_buffer d, merges_view, heights_view;
    if (!PyArg_ParseTuple(args, "w*w*w*:ward_loop", &d, &merges_view, &heights_view))
        return NULL;
    double *D = d.buf, *heights = heights_view.buf;
    int64_t *merges = merges_view.buf;
    Py_ssize_t n = heights_view.len / (Py_ssize_t)sizeof(double) + 1;
    Py_ssize_t n_blocks = (n + WARD_BLOCK - 1) / WARD_BLOCK;
    Py_ssize_t *off = NULL;
    int64_t *node_id = NULL;
    double *size = NULL, *umin = NULL, *bmin = NULL;
    char *stale = NULL;
    PyObject *result = NULL;
    off = PyMem_New(Py_ssize_t, n);
    node_id = PyMem_New(int64_t, n);
    size = PyMem_New(double, n);
    umin = PyMem_New(double, n_blocks * WARD_BLOCK);
    bmin = PyMem_New(double, n_blocks);
    stale = PyMem_Calloc(n_blocks * WARD_BLOCK, 1);
    if (!off || !node_id || !size || !umin || !bmin || !stale) {
        PyErr_NoMemory();
        goto done;
    }
    Ward w = {.D = D, .size = size, .umin = umin, .bmin = bmin, .off = off, .stale = stale, .n = n, .first = 1};
    int bad, threads;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t r = 0; r < n_blocks * WARD_BLOCK; r++)
        umin[r] = INFINITY;
    for (Py_ssize_t r = 0; r < n; r++) {
        off[r] = r * n - r * (r + 1) / 2 - r - 1;
        node_id[r] = r;
        size[r] = 1.0;
    }
    /* the worker runs while more than WARD_FLOOR slots are active; the
     * first bounds split as the cosine pass does, at half the pairs */
    Pair pair;
    int split = n > WARD_FLOOR && two_cpus() && pair_start(&pair, ward_part, &w);
    threads = 1 + split;
    if (split) {
        w.split = n - (Py_ssize_t)(n / sqrt(2.0));
        pair_run(&pair);
        /* a part of it takes milliseconds, and the worker has just started */
        pair.stalls = 0;
    }
    else
        ward_bounds(&w, 0, n, 0);
    w.first = 0;
    bad = w.bad[0] | w.bad[1];
    for (Py_ssize_t b = 0; b < n_blocks; b++)
        bmin[b] = block_minimum(umin, b * WARD_BLOCK);

    for (Py_ssize_t lo = 0; lo < n - 1 && !bad; lo++) {
        Py_ssize_t a = n - lo, low_block = lo / WARD_BLOCK;
        double g;
        int rescanned;
        do {
            g = INFINITY;
            for (Py_ssize_t b = low_block; b < n_blocks; b++)
                if (bmin[b] < g)
                    g = bmin[b];
            /* the stale rows at g: their bounds may be below their minima */
            rescanned = 0;
            for (Py_ssize_t b = low_block; b < n_blocks; b++) {
                if (bmin[b] != g)
                    continue;
                int here = 0;
                for (Py_ssize_t r = b * WARD_BLOCK; r < (b + 1) * WARD_BLOCK; r++)
                    if (umin[r] == g && stale[r]) {
                        umin[r] = run_minimum(D + off[r] + r + 1, n - r - 1, g);
                        stale[r] = 0;
                        here = 1;
                    }
                if (here) {
                    bmin[b] = block_minimum(umin, b * WARD_BLOCK);
                    rescanned = 1;
                }
            }
        } while (rescanned);

        /* all pairs at the minimum, lexicographic smallest id pair wins;
         * the first slot of each such pair has its upper run's minimum at g */
        Py_ssize_t i = -1, j = -1;
        int64_t low_id = 0, high_id = 0;
        for (Py_ssize_t b = low_block; b < n_blocks && g < INFINITY; b++) {
            if (bmin[b] != g)
                continue;
            for (Py_ssize_t r = b * WARD_BLOCK; r < (b + 1) * WARD_BLOCK; r++) {
                if (umin[r] != g)
                    continue;
                for (Py_ssize_t c = r + 1; c < n; c++) {
                    if (D[off[r] + c] != g)
                        continue;
                    int64_t x = node_id[r], y = node_id[c];
                    int64_t p = x < y ? x : y, q = x < y ? y : x;
                    if (i < 0 || p < low_id || (p == low_id && q < high_id)) {
                        low_id = p;
                        high_id = q;
                        i = r;
                        j = c;
                    }
                }
            }
        }
        if (i < 0) {
            /* the Ward updates overflowed: the entry rejects this height;
             * the merges not made are -1 and their heights inf */
            for (Py_ssize_t m = lo; m < n - 1; m++) {
                merges[2 * m] = merges[2 * m + 1] = -1;
                heights[m] = INFINITY;
            }
            break;
        }
        merges[2 * lo] = low_id;
        merges[2 * lo + 1] = high_id;
        heights[lo] = sqrt(g);

        w.lo = lo;
        w.i = i;
        w.j = j;
        w.g = g;
        double row_i, row_j;
        if (split && (a <= WARD_FLOOR || pair.stalls == MAX_STALLS)) {
            pair_stop(&pair);
            split = 0;
        }
        if (split) {
            w.split = (lo + a * WARD_SHARE / 100) / WARD_BLOCK * WARD_BLOCK;
            if (w.split < lo)
                w.split = lo;
            pair_run(&pair);
            row_i = w.row_i[1] < w.row_i[0] ? w.row_i[1] : w.row_i[0];
            row_j = w.row_j[1] < w.row_j[0] ? w.row_j[1] : w.row_j[0];
        }
        else {
            ward_range(&w, lo, n, 0);
            row_i = w.row_i[0];
            row_j = w.row_j[0];
        }
        size[j] += size[i];
        node_id[j] = n + lo;
        umin[j] = row_j;
        stale[j] = 0;
        if (i != lo) {
            size[i] = size[lo];
            node_id[i] = node_id[lo];
            umin[i] = row_i;
            stale[i] = 0;
        }
        umin[lo] = INFINITY;
        stale[lo] = 0;
        /* bounds i, j and lo may have risen */
        bmin[i / WARD_BLOCK] = block_minimum(umin, i);
        bmin[j / WARD_BLOCK] = block_minimum(umin, j);
        bmin[low_block] = block_minimum(umin, lo);
    }
    if (split)
        pair_stop(&pair);
    Py_END_ALLOW_THREADS
    if (bad)
        PyErr_SetString(PyExc_ValueError, WARD_BAD_INPUT);
    else
        result = PyLong_FromLong(threads);
done:
    PyMem_Free(off);
    PyMem_Free(node_id);
    PyMem_Free(size);
    PyMem_Free(umin);
    PyMem_Free(bmin);
    PyMem_Free(stale);
    PyBuffer_Release(&d);
    PyBuffer_Release(&merges_view);
    PyBuffer_Release(&heights_view);
    return result;
}

static PyObject *
sgd_epoch(PyObject *self, PyObject *args)
{
    Py_buffer b[8];
    double mean, lr, reg;
    if (!PyArg_ParseTuple(args, "y*y*y*y*w*w*w*w*ddd:sgd_epoch",
                          &b[0], &b[1], &b[2], &b[3], &b[4], &b[5], &b[6], &b[7], &mean, &lr, &reg))
        return NULL;
    const int32_t *users = b[0].buf, *items = b[1].buf;
    const double *ratings = b[2].buf;
    const int64_t *order = b[3].buf;
    double *user_factors = b[4].buf, *item_factors = b[5].buf;
    double *user_bias = b[6].buf, *item_bias = b[7].buf;
    Py_ssize_t n_samples = b[3].len / (Py_ssize_t)sizeof(int64_t);
    /* user_factors holds k doubles per user_bias entry */
    Py_ssize_t k = b[6].len ? b[4].len / b[6].len : 0;

    for (Py_ssize_t t = 0; t < n_samples; t++) {
        int64_t idx = order[t];
        int32_t u = users[idx], i = items[idx];
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
    for (int a = 0; a < 8; a++)
        PyBuffer_Release(&b[a]);
    Py_RETURN_NONE;
}

/* numpy's pairwise summation of a[0..n), as `np.sum` adds a contiguous
 * float64 array: in order from 0.0 below 8 terms, eight interleaved
 * accumulators up to 128, and two halves split at a multiple of 8 above. */
static double
pairwise_sum(const double *a, Py_ssize_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (Py_ssize_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        Py_ssize_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    Py_ssize_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* Similarity of `entity` (of norm `norm_e`) to neighbour `nb`, given their
 * dot product: 0 where the norms' product is not positive. */
static inline double
similarity(double dot, double norm_e, double norm_nb)
{
    double denom = norm_e * norm_nb;
    return denom > 0.0 ? dot / denom : 0.0;
}

/* A query loop bound to its arrays: `views` holds the buffers of a
 * `bind_*` call's arrays, released when the object is freed, and `k` and
 * the four work buffers, one allocation at `neighbours` freed with the
 * object, are the kNN query's; the four numbers after them are cobar's
 * prediction's.  A call reads the query's two indices, checks each
 * against its size, raising `error` worded by `format` for one out of
 * range, and runs `run` on them. */
typedef struct BoundQuery BoundQuery;

struct BoundQuery {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *(*run)(BoundQuery *, Py_ssize_t, Py_ssize_t);
    const char *names[2];   /* the indices, as an error names them */
    Py_ssize_t sizes[2];    /* index a lies in [0, sizes[a]) */
    PyObject *error;        /* borrowed: a built-in exception type */
    const char *format;     /* of the name, the index and its size */
    Py_ssize_t k;
    double *neighbours, *scratch, *sims, *terms;
    double global_mean, gamma, lo, hi;
    int n_views;
    Py_buffer views[9];
};

/* The error of index a of the query, `arg`, worded as the numpy query
 * words it with the index read by `operator.index`; NULL. */
static PyObject *
out_of_range(const BoundQuery *bound, int a, PyObject *arg)
{
    PyObject *value = PyNumber_Index(arg);
    if (value != NULL) {
        PyErr_Format(bound->error, bound->format, bound->names[a], value, bound->sizes[a]);
        Py_DECREF(value);
    }
    return NULL;
}

static PyObject *
bound_call(PyObject *op, PyObject *const *args, size_t nargsf, PyObject *kwnames)
{
    BoundQuery *self = (BoundQuery *)op;
    if (PyVectorcall_NARGS(nargsf) != 2 || (kwnames != NULL && PyTuple_GET_SIZE(kwnames) != 0)) {
        PyErr_SetString(PyExc_TypeError, "a bound query takes exactly 2 positional arguments");
        return NULL;
    }
    /* both indices are read before either is checked, as `operator.index`
     * reads them; one beyond Py_ssize_t is clipped to its end, so it is out
     * of range, not an OverflowError */
    Py_ssize_t a = PyNumber_AsSsize_t(args[0], NULL);
    if (a == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t b = PyNumber_AsSsize_t(args[1], NULL);
    if (b == -1 && PyErr_Occurred())
        return NULL;
    if (a < 0 || a >= self->sizes[0])
        return out_of_range(self, 0, args[0]);
    if (b < 0 || b >= self->sizes[1])
        return out_of_range(self, 1, args[1]);
    return self->run(self, a, b);
}

static void
bound_dealloc(PyObject *op)
{
    BoundQuery *self = (BoundQuery *)op;
    for (int a = 0; a < self->n_views; a++)
        PyBuffer_Release(&self->views[a]);
    PyMem_Free(self->neighbours);
    Py_TYPE(op)->tp_free(op);
}

static PyTypeObject BoundQueryType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "cobar.kernels._compiled.BoundQuery",
    .tp_basicsize = sizeof(BoundQuery),
    .tp_dealloc = bound_dealloc,
    .tp_vectorcall_offset = offsetof(BoundQuery, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "A query loop bound to its arrays, called with the query's two indices.",
};

/* A new BoundQuery of `run`, whose indices are named `first` and `second`,
 * zeroed: it holds no buffer yet, and its sizes are set with its buffers.
 * An index out of range raises the IndexError of the numpy query's
 * `_check_indices`. */
static BoundQuery *
bound_new(PyObject *(*run)(BoundQuery *, Py_ssize_t, Py_ssize_t), const char *first, const char *second)
{
    BoundQuery *self = (BoundQuery *)PyType_GenericAlloc(&BoundQueryType, 0);
    if (self == NULL)
        return NULL;
    self->vectorcall = bound_call;
    self->run = run;
    self->names[0] = first;
    self->names[1] = second;
    self->error = PyExc_IndexError;
    self->format = "%s %S out of range [0, %zd)";
    return self;
}

/* A scattered element costs about SCATTER_COST gathered ones: it is read,
 * added to and written back, then zeroed again (measured at 1.8-2.1 ns
 * against 1.0-1.1 ns per element on FilmTrust-shaped folds, x86-64, gcc). */
#define SCATTER_COST 2

/* The query of `_python.knn_query` on the CSR arrays of both axes, in the
 * work buffers of `bind_knn_query`, so a call allocates nothing.  The dot
 * products of `entity` with the entities rated in `column` are summed into
 * `neighbours`, one slot per position in the column, from the side that
 * visits fewer elements:
 *  - scatter: every rating of every column the entity rated is added, times
 *    the entity's rating there, to an entity-indexed `scratch`, which is
 *    read at the column's entities and zeroed again;
 *  - gather: the entity's ratings are written to a column-indexed
 *    `scratch`, each neighbour's row is walked against it, and the entity's
 *    entries are zeroed again.
 * Either way each dot product adds r_e,c * r_nb,c in ascending column c
 * from +0.0, as np.bincount adds them.  The gather also adds a +0.0 or
 * -0.0 product for each column of the neighbour's that the entity did not
 * rate; a sum of finite terms begun at +0.0 is never -0.0 under
 * round-to-nearest, so those terms change no bit.  `scratch` holds
 * max(entities, columns) zeros between calls; the GIL is held throughout,
 * so no other query can see it in between.  The top k go to `sims` and
 * `terms`.  Returns the weighted mean deviation of the top k positive
 * neighbours in `column`, or None when no neighbour is positive. */
static PyObject *
knn_query(BoundQuery *bound, Py_ssize_t entity, Py_ssize_t column)
{
    const Py_buffer *b = bound->views;
    Py_ssize_t k = bound->k;
    const int64_t *rp = b[0].buf, *cp = b[3].buf;
    const int32_t *ri = b[1].buf, *ci = b[4].buf;
    const double *rd = b[2].buf, *cd = b[5].buf, *norms = b[6].buf, *means = b[7].buf;
    double *neighbours = bound->neighbours, *scratch = bound->scratch, *sims = bound->sims, *terms = bound->terms;
    double norm_e = norms[entity];
    int64_t first = cp[column], end = cp[column + 1], lo = rp[entity], hi = rp[entity + 1];

    if (norm_e == 0.0 || first == end)
        Py_RETURN_NONE;
    /* each int32 index is widened as it is read: under Python's -fwrapv,
     * cp[ri[p] + 1] adds in 32 bits and extends the sum again, which made
     * the query 5-6% slower than on int64 indices (ft, gcc 12, x86-64) */
    int64_t scatter = 0, gather = hi - lo;
    for (int64_t p = lo; p < hi; p++) {
        int64_t c = ri[p];
        scatter += cp[c + 1] - cp[c];
    }
    for (int64_t q = first; q < end; q++) {
        int64_t nb = ci[q];
        gather += rp[nb + 1] - rp[nb];
    }
    if (SCATTER_COST * scatter <= gather) {
        for (int64_t p = lo; p < hi; p++) {
            int64_t c = ri[p];
            double w = rd[p];
            for (int64_t q = cp[c]; q < cp[c + 1]; q++)
                scratch[ci[q]] += w * cd[q];
        }
        for (int64_t q = first; q < end; q++)
            neighbours[q - first] = scratch[ci[q]];
        for (int64_t p = lo; p < hi; p++) {
            int64_t c = ri[p];
            for (int64_t q = cp[c]; q < cp[c + 1]; q++)
                scratch[ci[q]] = 0.0;
        }
    }
    else {
        for (int64_t p = lo; p < hi; p++)
            scratch[ri[p]] = rd[p];
        for (int64_t q = first; q < end; q++) {
            int64_t nb = ci[q];
            double dot = 0.0;
            for (int64_t p = rp[nb]; p < rp[nb + 1]; p++)
                dot += scratch[ri[p]] * rd[p];
            neighbours[q - first] = dot;
        }
        for (int64_t p = lo; p < hi; p++)
            scratch[ri[p]] = 0.0;
    }

    /* each neighbour's similarity in place of its dot product; the entity
     * itself is no neighbour */
    Py_ssize_t positive = 0;
    for (int64_t q = first; q < end; q++) {
        double s = ci[q] == entity ? 0.0 : similarity(neighbours[q - first], norm_e, norms[ci[q]]);
        neighbours[q - first] = s;
        if (s > 0.0)
            positive++;
    }
    Py_ssize_t m = positive < k ? positive : k;
    if (m == 0)
        Py_RETURN_NONE;
    /* the positive neighbours in column order; with more than k of them,
     * the top k by (-similarity, position), kept sorted by insertion, which
     * are the ones the stable argsort on -similarity picks, in its order */
    Py_ssize_t used = 0;
    for (int64_t q = first; q < end; q++) {
        double s = neighbours[q - first];
        if (!(s > 0.0))
            continue;
        double deviation = cd[q] - means[ci[q]];
        Py_ssize_t j;
        if (positive <= k)
            j = used++;
        else {
            if (used == k && !(s > sims[k - 1]))
                continue;
            for (j = used < k ? used++ : k - 1; j > 0 && sims[j - 1] < s; j--) {
                sims[j] = sims[j - 1];
                terms[j] = terms[j - 1];
            }
        }
        sims[j] = s;
        terms[j] = deviation;
    }
    for (Py_ssize_t j = 0; j < m; j++)
        terms[j] = sims[j] * terms[j];
    return PyFloat_FromDouble(pairwise_sum(terms, m) / pairwise_sum(sims, m));
}

/* The kNN query bound to the eight arrays of `cobar.kernels.KnnIndex`, in
 * the order `_python.knn_query` takes them, and k >= 1, with its work
 * buffers: one slot per position in the longest column for `neighbours`,
 * max(entities, columns) zeros for `scratch`, and min(k, longest column)
 * slots each for `sims` and `terms`.  Its entities are the norms', its
 * columns the column indptr's. */
static PyObject *
bind_knn_query(PyObject *module, PyObject *args)
{
    BoundQuery *bound = bound_new(knn_query, "entity", "column");
    if (bound == NULL)
        return NULL;
    Py_buffer *b = bound->views;
    /* on failure the parser releases the buffers it took */
    if (!PyArg_ParseTuple(args, "y*y*y*y*y*y*y*y*n:bind_knn_query", &b[0], &b[1], &b[2], &b[3], &b[4], &b[5],
                          &b[6], &b[7], &bound->k)) {
        Py_DECREF(bound);
        return NULL;
    }
    bound->n_views = 8;
    const int64_t *cp = b[3].buf;
    Py_ssize_t n_columns = b[3].len / (Py_ssize_t)sizeof(int64_t) - 1;
    Py_ssize_t n_entities = b[6].len / (Py_ssize_t)sizeof(double), longest = 0;
    bound->sizes[0] = n_entities;
    bound->sizes[1] = n_columns;
    for (Py_ssize_t c = 0; c < n_columns; c++)
        if (cp[c + 1] - cp[c] > longest)
            longest = cp[c + 1] - cp[c];
    Py_ssize_t width = n_entities > n_columns ? n_entities : n_columns;
    Py_ssize_t top = bound->k < longest ? bound->k : longest;
    bound->neighbours = PyMem_Calloc(longest + width + 2 * top, sizeof(double));
    if (bound->neighbours == NULL) {
        Py_DECREF(bound);
        return PyErr_NoMemory();
    }
    bound->scratch = bound->neighbours + longest;
    bound->sims = bound->scratch + width;
    bound->terms = bound->sims + top;
    return (PyObject *)bound;
}

/* Item i's ratings are index[i] <= k < index[i + 1], their leaf positions
 * `positions` ascending, and its gaps start at index[n_items + 1 + i]: gap
 * g of the item joins its ratings g and g + 1.  `nodes` holds the ranges
 * of leaf positions lows[v] <= p < highs[v] and the parents of the tree's
 * nodes, the leaves first.  Fills each gap's node, the lowest node holding
 * its two raters, and its entry (sum, sum of squares, min, max).  Walking
 * each item's ratings left to right, a gap's node is found by walking up
 * from the left rater's leaf until the node's range holds the right
 * rater; the gap then waits on a stack, holding its left range's entry,
 * until a gap of a higher node or the item's end closes its right range. */
static PyObject *
stats_build(PyObject *self, PyObject *args)
{
    Py_buffer b[6];
    if (!PyArg_ParseTuple(args, "y*y*y*y*w*w*:stats_build", &b[0], &b[1], &b[2], &b[3], &b[4], &b[5]))
        return NULL;
    const int64_t *ptr = b[0].buf, *lows = b[3].buf;
    const int32_t *positions = b[1].buf;
    Py_ssize_t n_items = b[0].len / (Py_ssize_t)(2 * sizeof(int64_t)) - 1;
    const int64_t *gptr = ptr + n_items + 1;
    const double *ratings = b[2].buf;
    Py_ssize_t n_nodes = b[3].len / (Py_ssize_t)(3 * sizeof(int64_t)), n_leaves = (n_nodes + 1) / 2;
    const int64_t *highs = lows + n_nodes, *parents = highs + n_nodes;
    int64_t *gap_nodes = b[4].buf;
    Py_ssize_t n_gaps = b[4].len / (Py_ssize_t)sizeof(int64_t);
    double *total = b[5].buf, *squares = total + n_gaps, *low = squares + n_gaps, *high = low + n_gaps;
    PyObject *result = NULL;
    Py_ssize_t most = 0;
    for (Py_ssize_t i = 0; i < n_items; i++)
        if (gptr[i + 1] - gptr[i] > most)
            most = gptr[i + 1] - gptr[i];
    Py_ssize_t *stack = PyMem_New(Py_ssize_t, most + 1);
    int64_t *leaf_at = PyMem_New(int64_t, n_leaves);
    if (!stack || !leaf_at) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t v = 0; v < n_leaves; v++)
        leaf_at[lows[v]] = v;
    for (Py_ssize_t i = 0; i < n_items; i++) {
        const double *r = ratings + ptr[i];
        const int32_t *p = positions + ptr[i];
        Py_ssize_t gaps = gptr[i + 1] - gptr[i], depth = 0;
        if (gaps == 0)
            continue;
        int64_t *node = gap_nodes + gptr[i];
        double *t = total + gptr[i], *q = squares + gptr[i], *lo = low + gptr[i], *hi = high + gptr[i];
        /* the entry of the range ending at the current rating */
        double cur_t = r[0], cur_q = r[0] * r[0], cur_lo = r[0], cur_hi = r[0];
        for (Py_ssize_t g = 0; g <= gaps; g++) {
            if (g < gaps) {
                int64_t v = leaf_at[p[g]];
                while (highs[v] <= p[g + 1])
                    v = parents[v];
                node[g] = v;
            }
            while (depth > 0 && (g == gaps || node[stack[depth - 1]] < node[g])) {
                Py_ssize_t s = stack[--depth];
                t[s] = t[s] + cur_t;
                q[s] = q[s] + cur_q;
                lo[s] = lo[s] < cur_lo ? lo[s] : cur_lo;   /* np.minimum */
                hi[s] = hi[s] > cur_hi ? hi[s] : cur_hi;   /* np.maximum */
                cur_t = t[s];
                cur_q = q[s];
                cur_lo = lo[s];
                cur_hi = hi[s];
            }
            if (g == gaps)
                break;
            t[g] = cur_t;
            q[g] = cur_q;
            lo[g] = cur_lo;
            hi[g] = cur_hi;
            stack[depth++] = g;
            cur_t = cur_lo = cur_hi = r[g + 1];
            cur_q = r[g + 1] * r[g + 1];
        }
    }
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(stack);
    PyMem_Free(leaf_at);
    for (int a = 0; a < 6; a++)
        PyBuffer_Release(&b[a]);
    return result;
}

/* First k in [lo, hi) with positions[k] >= x, or hi. */
static inline Py_ssize_t
lower_bound(const int32_t *positions, Py_ssize_t lo, Py_ssize_t hi, int64_t x)
{
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (positions[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The narrowest interval a walk found: its node, the node's count and
 * sum of the item's ratings, and its half-width. */
typedef struct {
    Py_ssize_t node, n;
    double half_width, total;
} Interval;

/* The walk of `_python._stats_walk` on the arrays of `stats_build`, the
 * first six views of a bound cobar query: the leaf positions, the node
 * ranges and parents `nodes` (3 rows) and the t quantiles by degrees of
 * freedom, for a leaf and an item its caller checked.  Returns 1 with the
 * narrowest interval in `best`, or 0 when no cluster on the leaf's path
 * holds two ratings of the item.  Both cobar runs walk through it, so
 * every backend has one walk. */
static int
stats_walk(const Py_buffer *buf, Py_ssize_t leaf, Py_ssize_t item, Interval *best)
{
    const int64_t *ptr = buf[0].buf, *gap_nodes = buf[2].buf, *lows = buf[4].buf;
    const int32_t *positions = buf[1].buf;
    const int64_t *gptr = ptr + buf[0].len / (Py_ssize_t)(2 * sizeof(int64_t));
    Py_ssize_t n_gaps = buf[2].len / (Py_ssize_t)sizeof(int64_t);
    Py_ssize_t n_nodes = buf[4].len / (Py_ssize_t)(3 * sizeof(int64_t));
    const int64_t *highs = lows + n_nodes, *parents = highs + n_nodes;
    const double *total = buf[3].buf, *squares = total + n_gaps, *low = squares + n_gaps, *high = low + n_gaps;
    const double *t_critical = buf[5].buf;
    Py_ssize_t start = ptr[item], end = ptr[item + 1];
    int found = 0;

    if (end - start < 2)
        return 0;
    Py_ssize_t to_gap = gptr[item] - start, top = -1;
    int64_t at = lows[leaf];
    Py_ssize_t a = lower_bound(positions, start, end, at);
    Py_ssize_t b = a < end && positions[a] == at ? a + 1 : a;
    for (int64_t node = parents[leaf]; node >= 0; node = parents[node]) {
        int64_t lo = lows[node], hi = highs[node];
        Py_ssize_t new_a = a > start && positions[a - 1] >= lo ? lower_bound(positions, start, a, lo) : a;
        Py_ssize_t new_b = b < end && positions[b] < hi ? lower_bound(positions, b, end, hi) : b;
        if (new_a == a && new_b == b)
            continue;
        if (a == b) {
            top = -1;
            for (Py_ssize_t k = to_gap + new_a; k < to_gap + new_b - 1; k++)
                if (top < 0 || gap_nodes[k] > gap_nodes[top])
                    top = k;
        }
        else
            top = to_gap + (new_a < a ? a - 1 : b - 1);
        a = new_a;
        b = new_b;
        Py_ssize_t n = b - a;
        if (n < 2)
            continue;
        double variance = 0.0;
        if (low[top] != high[top]) {
            variance = (squares[top] - total[top] * total[top] / (double)n) / (double)(n - 1);
            if (variance < 0.0)   /* max(variance, 0.0): NaN passes */
                variance = 0.0;
        }
        double hw = t_critical[n - 1] * sqrt(variance / (double)n);
        if (!found || hw < best->half_width) {
            found = 1;
            best->node = node;
            best->half_width = hw;
            best->n = n;
            best->total = total[top];
        }
    }
    return found;
}

/* The fallbacks of cobar's chain: the codes the detail run returns, in
 * the order of `cobar.core.Fallback`. */
enum { INTERVAL, SINGLE_RATING, COLD_ITEM, COLD_USER, UNCLUSTERED_USER };

/* A prediction of `cobar_answer`: its clamped value, fallback and user
 * mean, and for INTERVAL the chosen interval and its cluster's mean. */
typedef struct {
    double value, user_mean, mean;
    int fallback;
    Interval interval;
} Answer;

/* The chain of `_python.cobar_detail` for a user and an item the bound
 * call checked, on the views of `bind_cobar_query`: the walk's six, then
 * the user means, item means and leaves.  The blend and the clamp
 * keep the bits of the numpy run's Python floats. */
static void
cobar_answer(const BoundQuery *bound, Py_ssize_t user, Py_ssize_t item, Answer *out)
{
    const Py_buffer *buf = bound->views;
    const double *user_means = buf[6].buf, *item_means = buf[7].buf;
    const int64_t *leaf_of = buf[8].buf;
    double user_mean = user_means[user], value = user_mean;
    int64_t leaf = leaf_of[user];

    if (user_mean != user_mean) {   /* NaN: the user has no training rating */
        out->fallback = COLD_USER;
        value = bound->global_mean;
    }
    else if (leaf < 0)
        out->fallback = UNCLUSTERED_USER;
    else if (stats_walk(buf, leaf, item, &out->interval)) {
        out->fallback = INTERVAL;
        out->mean = out->interval.total / (double)out->interval.n;
        value = bound->gamma * user_mean + (1.0 - bound->gamma) * out->mean;
    }
    else if (item_means[item] != item_means[item])
        out->fallback = COLD_ITEM;
    else
        out->fallback = SINGLE_RATING;
    if (value < bound->lo)
        value = bound->lo;
    if (value > bound->hi)
        value = bound->hi;
    out->value = value;
    out->user_mean = user_mean;
}

/* `_python.cobar_value`: the prediction's float. */
static PyObject *
cobar_value(BoundQuery *bound, Py_ssize_t user, Py_ssize_t item)
{
    Answer answer;
    cobar_answer(bound, user, item, &answer);
    return PyFloat_FromDouble(answer.value);
}

/* `_python.cobar_detail`: (value, fallback, node, size, cluster_mean,
 * half_width, user_mean), the fallback's code an int, None where the
 * fallback has no such field; a node's size is its range of leaf
 * positions. */
static PyObject *
cobar_detail(BoundQuery *bound, Py_ssize_t user, Py_ssize_t item)
{
    Answer answer;
    cobar_answer(bound, user, item, &answer);
    if (answer.fallback == COLD_USER)
        return Py_BuildValue("(diOOOOO)", answer.value, answer.fallback, Py_None, Py_None, Py_None, Py_None,
                             Py_None);
    if (answer.fallback != INTERVAL)
        return Py_BuildValue("(diOOOOd)", answer.value, answer.fallback, Py_None, Py_None, Py_None, Py_None,
                             answer.user_mean);
    const int64_t *lows = bound->views[4].buf;
    Py_ssize_t node = answer.interval.node, n_nodes = bound->views[4].len / (Py_ssize_t)(3 * sizeof(int64_t));
    return Py_BuildValue("(dinnddd)", answer.value, answer.fallback, node,
                         (Py_ssize_t)(lows[n_nodes + node] - lows[node]), answer.mean, answer.interval.half_width,
                         answer.user_mean);
}

/* Cobar's prediction bound to the five arrays of
 * `cobar.kernels.ClusterStatsIndex` and one level's t quantiles, the user
 * means, item means and leaves, the global mean, gamma and the clamp
 * bounds, all held or built by `ClusterStatsIndex`: `cobar_detail` when
 * `detailed`, `cobar_value` otherwise.  Its users are the user means',
 * its items the item means', and an index out of range raises the
 * ValueError of `_PredictorMixin.predict`. */
static PyObject *
bind_cobar_query(PyObject *module, PyObject *args)
{
    BoundQuery *bound = bound_new(NULL, "user", "item");
    if (bound == NULL)
        return NULL;
    Py_buffer *b = bound->views;
    int detailed;
    if (!PyArg_ParseTuple(args, "y*y*y*y*y*y*y*y*y*ddddp:bind_cobar_query", &b[0], &b[1], &b[2], &b[3], &b[4],
                          &b[5], &b[6], &b[7], &b[8], &bound->global_mean, &bound->gamma, &bound->lo, &bound->hi,
                          &detailed)) {
        Py_DECREF(bound);
        return NULL;
    }
    bound->n_views = 9;
    bound->run = detailed ? cobar_detail : cobar_value;
    bound->error = PyExc_ValueError;
    bound->format = "%s index %S out of range";
    bound->sizes[0] = b[6].len / (Py_ssize_t)sizeof(double);
    bound->sizes[1] = b[7].len / (Py_ssize_t)sizeof(double);
    return (PyObject *)bound;
}

/* The whitespace `str.strip` drops from an id and `str.isspace` finds in a
 * blank line, within ASCII: \t \n \v \f \r, space and \x1c-\x1f. */
static inline int
is_str_space(unsigned char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r') || (c >= 0x1c && c <= 0x1f);
}

/* The narrower whitespace `float()` drops around a number: \t \n \v \f \r
 * and space.  It takes \x1c-\x1f for part of the token and rejects it. */
static inline int
is_float_space(unsigned char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/* First of the m-byte `delim` in [p, end) or NULL: `str.split` cuts its
 * fields at these, left to right, without overlap. */
static const unsigned char *
find_delimiter(const unsigned char *p, const unsigned char *end, const unsigned char *delim, Py_ssize_t m)
{
    while (end - p >= m) {
        const unsigned char *hit = memchr(p, delim[0], end - p - m + 1);
        if (hit == NULL || memcmp(hit + 1, delim + 1, m - 1) == 0)
            return hit;
        p = hit + 1;
    }
    return NULL;
}

/* The index of the ASCII id [p, end) in `index`, a dict from id to index
 * whose keys `ids` lists in first-seen order, adding the id if it is new;
 * -1 with an exception set on failure. */
static Py_ssize_t
id_index(PyObject *index, PyObject *ids, const unsigned char *p, const unsigned char *end)
{
    PyObject *key = PyUnicode_DecodeASCII((const char *)p, end - p, NULL);
    if (key == NULL)
        return -1;
    Py_ssize_t i = -1;
    PyObject *found = PyDict_GetItemWithError(index, key);
    if (found != NULL)
        i = PyLong_AsSsize_t(found);
    else if (!PyErr_Occurred()) {
        PyObject *value = PyLong_FromSsize_t(PyList_GET_SIZE(ids));
        if (value != NULL && PyDict_SetItem(index, key, value) == 0 && PyList_Append(ids, key) == 0)
            i = PyList_GET_SIZE(ids) - 1;
        Py_XDECREF(value);
    }
    Py_DECREF(key);
    return i;
}

/* Splits the bytes of a rating file into `users`, `items` and `ratings`,
 * one entry per record in line order, repeats kept, with room for one
 * entry per line.  Returns (user_ids, item_ids, records), the ids in
 * first-seen order, or None for an input outside the subset that reads as
 * `cobar.data.parse_ratings`'s line loop reads it: every byte ASCII after
 * an optional UTF-8 byte-order mark, every \r followed by \n, and every
 * line that is neither blank nor the skipped header holding non-empty ids
 * and a rating in its first three fields that `float()`'s parser reads
 * whole, with no underscore, to a finite value. */
static PyObject *
tokenize(PyObject *self, PyObject *args)
{
    Py_buffer text, delim, b[3];
    int skip_header;
    if (!PyArg_ParseTuple(args, "y*y*pw*w*w*:tokenize", &text, &delim, &skip_header, &b[0], &b[1], &b[2]))
        return NULL;
    const unsigned char *p = text.buf, *end = p + text.len, *sep = delim.buf;
    Py_ssize_t m = delim.len;
    int32_t *users = b[0].buf, *items = b[1].buf;
    double *ratings = b[2].buf;
    PyObject *user_index = PyDict_New(), *item_index = PyDict_New();
    PyObject *user_ids = PyList_New(0), *item_ids = PyList_New(0);
    PyObject *result = NULL;
    if (!user_index || !item_index || !user_ids || !item_ids)
        goto done;

    if (end - p >= 3 && memcmp(p, "\xef\xbb\xbf", 3) == 0)
        p += 3;
    for (const unsigned char *q = p; q < end; q++)
        if (*q >= 0x80 || (*q == '\r' && (q + 1 == end || q[1] != '\n')))
            goto outside;

    /* the previous record's user id and index */
    const unsigned char *last_user = NULL;
    Py_ssize_t last_len = 0, user = 0, n = 0;
    for (Py_ssize_t line_no = 1; p < end; line_no++) {
        const unsigned char *line = p, *stop = memchr(p, '\n', end - p);
        p = stop ? stop + 1 : end;
        if (!stop)
            stop = end;
        if (stop > line && stop[-1] == '\r')
            stop--;
        if (line_no == 1 && skip_header)
            continue;
        const unsigned char *s = line;
        while (s < stop && is_str_space(*s))
            s++;
        if (s == stop)
            continue;

        const unsigned char *cut1 = find_delimiter(line, stop, sep, m);
        const unsigned char *cut2 = cut1 ? find_delimiter(cut1 + m, stop, sep, m) : NULL;
        if (!cut2)
            goto outside;
        const unsigned char *cut3 = find_delimiter(cut2 + m, stop, sep, m);
        const unsigned char *us = line, *ue = cut1, *is = cut1 + m, *ie = cut2;
        const unsigned char *rs = cut2 + m, *re = cut3 ? cut3 : stop;
        while (us < ue && is_str_space(*us))
            us++;
        while (ue > us && is_str_space(ue[-1]))
            ue--;
        while (is < ie && is_str_space(*is))
            is++;
        while (ie > is && is_str_space(ie[-1]))
            ie--;
        while (rs < re && is_float_space(*rs))
            rs++;
        while (re > rs && is_float_space(re[-1]))
            re--;
        if (us == ue || is == ie)
            goto outside;

        /* As `float()` reads it: the same whitespace stripped, then its
         * parser run in place, the number taken only if it ends at `re`.
         * One that runs on into a delimiter such as `e` falls to the line
         * loop.  The parser stops at the NUL that ends every `bytes`, the
         * only type `cobar.kernels.tokenize` passes here, so the last
         * token of the file is bounded too. */
        char *parsed;
        double rating = PyOS_string_to_double((const char *)rs, &parsed, NULL);
        if (rating == -1.0 && PyErr_Occurred()) {
            if (!PyErr_ExceptionMatches(PyExc_ValueError))
                goto done;
            PyErr_Clear();
            goto outside;
        }
        if ((const unsigned char *)parsed != re || !isfinite(rating))
            goto outside;

        if (last_user == NULL || ue - us != last_len || memcmp(us, last_user, last_len) != 0) {
            user = id_index(user_index, user_ids, us, ue);
            if (user < 0)
                goto done;
            last_user = us;
            last_len = ue - us;
        }
        Py_ssize_t item = id_index(item_index, item_ids, is, ie);
        if (item < 0)
            goto done;
        users[n] = (int32_t)user;
        items[n] = (int32_t)item;
        ratings[n++] = rating;
    }
    result = Py_BuildValue("(OOn)", user_ids, item_ids, n);
    goto done;
outside:
    result = Py_NewRef(Py_None);
done:
    Py_XDECREF(user_index);
    Py_XDECREF(item_index);
    Py_XDECREF(user_ids);
    Py_XDECREF(item_ids);
    PyBuffer_Release(&text);
    PyBuffer_Release(&delim);
    for (int a = 0; a < 3; a++)
        PyBuffer_Release(&b[a]);
    return result;
}

static PyMethodDef methods[] = {
    {"csr_fill", csr_fill, METH_VARARGS,
     "csr_fill(keys, others, ratings, n_others, indptr, indices, data)\n--\n\n"
     "The layout of `cobar.kernels.csr_rows`, which allocates its arrays, by a counting sort."},
    {"cosine_rows", cosine_rows, METH_VARARGS,
     "cosine_rows(rows_indptr, rows_indices, rows_data, cols_indptr, cols_indices, cols_data, norms, dist)"
     "\n--\n\n"
     "The distance pass of `cobar.kernels.cosine_distance_matrix`, which lays out its arguments; returns"
     " the number of threads it ran on, 1 or 2."},
    {"ward_loop", ward_loop, METH_VARARGS,
     "ward_loop(d, merges, heights)\n--\n\n"
     "The merge loop of `cobar.kernels.ward_linkage`, which checks its arguments; returns the number of"
     " threads it started on, 1 or 2."},
    {"sgd_epoch", sgd_epoch, METH_VARARGS,
     "sgd_epoch(users, items, ratings, order, user_factors, item_factors, user_bias, item_bias,"
     " global_mean, learning_rate, regularization)\n--\n\n"
     "The epoch of `cobar.kernels.mf_sgd_epoch`, which checks its arguments."},
    {"bind_knn_query", bind_knn_query, METH_VARARGS,
     "bind_knn_query(rows_indptr, rows_indices, rows_data, cols_indptr, cols_indices, cols_data, norms, means,"
     " k)\n--\n\n"
     "The query of `cobar.kernels.KnnIndex`, which checks its arrays and k, bound to them, with work"
     " buffers of its own: a `query(entity, column)` that checks its two indices."},
    {"stats_build", stats_build, METH_VARARGS,
     "stats_build(index, positions, ratings, nodes, gap_nodes, gaps)\n--\n\n"
     "The build of `cobar.kernels.ClusterStatsIndex`, which lays out its arguments."},
    {"bind_cobar_query", bind_cobar_query, METH_VARARGS,
     "bind_cobar_query(index, positions, gap_nodes, gaps, nodes, t_critical, user_means, item_means, leaf_of,"
     " global_mean, gamma, lo, hi, detailed)\n--\n\n"
     "Cobar's prediction of `cobar.kernels.ClusterStatsIndex.bind`, whose index holds its arrays, bound to"
     " them: a `predict(user, item)` that checks its two indices and returns the float, or with `detailed`"
     " the fields of a `Prediction`, its fallback as a code."},
    {"tokenize", tokenize, METH_VARARGS,
     "tokenize(data, delimiter, skip_header, users, items, ratings)\n--\n\n"
     "The compiled tokenizer of `cobar.kernels.tokenize`, which sizes the three columns:"
     " (user_ids, item_ids, records), or None for an input the line loop must read."},
    {NULL, NULL, 0, NULL},
};

/* The layout of the loops' arguments, which `cobar.kernels` checks at
 * import.  Raise it with every change to an argument's type or order, or
 * to what a loop checks itself, so that an extension built from older
 * source is rejected instead of reading arguments laid out for another or
 * trusting a check no entry makes any more. */
#define LAYOUT 10

static int
exec_module(PyObject *module)
{
    if (PyType_Ready(&BoundQueryType) < 0)
        return -1;
    if (PyModule_AddIntConstant(module, "COSINE_FLOOR", COSINE_FLOOR) < 0
        || PyModule_AddIntConstant(module, "WARD_FLOOR", WARD_FLOOR) < 0)
        return -1;
    return PyModule_AddIntConstant(module, "LAYOUT", LAYOUT);
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, exec_module},
    {0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_compiled",
    "Compiled cosine distances, Ward merge loop, MF SGD epoch, kNN query, cluster statistics build, cobar's"
    " prediction, rating-file tokenizer and CSR layout.", 0, methods,
    slots,
};

PyMODINIT_FUNC
PyInit__compiled(void)
{
    return PyModuleDef_Init(&module);
}
