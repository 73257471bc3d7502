/*
 * Native kernel of the vectorized DES engine (engine="vectorized").
 *
 * One object owns the scheduler and the machine state of a simulation:
 *
 *   - the event queue: a binary heap of pending events ordered by
 *     (time, seq), where seq is a counter stamped at push time -- the
 *     exact order of the legacy heapq loop, so every outcome is
 *     bit-identical to repro.simulate.engine.Simulator;
 *   - the machine: NIC-out, NIC-in and CPU clocks, the busy and
 *     per-category byte/message columns (float64/int64 buffers owned by
 *     VecCommStats), and one open-addressing map from the rank pair
 *     src*n+dst to (latency, 1/bandwidth, jitter, channel FIFO clock),
 *     filled from Network.pair_params once per node pair;
 *   - the point route: a send pushes a receive event, the receive is
 *     handled here, and the delivery either calls cb(dst, None, aux)
 *     (send_pt) or is a message of
 *   - the symbolic PSelInv protocol: per-supernode tables (trees,
 *     countdowns, durations) loaded at window entry, Ainv readiness and
 *     waiting GEMMs; broadcasts, reductions, computes and cross sends
 *     run here, and Python is called only when a supernode retires.
 *
 * Handler ids: 0 calls fn(), 1 calls fn(arg), ids >= 2 call
 * table[id](arg); the negative ids are the native receive and delivery
 * stages of the point route and the protocol's compute completions.
 *
 * Every cost expression keeps the term order of repro.simulate.machine
 * (build with -O2 -fno-fast-math -ffp-contract=off), so the floats are
 * bit-identical.  The Python-side wrapper is repro/simulate/vec.py and
 * the builder repro/simulate/_native.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum {
    HID_CALL0 = 0, HID_CALL1 = 1, HID_RECV_PT = -1, HID_DELIV_PT = -2,
    HID_PROTO = -3
};

/* Clock and busy columns, in the order attach_machine takes them. */
enum {
    NIC_OUT, NIC_IN, CPU, NIC_OUT_BUSY, NIC_IN_BUSY, RECV_BUSY,
    COMPUTE_BUSY, NCLOCKS
};

typedef struct {
    double t;
    unsigned long long seq;
    long long nbytes;
    long long aux;
    PyObject *obj;  /* callable, handler argument or delivery callback
                       (NULL: a protocol message) */
    PyObject *obj2; /* argument of a HID_CALL1 event, else NULL */
    int hid;
    int dst;
    int cid;        /* category id; the op of a HID_PROTO event */
    int sn;         /* supernode of a protocol event (-1: cross-back) */
} Event;

typedef struct {
    long long key; /* src * nranks + dst, -1 = empty slot */
    double lat, ibw, jit, chan;
} Pair;

/* Open-addressing map of Pair records by key. */
typedef struct {
    Pair *pairs;
    Py_ssize_t pcap, pcount;
} PairMap;

typedef struct {
    double *sent;
    long long *count;
    double *recv;
    PyObject *sent_o, *count_o, *recv_o;
} Column;

/* A GEMM waiting for its Ainv block (a node of a per-block list). */
typedef struct {
    double sec;
    int rank, sn, idx, next;
} Waiter;

/* One live supernode's protocol tables (see "the symbolic PSelInv
 * protocol" below).  Collective c's tree occupies positions
 * cbase[c] .. cbase[c+1]-1 of rank/par/kptr/pend; par and kid hold
 * tree-local positions. */
typedef struct {
    int k, s, nb, nu, ng;
    const int *snode, *nrows;           /* the block CSR's rows of k */
    int *rowslot, *colslot;             /* grid row/col -> group / column slot */
    int *gptr, *gidx;                   /* blocks per row group */
    int *cbase, *rank, *par, *kptr, *kid, *pend;
    int *gl, *gpos;                     /* [nb * nu] GEMM countdowns */
    int *dl, *dpos;                     /* [ng] diagonal countdowns */
    long long *cbytes, *xbytes;         /* per collective; cross-send/back */
    double base, finish, *norm, *dc;
} Table;

typedef struct {
    PyObject_HEAD
    double now;
    unsigned long long seq;
    long long processed;
    Py_ssize_t depth_hw;
    Event *heap;
    Py_ssize_t size, cap;
    PyObject *table; /* list of handlers */
    /* machine state (nranks == 0: no machine attached) */
    int nranks;
    double inj_oh, inj_ibw, ej_ibw, recv_oh, deliver_oh;
    double *clk[NCLOCKS];
    PyObject *clk_o[NCLOCKS];
    PyObject *pair_params, *binder;
    Column *cols;
    Py_ssize_t ncols;
    PairMap pm;    /* rank pairs: parameters and channel clocks */
    PairMap nodes; /* node pairs: parameters (chan unused) */
    int *node;     /* [nranks] node of each rank */
    /* symbolic protocol (pr == 0: none attached) */
    int pr, pc, nsup, ntot, live, cat[6];
    double task_oh, rate;
    int *width, *blkptr, *blksn, *blknr; /* block CSR of every supernode */
    char *ready;                         /* [2 * ntot + nsup] */
    int *wq, wfree, wcap;                /* waiter list head, tail per id */
    Waiter *wpool;
    Table **tabs;                        /* [nsup], NULL unless live */
    int *posmap;                         /* [nranks] scratch, all -1 */
    PyObject *retire;
} Kernel;

/* -- event heap ---------------------------------------------------------- */

static inline int
before(const Event *a, const Event *b)
{
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

/* Push an event; steals the references to obj and obj2 (also on error). */
static int
push(Kernel *k, double t, int hid, PyObject *obj, PyObject *obj2,
     int dst, int cid, long long nbytes, long long aux, int sn)
{
    if (k->size == k->cap) {
        Py_ssize_t cap = k->cap ? 2 * k->cap : 1024;
        Event *h = PyMem_Realloc(k->heap, (size_t)cap * sizeof(Event));
        if (h == NULL) {
            Py_XDECREF(obj);
            Py_XDECREF(obj2);
            PyErr_NoMemory();
            return -1;
        }
        k->heap = h;
        k->cap = cap;
    }
    Event e;
    e.t = t;
    e.seq = k->seq++;
    e.nbytes = nbytes;
    e.aux = aux;
    e.obj = obj;
    e.obj2 = obj2;
    e.hid = hid;
    e.dst = dst;
    e.cid = cid;
    e.sn = sn;
    Event *h = k->heap;
    Py_ssize_t i = k->size++;
    while (i > 0) {
        Py_ssize_t p = (i - 1) >> 1;
        if (!before(&e, &h[p]))
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = e;
    return 0;
}

static void
pop(Kernel *k, Event *out)
{
    Event *h = k->heap;
    *out = h[0];
    Py_ssize_t n = --k->size;
    if (n == 0)
        return;
    Event last = h[n];
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && before(&h[c + 1], &h[c]))
            c++;
        if (!before(&h[c], &last))
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = last;
}

static void
clear_events(Kernel *k)
{
    /* Detach the heap first: a decref may run arbitrary code. */
    Event *h = k->heap;
    Py_ssize_t n = k->size;
    k->heap = NULL;
    k->size = k->cap = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_XDECREF(h[i].obj);
        Py_XDECREF(h[i].obj2);
    }
    PyMem_Free(h);
}

/* Handler-table size (0 once tp_clear has dropped the table). */
static inline Py_ssize_t
ntable(Kernel *k)
{
    return k->table ? PyList_GET_SIZE(k->table) : 0;
}

/* -- machine helpers ----------------------------------------------------- */

static int
need_machine(Kernel *k)
{
    if (k->nranks == 0) {
        PyErr_SetString(PyExc_RuntimeError, "no machine attached to the kernel");
        return -1;
    }
    return 0;
}

static int
check_rank(Kernel *k, long r)
{
    if (r < 0 || r >= k->nranks) {
        PyErr_Format(PyExc_IndexError, "rank %ld out of range [0, %d)", r,
                     k->nranks);
        return -1;
    }
    return 0;
}

/* Data pointer of a writable, contiguous 8-byte buffer of >= n items
 * ('d' float64, or an int64 code when is_int).  The caller keeps a
 * reference to the exporter, which pins the memory (a numpy array
 * cannot be resized while referenced elsewhere). */
static void *
buffer_ptr(PyObject *o, int is_int, Py_ssize_t n)
{
    Py_buffer v;
    if (PyObject_GetBuffer(o, &v, PyBUF_WRITABLE | PyBUF_FORMAT |
                                      PyBUF_C_CONTIGUOUS) < 0)
        return NULL;
    const char *f = v.format ? v.format : "B";
    char code = f[0] ? f[strlen(f) - 1] : 'B';
    int ok = v.itemsize == 8 && v.len >= n * 8 &&
             (is_int ? (code == 'q' || code == 'l') : code == 'd');
    void *p = v.buf;
    PyBuffer_Release(&v);
    if (!ok) {
        PyErr_Format(PyExc_TypeError,
                     "expected a writable contiguous %s buffer of >= %zd items",
                     is_int ? "int64" : "float64", n);
        return NULL;
    }
    return p;
}

/* The category column set of cid, binding the sent (recv == 0) or
 * received (recv == 1) columns through the Python binder on first use,
 * so CommStats gains its keys in the legacy machine's order. */
static Column *
column(Kernel *k, int cid, int recv)
{
    if (cid < 0) {
        PyErr_Format(PyExc_IndexError, "category id %d out of range", cid);
        return NULL;
    }
    if (cid >= k->ncols) {
        Py_ssize_t n = cid + 8;
        Column *c = PyMem_Realloc(k->cols, (size_t)n * sizeof(Column));
        if (c == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        memset(c + k->ncols, 0, (size_t)(n - k->ncols) * sizeof(Column));
        k->cols = c;
        k->ncols = n;
    }
    if (recv ? k->cols[cid].recv != NULL : k->cols[cid].sent != NULL)
        return &k->cols[cid];
    PyObject *r = PyObject_CallFunction(k->binder, "ii", cid, recv);
    if (r == NULL)
        return NULL;
    if (cid >= k->ncols) { /* the binder cleared the kernel */
        Py_DECREF(r);
        PyErr_SetString(PyExc_RuntimeError, "kernel cleared while binding");
        return NULL;
    }
    Column *c = &k->cols[cid];
    if (recv) {
        double *p = buffer_ptr(r, 0, k->nranks);
        if (p == NULL) {
            Py_DECREF(r);
            return NULL;
        }
        Py_XSETREF(c->recv_o, r);
        c->recv = p;
        return c;
    }
    PyObject *s, *n;
    if (!PyArg_ParseTuple(r, "OO;binder must return (sent, counts)", &s, &n)) {
        Py_DECREF(r);
        return NULL;
    }
    double *ps = buffer_ptr(s, 0, k->nranks);
    long long *pn = ps ? buffer_ptr(n, 1, k->nranks) : NULL;
    if (pn == NULL) {
        Py_DECREF(r);
        return NULL;
    }
    Py_INCREF(s);
    Py_INCREF(n);
    Py_XSETREF(c->sent_o, s);
    Py_XSETREF(c->count_o, n);
    c->sent = ps;
    c->count = pn;
    Py_DECREF(r);
    return c;
}

static inline size_t
pair_slot(PairMap *m, long long key)
{
    size_t mask = (size_t)m->pcap - 1;
    unsigned long long h = (unsigned long long)key * 0x9E3779B97F4A7C15ULL;
    size_t i = (size_t)(h ^ (h >> 29)) & mask;
    while (m->pairs[i].key != key && m->pairs[i].key >= 0)
        i = (i + 1) & mask;
    return i;
}

static Pair *
pair_get(PairMap *m, long long key)
{
    if (m->pcap == 0)
        return NULL;
    Pair *p = &m->pairs[pair_slot(m, key)];
    return p->key == key ? p : NULL;
}

/* Insert rec (its key absent from m); returns the stored record. */
static Pair *
pair_put(PairMap *m, const Pair *rec)
{
    if (2 * (m->pcount + 1) > m->pcap) {
        Py_ssize_t cap = m->pcap ? 2 * m->pcap : 256, ocap = m->pcap;
        Pair *old = m->pairs, *p = PyMem_Malloc((size_t)cap * sizeof(Pair));
        if (p == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        for (Py_ssize_t i = 0; i < cap; i++)
            p[i].key = -1;
        m->pairs = p;
        m->pcap = cap;
        for (Py_ssize_t i = 0; i < ocap; i++)
            if (old[i].key >= 0)
                m->pairs[pair_slot(m, old[i].key)] = old[i];
        PyMem_Free(old);
    }
    Pair *p = &m->pairs[pair_slot(m, rec->key)];
    *p = *rec;
    m->pcount++;
    return p;
}

static void
pairs_clear(PairMap *m)
{
    PyMem_Free(m->pairs);
    m->pairs = NULL;
    m->pcap = m->pcount = 0;
}

/* The (lat, 1/bw, jitter, channel clock) record of src -> dst.  The
 * parameters depend only on the two ranks' nodes, so Network.pair_params
 * is asked once per node pair. */
static Pair *
pair(Kernel *k, int src, int dst)
{
    long long key = (long long)src * k->nranks + dst;
    Pair *p = pair_get(&k->pm, key);
    if (p != NULL)
        return p;
    Pair rec = {(long long)k->node[src] * k->nranks + k->node[dst]};
    Pair *q = pair_get(&k->nodes, rec.key);
    if (q != NULL)
        rec = *q;
    else {
        PyObject *r = PyObject_CallFunction(k->pair_params, "ii", src, dst);
        if (r == NULL)
            return NULL;
        int ok = PyArg_ParseTuple(r, "ddd;pair_params must return 3 floats",
                                  &rec.lat, &rec.ibw, &rec.jit);
        Py_DECREF(r);
        if (!ok || pair_put(&k->nodes, &rec) == NULL)
            return NULL;
    }
    rec.key = key;
    rec.chan = 0.0;
    return pair_put(&k->pm, &rec);
}

/* Sender side of one message: category tallies, the NIC injection
 * chain, transit and the per-channel FIFO clamp (Machine.post_send).
 * inj/transit < 0 means "compute inline from the network constants". */
static int
transmit(Kernel *k, int src, int dst, long long nbytes, int cid,
         double inj, double transit, double *start_o, double *finish_o,
         double *arrival_o)
{
    Column *c = column(k, cid, 0);
    if (c == NULL)
        return -1;
    c->sent[src] += (double)nbytes;
    c->count[src] += 1;
    if (inj < 0)
        inj = k->inj_oh + (double)nbytes * k->inj_ibw;
    double now = k->now;
    double nic = k->clk[NIC_OUT][src];
    double start = nic > now ? nic : now;
    double finish = start + inj;
    k->clk[NIC_OUT][src] = finish;
    k->clk[NIC_OUT_BUSY][src] += inj;
    Pair *p = pair(k, src, dst);
    if (p == NULL)
        return -1;
    double arrival;
    if (transit < 0)
        arrival = finish + (p->lat + (double)nbytes * p->ibw) * p->jit;
    else
        arrival = finish + transit;
    /* MPI-style non-overtaking per (src, dst) channel. */
    if (arrival < p->chan)
        arrival = p->chan;
    p->chan = arrival;
    if (start_o) {
        *start_o = start;
        *finish_o = finish;
    }
    *arrival_o = arrival;
    return 0;
}

/* Receiver side (Machine._receive): NIC ejection, then the receive
 * overhead on the CPU.  out = (nic_start, nic_done, start, deliver_at). */
static int
receive(Kernel *k, int dst, long long nbytes, int cid, double eject,
        double *out)
{
    Column *c = column(k, cid, 1);
    if (c == NULL)
        return -1;
    c->recv[dst] += (double)nbytes;
    if (eject < 0)
        eject = (double)nbytes * k->ej_ibw;
    double now = k->now;
    double nic = k->clk[NIC_IN][dst];
    double nic_start = nic > now ? nic : now;
    double nic_done = nic_start + eject;
    k->clk[NIC_IN][dst] = nic_done;
    k->clk[NIC_IN_BUSY][dst] += eject;
    double oh = k->recv_oh;
    double cpu = k->clk[CPU][dst];
    double start = cpu > nic_done ? cpu : nic_done;
    double deliver_at = start + oh;
    k->clk[CPU][dst] = deliver_at;
    k->clk[RECV_BUSY][dst] += oh;
    out[0] = nic_start;
    out[1] = nic_done;
    out[2] = start;
    out[3] = deliver_at;
    return 0;
}

/* Occupy rank's CPU for seconds (Machine.post_compute); returns start. */
static inline double
occupy(Kernel *k, int rank, double seconds)
{
    double now = k->now;
    double cpu = k->clk[CPU][rank];
    double start = cpu > now ? cpu : now;
    k->clk[CPU][rank] = start + seconds;
    k->clk[COMPUTE_BUSY][rank] += seconds;
    return start;
}

/* One point-route send: a Python delivery callback cb(dst, None, aux)
 * (send_pt), or a protocol message (cb NULL, see below). */
static int
send_point(Kernel *k, int src, int dst, long long nbytes, int cid,
           PyObject *cb, long long aux, int sn)
{
    double arrival;
    int hid;
    if (src == dst) {
        arrival = k->now;
        hid = HID_DELIV_PT;
    }
    else {
        if (transmit(k, src, dst, nbytes, cid, -1.0, -1.0, NULL, NULL,
                     &arrival) < 0)
            return -1;
        hid = HID_RECV_PT;
    }
    Py_XINCREF(cb);
    return push(k, arrival, hid, cb, NULL, dst, cid, nbytes, aux, sn);
}

/* -- the symbolic PSelInv protocol ---------------------------------------- *
 *
 * The dataflow of repro.core.pselinv (symbolic runs without hooks), with
 * no Python between window entry (load) and retirement.  Collective c of
 * supernode K is 0 = diag-bcast, 1 + x = col-bcast of block x, 1 + nb + x
 * = row-reduce of block x, 2 nb + 1 = col-reduce.  A protocol message is
 * a point-route event with no callback: sn = K and aux = c << 32 | tree
 * position (a cross-send is a delivery at the col-bcast root: its start),
 * or sn = -1 and aux = the readiness id a cross-back marks.  A HID_PROTO
 * event is a compute completion or the diag-bcast start, its op in cid.
 * Readiness ids are dense: block b of the block CSR owns L(J,K) = b and
 * U(K,J) = ntot + b; Ainv(K,K) is 2 ntot + K.  Every push happens in the
 * order of the per-message protocol, so (time, seq) is bit-identical.
 */

enum { OP_START, OP_BASE, OP_NORM, OP_GEMM, OP_DIAG, OP_FINISH };
enum { C_DB, C_CB, C_RR, C_CR, C_CS, C_XB }; /* category slots */

/* Occupy rank's CPU for sec, then run op at the finish time. */
static int
post_op(Kernel *k, int rank, double sec, int op, int sn, long long aux)
{
    double finish = occupy(k, rank, sec) + sec;
    return push(k, finish, HID_PROTO, NULL, NULL, rank, op, 0, aux, sn);
}

static inline long long
target(int c, int y)
{
    return (long long)c << 32 | (unsigned)y;
}

/* Readiness id of Ainv(J,I): a binary search in the block list of
 * supernode min(J, I); -1 (with an exception) if no supernode makes it. */
static int
rid_of(Kernel *k, int j, int i)
{
    if (j == i)
        return 2 * k->ntot + i;
    int s = j < i ? j : i, t = j < i ? i : j;
    int lo = k->blkptr[s], hi = k->blkptr[s + 1], end = hi;
    while (lo < hi) {
        int mid = (lo + hi) / 2;
        if (k->blksn[mid] < t)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo == end || k->blksn[lo] != t) {
        PyErr_Format(PyExc_RuntimeError, "no supernode produces Ainv(%d, %d)",
                     j, i);
        return -1;
    }
    return j > i ? lo : k->ntot + lo;
}

/* Ainv block rid is ready: post its waiting GEMMs in arrival order. */
static int
mark_ready(Kernel *k, int rid)
{
    int w = k->wq[2 * rid];
    k->ready[rid] = 1;
    k->wq[2 * rid] = -1;
    while (w >= 0) {
        Waiter *p = &k->wpool[w];
        int next = p->next;
        p->next = k->wfree; /* back to the free list; *p stays intact */
        k->wfree = w;
        if (post_op(k, p->rank, p->sec, OP_GEMM, p->sn, p->idx) < 0)
            return -1;
        w = next;
    }
    return 0;
}

/* Queue a GEMM until Ainv block rid is ready (wq: head, tail per id). */
static int
wait_for(Kernel *k, int rid, Waiter w)
{
    int i = k->wfree, *q = &k->wq[2 * rid];
    if (i < 0) { /* grow the pool; the new nodes form the free list */
        int cap = k->wcap ? 2 * k->wcap : 256;
        Waiter *p = PyMem_Realloc(k->wpool, (size_t)cap * sizeof(Waiter));
        if (p == NULL)
            return PyErr_NoMemory(), -1;
        for (int j = k->wcap; j < cap; j++)
            p[j].next = j + 1 < cap ? j + 1 : -1;
        k->wpool = p;
        i = k->wcap;
        k->wcap = cap;
    }
    k->wfree = k->wpool[i].next;
    w.next = -1;
    k->wpool[i] = w;
    *(q[0] < 0 ? &q[0] : &k->wpool[q[1]].next) = i;
    q[1] = i;
    return 0;
}

/* A broadcast reached position y of collective c: forward to the
 * children in ascending position, then run the local work. */
static int
bcast_deliver(Kernel *k, Table *t, int c, int y)
{
    int B = t->cbase[c], rank = t->rank[B + y], pc = k->pc, sn = t->k;
    for (int e = t->kptr[B + y]; e < t->kptr[B + y + 1]; e++)
        if (send_point(k, rank, t->rank[B + t->kid[e]], t->cbytes[c],
                       k->cat[c ? C_CB : C_DB], NULL, target(c, t->kid[e]),
                       sn) < 0)
            return -1;
    /* The blocks of this rank's grid row (its row group). */
    int g = t->rowslot[rank / pc], u = t->colslot[rank % pc];
    int lo = g < 0 ? 0 : t->gptr[g], hi = g < 0 ? 0 : t->gptr[g + 1];
    if (c == 0) {
        /* diag-bcast: the base term at the diagonal owner, then the
         * normalizations of the L(I,K) blocks this rank owns. */
        if (rank == (sn % k->pr) * pc + sn % pc &&
            post_op(k, rank, t->base, OP_BASE, sn, 0) < 0)
            return -1;
        for (int e = lo; rank % pc == sn % pc && e < hi; e++)
            if (post_op(k, rank, t->norm[t->gidx[e]], OP_NORM, sn,
                        t->gidx[e]) < 0)
                return -1;
        return 0;
    }
    /* col-bcast of block c - 1: one GEMM per row block J of the row
     * group, each once Ainv(J,I) is ready. */
    double a = 2.0 * t->nrows[c - 1];
    for (int e = lo; u >= 0 && e < hi; e++) {
        int x = t->gidx[e], rid = rid_of(k, t->snode[x], t->snode[c - 1]);
        Waiter w = {k->task_oh + ((a * t->nrows[x]) * t->s) / k->rate, rank,
                    sn, x * t->nu + u};
        if (rid < 0 || (k->ready[rid]
                            ? post_op(k, rank, w.sec, OP_GEMM, sn, w.idx)
                            : wait_for(k, rid, w)) < 0)
            return -1;
    }
    return 0;
}

/* Reduction position y of collective c has all its inputs. */
static int
reduce_finish(Kernel *k, Table *t, int c, int y)
{
    int B = t->cbase[c], nb = t->nb, pc = k->pc, sn = t->k;
    if (y)
        return send_point(k, t->rank[B + y], t->rank[B + t->par[B + y]],
                          t->cbytes[c], k->cat[c > 2 * nb ? C_CR : C_RR],
                          NULL, target(c, t->par[B + y]), sn);
    if (c > 2 * nb) /* col-reduce: finish Ainv(K,K) at the diagonal owner */
        return post_op(k, t->rank[B], t->finish, OP_FINISH, sn, 0);
    /* row-reduce of block x: Ainv(J,K) is ready at the owner of L(J,K);
     * cross it back to U(K,J) and add its diagonal contribution. */
    int x = c - 1 - nb, row = t->snode[x] % k->pr, b = k->blkptr[sn] + x;
    int dest = row * pc + sn % pc;
    if (mark_ready(k, b) < 0 ||
        send_point(k, dest, (sn % k->pr) * pc + t->snode[x] % pc,
                   t->xbytes[nb + x], k->cat[C_XB], NULL, k->ntot + b, -1) < 0)
        return -1;
    return post_op(k, dest, t->dc[x], OP_DIAG, sn, t->rowslot[row]);
}

/* One more input reached reduction position y of collective c. */
static inline int
reduce_count(Kernel *k, Table *t, int c, int y)
{
    return --t->pend[t->cbase[c] + y] ? 0 : reduce_finish(k, t, c, y);
}

/* A protocol message arrived (the point route's delivery stage). */
static int
proto_deliver(Kernel *k, int sn, long long aux)
{
    if (sn < 0) /* cross-back: U(K,J) is ready */
        return mark_ready(k, (int)aux);
    Table *t = k->tabs[sn];
    int c = (int)(aux >> 32), y = (int)(aux & 0xffffffff);
    if (t == NULL) /* the supernode has retired */
        return 0;
    return c <= t->nb ? bcast_deliver(k, t, c, y) : reduce_count(k, t, c, y);
}

/* A HID_PROTO event: a compute completion or the diag-bcast start. */
static int
proto_op(Kernel *k, Event *e)
{
    Table *t = k->tabs[e->sn];
    int x = (int)e->aux, sn = e->sn, pr = k->pr, pc = k->pc;
    if (e->cid == OP_FINISH) {
        /* Retire: free the tables (a block-free supernode has none),
         * mark Ainv(K,K) ready, then tell Python. */
        if (t != NULL) {
            k->tabs[sn] = NULL;
            k->live--;
            PyMem_Free(t);
        }
        if (mark_ready(k, 2 * k->ntot + sn) < 0)
            return -1;
        PyObject *r = PyObject_CallNoArgs(k->retire);
        Py_XDECREF(r);
        return r ? 0 : -1;
    }
    if (t == NULL)
        return 0;
    switch (e->cid) {
    case OP_START:
        return bcast_deliver(k, t, 0, 0);
    case OP_NORM: /* cross-send Lhat(I,K) to the col-bcast root */
        return send_point(k, (t->snode[x] % pr) * pc + sn % pc,
                          (sn % pr) * pc + t->snode[x] % pc, t->xbytes[x],
                          k->cat[C_CS], NULL, target(1 + x, 0), sn);
    case OP_GEMM:
        return --t->gl[x] ? 0
                          : reduce_count(k, t, 1 + t->nb + x / t->nu,
                                         t->gpos[x]);
    case OP_DIAG:
        return --t->dl[x] ? 0 : reduce_count(k, t, 2 * t->nb + 1, t->dpos[x]);
    }
    return 0; /* OP_BASE */
}

/* Drop the protocol state (tables, readiness, waiters). */
static void
clear_protocol(Kernel *k)
{
    for (int i = 0; k->tabs && i < k->nsup; i++)
        PyMem_Free(k->tabs[i]);
    void **bufs[] = {(void **)&k->width, (void **)&k->blkptr,
                     (void **)&k->blksn, (void **)&k->blknr,
                     (void **)&k->ready, (void **)&k->wq, (void **)&k->wpool,
                     (void **)&k->tabs, (void **)&k->posmap};
    for (size_t i = 0; i < sizeof bufs / sizeof bufs[0]; i++) {
        PyMem_Free(*bufs[i]);
        *bufs[i] = NULL;
    }
    k->pr = k->live = k->wcap = 0;
    k->wfree = -1;
    Py_CLEAR(k->retire);
}

/* -- argument helpers ---------------------------------------------------- */

static int
arg_rank(Kernel *k, PyObject *o, int *out)
{
    long r = PyLong_AsLong(o);
    if (r == -1 && PyErr_Occurred())
        return -1;
    if (check_rank(k, r) < 0)
        return -1;
    *out = (int)r;
    return 0;
}

static int
arg_int(PyObject *o, int *out)
{
    long v = PyLong_AsLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < INT_MIN || v > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "id out of range");
        return -1;
    }
    *out = (int)v;
    return 0;
}

static int
arg_ll(PyObject *o, long long *out)
{
    long long v = PyLong_AsLongLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static int
arg_double(PyObject *o, double *out)
{
    double v = PyFloat_AsDouble(o);
    if (v == -1.0 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static int
nargs_check(const char *name, Py_ssize_t n, Py_ssize_t lo, Py_ssize_t hi)
{
    if (n < lo || n > hi) {
        if (lo == hi)
            PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                         name, lo, n);
        else
            PyErr_Format(PyExc_TypeError,
                         "%s() takes %zd to %zd arguments (%zd given)", name,
                         lo, hi, n);
        return -1;
    }
    return 0;
}

/* Copy the n integers of sequence o, each in [lo, hi], into i32 (or i64
 * when i32 is NULL). */
static int
seq_copy(PyObject *o, Py_ssize_t n, int *i32, long long *i64, long long lo,
         long long hi, const char *what)
{
    PyObject *f = PySequence_Fast(o, what);
    if (f == NULL)
        return -1;
    Py_ssize_t i = 0, m = PySequence_Fast_GET_SIZE(f);
    for (; m == n && i < n; i++) {
        long long v = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(f, i));
        if ((v == -1 && PyErr_Occurred()) || v < lo || v > hi)
            break;
        if (i32)
            i32[i] = (int)v;
        else
            i64[i] = v;
    }
    Py_DECREF(f);
    if (m == n && i == n)
        return 0;
    if (!PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "%s: expected %zd integers in [%lld, %lld]",
                     what, n, lo, hi);
    return -1;
}

/* -- type slots ---------------------------------------------------------- */

static PyObject *
Kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Kernel *k = (Kernel *)type->tp_alloc(type, 0);
    if (k == NULL)
        return NULL;
    k->table = Py_BuildValue("[OO]", Py_None, Py_None);
    if (k->table == NULL) {
        Py_DECREF(k);
        return NULL;
    }
    return (PyObject *)k;
}

static int
Kernel_traverse(Kernel *k, visitproc visit, void *arg)
{
    Py_VISIT(k->table);
    Py_VISIT(k->pair_params);
    Py_VISIT(k->binder);
    Py_VISIT(k->retire);
    for (int i = 0; i < NCLOCKS; i++)
        Py_VISIT(k->clk_o[i]);
    for (Py_ssize_t i = 0; i < k->ncols; i++) {
        Py_VISIT(k->cols[i].sent_o);
        Py_VISIT(k->cols[i].count_o);
        Py_VISIT(k->cols[i].recv_o);
    }
    for (Py_ssize_t i = 0; i < k->size; i++) {
        Py_VISIT(k->heap[i].obj);
        Py_VISIT(k->heap[i].obj2);
    }
    return 0;
}

static int
Kernel_clear(Kernel *k)
{
    clear_events(k);
    clear_protocol(k);
    Py_CLEAR(k->table);
    Py_CLEAR(k->pair_params);
    Py_CLEAR(k->binder);
    k->nranks = 0;
    for (int i = 0; i < NCLOCKS; i++) {
        k->clk[i] = NULL;
        Py_CLEAR(k->clk_o[i]);
    }
    Column *cols = k->cols;
    Py_ssize_t ncols = k->ncols;
    k->cols = NULL;
    k->ncols = 0;
    for (Py_ssize_t i = 0; i < ncols; i++) {
        Py_XDECREF(cols[i].sent_o);
        Py_XDECREF(cols[i].count_o);
        Py_XDECREF(cols[i].recv_o);
    }
    PyMem_Free(cols);
    pairs_clear(&k->pm);
    pairs_clear(&k->nodes);
    PyMem_Free(k->node);
    k->node = NULL;
    return 0;
}

static void
Kernel_dealloc(Kernel *k)
{
    PyObject_GC_UnTrack(k);
    Kernel_clear(k);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

/* -- scheduler methods --------------------------------------------------- */

static PyObject *
past_error(Kernel *k, double t)
{
    PyObject *a = PyFloat_FromDouble(t), *b = PyFloat_FromDouble(k->now);
    if (a && b)
        PyErr_Format(PyExc_ValueError,
                     "cannot schedule in the past (t=%R < now=%R)", a, b);
    Py_XDECREF(a);
    Py_XDECREF(b);
    return NULL;
}

static PyObject *
schedule_call(Kernel *k, double t, PyObject *const *args, Py_ssize_t nargs)
{
    if (t < k->now)
        return past_error(k, t);
    PyObject *fn = args[1];
    Py_INCREF(fn);
    int rc;
    if (nargs == 2) {
        rc = push(k, t, HID_CALL0, fn, NULL, 0, 0, 0, 0, 0);
    }
    else {
        Py_INCREF(args[2]);
        rc = push(k, t, HID_CALL1, fn, args[2], 0, 0, 0, 0, 0);
    }
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_schedule(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    double delay;
    if (nargs_check("schedule", nargs, 2, 3) < 0 ||
        arg_double(args[0], &delay) < 0)
        return NULL;
    if (delay < 0) {
        PyErr_Format(PyExc_ValueError, "negative delay %R", args[0]);
        return NULL;
    }
    return schedule_call(k, k->now + delay, args, nargs);
}

static PyObject *
Kernel_schedule_at(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    double t;
    if (nargs_check("schedule_at", nargs, 2, 3) < 0 ||
        arg_double(args[0], &t) < 0)
        return NULL;
    return schedule_call(k, t, args, nargs);
}

static PyObject *
Kernel_schedule_msg(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    double t;
    int hid;
    if (nargs_check("schedule_msg", nargs, 3, 3) < 0 ||
        arg_double(args[0], &t) < 0 || arg_int(args[1], &hid) < 0)
        return NULL;
    if (hid < 0 || hid >= ntable(k)) {
        PyErr_Format(PyExc_ValueError, "unknown handler id %d", hid);
        return NULL;
    }
    if (t < k->now)
        return past_error(k, t);
    PyObject *a = args[2], *b = NULL;
    if (hid == HID_CALL1) { /* (fn, arg) pair */
        if (!PyArg_ParseTuple(a, "OO;handler 1 takes an (fn, arg) pair", &a,
                              &b))
            return NULL;
        Py_INCREF(b);
    }
    Py_INCREF(a);
    if (push(k, t, hid, a, b, 0, 0, 0, 0, 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_register_handler(Kernel *k, PyObject *fn)
{
    if (k->table == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "kernel cleared");
        return NULL;
    }
    if (PyList_Append(k->table, fn) < 0)
        return NULL;
    return PyLong_FromSsize_t(PyList_GET_SIZE(k->table) - 1);
}

/* Execute one popped event; returns 0, or -1 with an exception set. */
static int
dispatch(Kernel *k, Event *e)
{
    PyObject *res;
    int hid = e->hid;
    if (hid >= 2) {
        if (hid >= ntable(k)) {
            PyErr_Format(PyExc_RuntimeError, "unknown handler id %d", hid);
            res = NULL;
        }
        else {
            PyObject *fn = PyList_GET_ITEM(k->table, hid);
            Py_INCREF(fn);
            res = PyObject_CallOneArg(fn, e->obj);
            Py_DECREF(fn);
        }
    }
    else if (hid == HID_RECV_PT) {
        double out[4];
        if (receive(k, e->dst, e->nbytes, e->cid, -1.0, out) < 0) {
            Py_XDECREF(e->obj);
            return -1;
        }
        /* The delivery event inherits the callback reference. */
        return push(k, out[3], HID_DELIV_PT, e->obj, NULL, e->dst, e->cid,
                    e->nbytes, e->aux, e->sn);
    }
    else if (hid == HID_PROTO) {
        return proto_op(k, e);
    }
    else if (hid == HID_DELIV_PT) {
        if (k->deliver_oh > 0.0)
            occupy(k, e->dst, k->deliver_oh);
        if (e->obj == NULL)
            return proto_deliver(k, e->sn, e->aux);
        PyObject *argv[4];
        argv[1] = PyLong_FromLong(e->dst);
        argv[2] = Py_None;
        argv[3] = PyLong_FromLongLong(e->aux);
        if (argv[1] && argv[3])
            res = PyObject_Vectorcall(
                e->obj, argv + 1, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
        else
            res = NULL;
        Py_XDECREF(argv[1]);
        Py_XDECREF(argv[3]);
    }
    else if (hid == HID_CALL0) {
        res = PyObject_CallNoArgs(e->obj);
    }
    else {
        res = PyObject_CallOneArg(e->obj, e->obj2);
    }
    Py_DECREF(e->obj);
    Py_XDECREF(e->obj2);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static PyObject *
Kernel_run(Kernel *k, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_o = Py_None, *max_o = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO:run", kwlist, &until_o,
                                     &max_o))
        return NULL;
    int bounded = until_o != Py_None;
    double until = 0.0;
    if (bounded && arg_double(until_o, &until) < 0)
        return NULL;
    long long max_events = -1;
    if (max_o != Py_None && arg_ll(max_o, &max_events) < 0)
        return NULL;
    k->depth_hw = k->size;
    Event e;
    while (k->size > 0) {
        if (k->size > k->depth_hw)
            k->depth_hw = k->size;
        /* Horizon before budget: an event beyond ``until`` never runs,
         * so it must not trip the event budget. */
        if (bounded && k->heap[0].t > until)
            break;
        if (max_events >= 0 && k->processed >= max_events) {
            PyErr_Format(PyExc_RuntimeError,
                         "simulation exceeded %lld events -- likely a "
                         "protocol bug (deadlock would drain, livelock "
                         "would not)",
                         max_events);
            return NULL;
        }
        pop(k, &e);
        k->now = e.t;
        k->processed++;
        if (dispatch(k, &e) < 0)
            return NULL;
    }
    return PyFloat_FromDouble(k->now);
}

static PyObject *
Kernel_pending(Kernel *k, PyObject *unused)
{
    return PyLong_FromSsize_t(k->size);
}

static PyObject *
Kernel_clear_method(Kernel *k, PyObject *unused)
{
    clear_events(k);
    clear_protocol(k);
    pairs_clear(&k->pm);
    pairs_clear(&k->nodes);
    Py_RETURN_NONE;
}

/* -- machine methods ----------------------------------------------------- */

static PyObject *
Kernel_attach_machine(Kernel *k, PyObject *args)
{
    int nranks;
    double c[5];
    PyObject *pp, *binder, *nodes, *clocks;
    if (!PyArg_ParseTuple(args, "iddddd(OOO)O!:attach_machine", &nranks,
                          &c[0], &c[1], &c[2], &c[3], &c[4], &pp, &binder,
                          &nodes, &PyTuple_Type, &clocks))
        return NULL;
    if (k->nranks) {
        PyErr_SetString(PyExc_RuntimeError, "a machine is already attached");
        return NULL;
    }
    if (nranks <= 0 || PyTuple_GET_SIZE(clocks) != NCLOCKS) {
        PyErr_Format(PyExc_ValueError,
                     "need nranks > 0 and %d clock columns", NCLOCKS);
        return NULL;
    }
    double *ptr[NCLOCKS];
    for (int i = 0; i < NCLOCKS; i++) {
        ptr[i] = buffer_ptr(PyTuple_GET_ITEM(clocks, i), 0, nranks);
        if (ptr[i] == NULL)
            return NULL;
    }
    int *node = PyMem_Malloc((size_t)nranks * sizeof(int));
    if (node == NULL)
        return PyErr_NoMemory();
    if (seq_copy(nodes, nranks, node, NULL, 0, nranks - 1, "nodes") < 0) {
        PyMem_Free(node);
        return NULL;
    }
    k->node = node;
    for (int i = 0; i < NCLOCKS; i++) {
        k->clk[i] = ptr[i];
        k->clk_o[i] = Py_NewRef(PyTuple_GET_ITEM(clocks, i));
    }
    k->inj_oh = c[0];
    k->inj_ibw = c[1];
    k->ej_ibw = c[2];
    k->recv_oh = c[3];
    k->deliver_oh = c[4];
    k->pair_params = Py_NewRef(pp);
    k->binder = Py_NewRef(binder);
    k->nranks = nranks;
    Py_RETURN_NONE;
}

/* send_pt(src, dst, tag, nbytes, cid, cb, aux=0) */
static PyObject *
Kernel_send_pt(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    int src, dst, cid;
    long long nbytes, aux = 0;
    if (nargs_check("send_pt", nargs, 6, 7) < 0 || need_machine(k) < 0 ||
        arg_rank(k, args[0], &src) < 0 || arg_rank(k, args[1], &dst) < 0 ||
        arg_ll(args[3], &nbytes) < 0 || arg_int(args[4], &cid) < 0 ||
        (nargs == 7 && arg_ll(args[6], &aux) < 0))
        return NULL;
    if (send_point(k, src, dst, nbytes, cid, args[5], aux, 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* compute(rank, seconds) -> start: occupy the CPU, schedule nothing. */
static PyObject *
Kernel_compute(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    int rank;
    double seconds;
    if (nargs_check("compute", nargs, 2, 2) < 0 || need_machine(k) < 0 ||
        arg_rank(k, args[0], &rank) < 0 || arg_double(args[1], &seconds) < 0)
        return NULL;
    return PyFloat_FromDouble(occupy(k, rank, seconds));
}

/* transmit(src, dst, nbytes, cid[, inj, transit]) -> (start, finish,
 * arrival): the sender side of a generic-route message. */
static PyObject *
Kernel_transmit(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    int src, dst, cid;
    long long nbytes;
    double inj = -1.0, transit = -1.0, start, finish, arrival;
    if (nargs_check("transmit", nargs, 4, 6) < 0 || nargs == 5 ||
        need_machine(k) < 0 || arg_rank(k, args[0], &src) < 0 ||
        arg_rank(k, args[1], &dst) < 0 || arg_ll(args[2], &nbytes) < 0 ||
        arg_int(args[3], &cid) < 0 ||
        (nargs == 6 && (arg_double(args[4], &inj) < 0 ||
                        arg_double(args[5], &transit) < 0)))
        return NULL;
    if (transmit(k, src, dst, nbytes, cid, inj, transit, &start, &finish,
                 &arrival) < 0)
        return NULL;
    return Py_BuildValue("(ddd)", start, finish, arrival);
}

/* receive(dst, nbytes, cid[, eject]) -> (nic_start, nic_done, start,
 * deliver_at): the receiver side of a generic-route message. */
static PyObject *
Kernel_receive(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    int dst, cid;
    long long nbytes;
    double eject = -1.0, out[4];
    if (nargs_check("receive", nargs, 3, 4) < 0 || need_machine(k) < 0 ||
        arg_rank(k, args[0], &dst) < 0 || arg_ll(args[1], &nbytes) < 0 ||
        arg_int(args[2], &cid) < 0 ||
        (nargs == 4 && arg_double(args[3], &eject) < 0))
        return NULL;
    if (receive(k, dst, nbytes, cid, eject, out) < 0)
        return NULL;
    return Py_BuildValue("(dddd)", out[0], out[1], out[2], out[3]);
}

/* -- protocol methods ---------------------------------------------------- */

/* attach_protocol(pr, pc, cids, task_overhead, flop_rate, widths, blkptr,
 * blksn, blknr, retire): the grid, the six category ids, the cost
 * constants, the block CSR (snodes and row counts) of every supernode and
 * the retirement callback retire(). */
static PyObject *
Kernel_attach_protocol(Kernel *k, PyObject *args)
{
    int pr, pc, *cat = k->cat;
    double task_oh, rate;
    PyObject *l[4], *retire;
    if (!PyArg_ParseTuple(args, "ii(iiiiii)ddOOOOO:attach_protocol", &pr, &pc,
                          &cat[0], &cat[1], &cat[2], &cat[3], &cat[4], &cat[5],
                          &task_oh, &rate, &l[0], &l[1], &l[2], &l[3],
                          &retire) ||
        need_machine(k) < 0)
        return NULL;
    Py_ssize_t nsup = PySequence_Size(l[0]), ntot = PySequence_Size(l[2]);
    if (nsup < 0 || ntot < 0)
        return NULL;
    if (k->pr || pr <= 0 || pc <= 0 || (long long)pr * pc != k->nranks ||
        2 * ntot + nsup >= INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "protocol already attached, or the "
                                          "grid does not match the machine");
        return NULL;
    }
    Py_ssize_t nrid = 2 * ntot + nsup, n[] = {nsup, nsup + 1, ntot, ntot};
    long long hi[] = {INT_MAX, ntot, nsup - 1, INT_MAX};
    int **dst[] = {&k->width, &k->blkptr, &k->blksn, &k->blknr};
    k->pr = pr; /* from here on clear_protocol undoes a partial attach */
    k->pc = pc;
    k->nsup = (int)nsup;
    k->ntot = (int)ntot;
    k->task_oh = task_oh;
    k->rate = rate;
    k->wfree = -1;
    k->retire = Py_NewRef(retire);
    k->ready = PyMem_Calloc((size_t)nrid + 1, 1);
    k->tabs = PyMem_Calloc((size_t)nsup + 1, sizeof(Table *));
    k->wq = PyMem_Malloc(2 * ((size_t)nrid + 1) * sizeof(int));
    k->posmap = PyMem_Malloc((size_t)k->nranks * sizeof(int));
    if (!k->ready || !k->tabs || !k->wq || !k->posmap) {
        PyErr_NoMemory();
        goto fail;
    }
    memset(k->wq, 0xff, 2 * ((size_t)nrid + 1) * sizeof(int));
    memset(k->posmap, 0xff, (size_t)k->nranks * sizeof(int));
    for (int i = 0; i < 4; i++) {
        *dst[i] = PyMem_Malloc((size_t)(n[i] + 1) * sizeof(int));
        if (*dst[i] == NULL ? (PyErr_NoMemory(), 1)
                            : seq_copy(l[i], n[i], *dst[i], NULL, 0, hi[i],
                                       "attach_protocol") < 0)
            goto fail;
    }
    /* Each supernode's blocks: strictly ascending, below its diagonal. */
    int ok = k->blkptr[0] == 0 && k->blkptr[nsup] == ntot;
    for (int s = 0; ok && s < nsup; s++) {
        ok = k->blkptr[s] <= k->blkptr[s + 1];
        for (int b = k->blkptr[s]; ok && b < k->blkptr[s + 1]; b++)
            ok = k->blksn[b] > (b == k->blkptr[s] ? s : k->blksn[b - 1]);
    }
    if (ok)
        Py_RETURN_NONE;
    PyErr_SetString(PyExc_ValueError, "malformed block CSR");
fail:
    clear_protocol(k);
    return NULL;
}

/* load(k, sizes, ranks, parents, nbytes, xbytes): supernode k enters the
 * window.  sizes/nbytes per collective; ranks/parents per tree position
 * (construction order: root first with parent -1, parents before their
 * children); xbytes per block, the cross-sends then the cross-backs (all
 * empty for a block-free k). */
static PyObject *
Kernel_load(Kernel *k, PyObject *args)
{
    int sn;
    PyObject *sizes, *ranks, *pars, *bytes, *xbytes;
    if (!PyArg_ParseTuple(args, "iOOOOO:load", &sn, &sizes, &ranks, &pars,
                          &bytes, &xbytes))
        return NULL;
    if (k->pr == 0) {
        PyErr_SetString(PyExc_RuntimeError, "no protocol attached to the kernel");
        return NULL;
    }
    if (sn < 0 || sn >= k->nsup || k->tabs[sn]) {
        PyErr_Format(PyExc_ValueError, "cannot load supernode %d", sn);
        return NULL;
    }
    Py_ssize_t npos = PySequence_Size(ranks);
    if (npos < 0)
        return NULL;
    int pr = k->pr, pc = k->pc, *scr = k->posmap;
    int nb = k->blkptr[sn + 1] - k->blkptr[sn], ncoll = 2 * nb + 2;
    long long s2 = (long long)k->width[sn] * k->width[sn];
    double oh = k->task_oh, rate = k->rate, s = k->width[sn];
    if (nb == 0) { /* no blocks: only the diagonal block's inversion */
        if (post_op(k, (sn % pr) * pc + sn % pc,
                    oh + (double)(s2 * k->width[sn]) / rate, OP_FINISH, sn,
                    0) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    int nu = nb < pc ? nb : pc; /* bound on the distinct grid columns */
    Py_ssize_t len[] = {pr, pc, nb + 1, nb, ncoll + 1, npos, npos, npos + 1,
                        npos, npos, (Py_ssize_t)nb * nu, (Py_ssize_t)nb * nu,
                        nb, nb};
    size_t ni = 0, head = (sizeof(Table) + 7) / 8 * 8;
    for (int i = 0; i < 14; i++)
        ni += len[i];
    Table *t = PyMem_Calloc(1, head + 8 * (2 * (size_t)ncoll + 2 * nb) +
                                   sizeof(int) * ni);
    if (t == NULL)
        return PyErr_NoMemory();
    const int *snode = t->snode = k->blksn + k->blkptr[sn];
    t->k = sn;
    t->s = k->width[sn];
    t->nb = nb;
    t->nrows = k->blknr + k->blkptr[sn];
    t->cbytes = (long long *)((char *)t + head);
    t->xbytes = t->cbytes + ncoll;
    t->norm = (double *)(t->xbytes + 2 * nb);
    t->dc = t->norm + nb;
    int *p = (int *)(t->dc + nb);
    int **carve[] = {&t->rowslot, &t->colslot, &t->gptr, &t->gidx, &t->cbase,
                     &t->rank, &t->par, &t->kptr, &t->kid, &t->pend,
                     &t->gl, &t->gpos, &t->dl, &t->dpos};
    for (int i = 0; i < 14; i++) {
        *carve[i] = p;
        p += len[i];
    }
    int *cb = t->cbase, *par = t->par, *pend = t->pend;
    if (seq_copy(sizes, ncoll, cb + 1, NULL, 1, npos, "sizes") < 0 ||
        seq_copy(ranks, npos, t->rank, NULL, 0, k->nranks - 1, "ranks") < 0 ||
        seq_copy(pars, npos, par, NULL, -1, npos, "parents") < 0 ||
        seq_copy(bytes, ncoll, NULL, t->cbytes, 0, LLONG_MAX, "nbytes") < 0 ||
        seq_copy(xbytes, 2 * nb, NULL, t->xbytes, 0, LLONG_MAX, "xbytes") < 0)
        goto fail;
    /* Tree offsets, then the CSR children in ascending position (pend
     * is the fill cursor) and the child counts. */
    int ok = 1;
    for (int c = 0; c < ncoll; c++)
        ok = ok && (cb[c + 1] += cb[c]) <= npos;
    for (int c = 0; ok && c < ncoll; c++) {
        int B = cb[c], n = cb[c + 1] - B;
        ok = par[B] == -1;
        for (int y = 1; ok && y < n; y++)
            if ((ok = par[B + y] >= 0 && par[B + y] < y))
                t->kptr[B + par[B + y] + 1]++;
    }
    ok = ok && cb[ncoll] == npos;
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "malformed collective trees");
        goto fail;
    }
    for (Py_ssize_t i = 0; i < npos; i++) {
        t->kptr[i + 1] += t->kptr[i];
        pend[i] = t->kptr[i];
    }
    for (int c = 0; c < ncoll; c++)
        for (int y = 1; y < cb[c + 1] - cb[c]; y++)
            t->kid[pend[cb[c] + par[cb[c] + y]]++] = y;
    for (Py_ssize_t i = 0; i < npos; i++)
        pend[i] = t->kptr[i + 1] - t->kptr[i];
    /* Row groups and column slots in block order; per-block durations in
     * Network.compute_time's expression, term for term. */
    memset(t->rowslot, 0xff, (size_t)(pr + pc) * sizeof(int));
    int *cnt = t->dpos, *cur = t->gpos; /* scratch until filled below */
    for (int x = 0; x < nb; x++) {
        int *rs = &t->rowslot[snode[x] % pr], *cs = &t->colslot[snode[x] % pc];
        if (*rs < 0)
            *rs = t->ng++;
        if (*cs < 0)
            cnt[*cs = t->nu++] = 0;
        t->gptr[*rs + 1]++;
        cnt[*cs]++;
        t->norm[x] = oh + (double)(s2 * t->nrows[x]) / rate;
        t->dc[x] = oh + (((2.0 * s) * t->nrows[x]) * s) / rate;
    }
    t->base = oh + (double)(s2 * t->s) / rate;
    t->finish = oh + (double)s2 / rate;
    nu = t->nu;
    for (int g = 0; g < t->ng; g++) {
        cur[g] = t->gptr[g + 1] += t->gptr[g];
        t->dl[g] = t->gptr[g + 1] - t->gptr[g];
    }
    for (int x = nb - 1; x >= 0; x--) {
        t->gidx[--cur[t->rowslot[snode[x] % pr]]] = x;
        for (int u = 0; u < nu; u++)
            t->gl[x * nu + u] = cnt[u];
    }
    /* Contributor positions: row-reduce x has one input per column
     * slot, the col-reduce one per row group (its L(J,K) owner). */
    for (int c = 1 + nb; c < ncoll; c++) {
        int B = cb[c], n = cb[c + 1] - B, x = c - 1 - nb;
        for (int y = 0; y < n; y++)
            scr[t->rank[B + y]] = y;
        for (int i = 0; i < (x < nb ? pc : pr); i++) {
            int slot = x < nb ? t->colslot[i] : t->rowslot[i], *pos;
            if (slot < 0)
                continue;
            pos = x < nb ? &t->gpos[x * nu + slot] : &t->dpos[slot];
            *pos = scr[x < nb ? (snode[x] % pr) * pc + i : i * pc + sn % pc];
            ok = ok && *pos >= 0;
            pend[B + (*pos >= 0 ? *pos : 0)]++;
        }
        for (int y = 0; y < n; y++)
            scr[t->rank[B + y]] = -1;
    }
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "a contributor is not in its tree");
        goto fail;
    }
    k->tabs[sn] = t;
    k->live++;
    /* Degenerate relays (no children, no input) fire now, in ascending
     * position, row-reduces before the col-reduce; then the diag-bcast
     * starts. */
    for (int c = 1 + nb; c < ncoll; c++)
        for (int y = 0; y < cb[c + 1] - cb[c]; y++)
            if (pend[cb[c] + y] == 0 && reduce_finish(k, t, c, y) < 0)
                return NULL;
    if (push(k, k->now, HID_PROTO, NULL, NULL, t->rank[0], OP_START, 0, 0,
             sn) < 0)
        return NULL;
    Py_RETURN_NONE;
fail:
    PyMem_Free(t);
    return NULL;
}

/* deliver(k, c, y): deliver a protocol message to position y of
 * collective c of supernode k now (the point route's delivery stage);
 * a supernode without tables (retired, or not loaded) ignores it. */
static PyObject *
Kernel_deliver(Kernel *k, PyObject *args)
{
    int sn, c, y;
    if (!PyArg_ParseTuple(args, "iii:deliver", &sn, &c, &y))
        return NULL;
    Table *t = k->pr && sn >= 0 && sn < k->nsup ? k->tabs[sn] : NULL;
    if (t && (c < 0 || c > 2 * t->nb + 1 || y < 0 ||
              y >= t->cbase[c + 1] - t->cbase[c]))
        return PyErr_Format(PyExc_IndexError, "no position %d in collective %d",
                            y, c);
    if (t && proto_deliver(k, sn, target(c, y)) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef Kernel_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))Kernel_schedule, METH_FASTCALL,
     "schedule(delay, fn[, arg]): run fn() (or fn(arg)) at now + delay."},
    {"schedule_at", (PyCFunction)(void (*)(void))Kernel_schedule_at,
     METH_FASTCALL,
     "schedule_at(time, fn[, arg]): run fn() (or fn(arg)) at time."},
    {"schedule_msg", (PyCFunction)(void (*)(void))Kernel_schedule_msg,
     METH_FASTCALL, "schedule_msg(time, hid, arg): run table[hid](arg)."},
    {"register_handler", (PyCFunction)Kernel_register_handler, METH_O,
     "register_handler(fn) -> id (>= 2) of fn in the handler table."},
    {"run", (PyCFunction)(void (*)(void))Kernel_run,
     METH_VARARGS | METH_KEYWORDS,
     "run(until=None, max_events=None) -> now: drain the queue."},
    {"pending", (PyCFunction)Kernel_pending, METH_NOARGS,
     "Number of events still queued."},
    {"clear", (PyCFunction)Kernel_clear_method, METH_NOARGS,
     "Drop every pending event and the pair map."},
    {"attach_machine", (PyCFunction)Kernel_attach_machine, METH_VARARGS,
     "attach_machine(nranks, inj_oh, inj_ibw, ej_ibw, recv_oh, deliver_oh, "
     "(pair_params, binder, nodes), clocks)"},
    {"send_pt", (PyCFunction)(void (*)(void))Kernel_send_pt, METH_FASTCALL,
     "send_pt(src, dst, tag, nbytes, cid, cb, aux=0): point-route send."},
    {"compute", (PyCFunction)(void (*)(void))Kernel_compute, METH_FASTCALL,
     "compute(rank, seconds) -> start: occupy rank's CPU."},
    {"transmit", (PyCFunction)(void (*)(void))Kernel_transmit, METH_FASTCALL,
     "transmit(src, dst, nbytes, cid[, inj, transit]) -> (start, finish, "
     "arrival)"},
    {"receive", (PyCFunction)(void (*)(void))Kernel_receive, METH_FASTCALL,
     "receive(dst, nbytes, cid[, eject]) -> (nic_start, nic_done, start, "
     "deliver_at)"},
    {"attach_protocol", (PyCFunction)Kernel_attach_protocol, METH_VARARGS,
     "attach_protocol(pr, pc, cids, task_overhead, flop_rate, widths, "
     "blkptr, blksn, blknr, retire): run the symbolic PSelInv protocol."},
    {"load", (PyCFunction)Kernel_load, METH_VARARGS,
     "load(k, sizes, ranks, parents, nbytes, xbytes): supernode k enters "
     "the window."},
    {"deliver", (PyCFunction)Kernel_deliver, METH_VARARGS,
     "deliver(k, c, y): deliver a protocol message to position y of "
     "collective c of supernode k now."},
    {NULL, NULL, 0, NULL},
};

static PyObject *
Kernel_get_now(Kernel *k, void *unused)
{
    return PyFloat_FromDouble(k->now);
}

static PyObject *
Kernel_get_processed(Kernel *k, void *unused)
{
    return PyLong_FromLongLong(k->processed);
}

static PyObject *
Kernel_get_depth_hw(Kernel *k, void *unused)
{
    return PyLong_FromSsize_t(k->depth_hw);
}

static PyObject *
Kernel_get_live(Kernel *k, void *unused)
{
    return PyLong_FromLong(k->live);
}

static PyGetSetDef Kernel_getset[] = {
    {"now", (getter)Kernel_get_now, NULL, "The virtual clock.", NULL},
    {"events_processed", (getter)Kernel_get_processed, NULL,
     "Number of events executed so far.", NULL},
    {"depth_high_water", (getter)Kernel_get_depth_hw, NULL,
     "Largest queue length seen by the last run().", NULL},
    {"live_tables", (getter)Kernel_get_live, NULL,
     "Number of supernodes whose protocol tables are loaded.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simulate._kernel.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Event queue and machine state of the vectorized DES engine.",
    .tp_new = Kernel_new,
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_traverse = (traverseproc)Kernel_traverse,
    .tp_clear = (inquiry)Kernel_clear,
    .tp_methods = Kernel_methods,
    .tp_getset = Kernel_getset,
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Native event queue and point-route machine of the DES.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&kernel_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&KernelType);
    if (PyModule_AddObject(m, "Kernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(&KernelType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
