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
 *     filled from Network.pair_params on a miss;
 *   - the point route: send_pt/send_batch push a receive event, the
 *     receive is handled here, and only the delivery cb(dst, None, aux)
 *     calls back into Python.
 *
 * Handler ids: 0 calls fn(), 1 calls fn(arg), ids >= 2 call
 * table[id](arg); the two negative ids are the native receive and
 * delivery stages of the point route.
 *
 * Every cost expression keeps the term order of repro.simulate.machine
 * (build with -O2 -fno-fast-math -ffp-contract=off), so the floats are
 * bit-identical.  The Python-side wrapper is repro/simulate/vec.py and
 * the builder repro/simulate/_native.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { HID_CALL0 = 0, HID_CALL1 = 1, HID_RECV_PT = -1, HID_DELIV_PT = -2 };

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
    PyObject *obj;  /* callable, handler argument or delivery callback */
    PyObject *obj2; /* argument of a HID_CALL1 event, else NULL */
    int hid;
    int dst;
    int cid;
} Event;

typedef struct {
    long long key; /* src * nranks + dst, -1 = empty slot */
    double lat, ibw, jit, chan;
} Pair;

typedef struct {
    double *sent;
    long long *count;
    double *recv;
    PyObject *sent_o, *count_o, *recv_o;
} Column;

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
    Pair *pairs;
    Py_ssize_t pcap, pcount;
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
     int dst, int cid, long long nbytes, long long aux)
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
pair_slot(Kernel *k, long long key)
{
    size_t mask = (size_t)k->pcap - 1;
    unsigned long long h = (unsigned long long)key * 0x9E3779B97F4A7C15ULL;
    size_t i = (size_t)(h ^ (h >> 29)) & mask;
    while (k->pairs[i].key != key && k->pairs[i].key >= 0)
        i = (i + 1) & mask;
    return i;
}

static int
pairs_reserve(Kernel *k)
{
    if (2 * (k->pcount + 1) <= k->pcap)
        return 0;
    Py_ssize_t cap = k->pcap ? 2 * k->pcap : 256;
    Pair *old = k->pairs;
    Py_ssize_t ocap = k->pcap;
    Pair *p = PyMem_Malloc((size_t)cap * sizeof(Pair));
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < cap; i++)
        p[i].key = -1;
    k->pairs = p;
    k->pcap = cap;
    for (Py_ssize_t i = 0; i < ocap; i++)
        if (old[i].key >= 0)
            k->pairs[pair_slot(k, old[i].key)] = old[i];
    PyMem_Free(old);
    return 0;
}

/* The (lat, 1/bw, jitter, channel clock) record of src -> dst. */
static Pair *
pair(Kernel *k, int src, int dst)
{
    long long key = (long long)src * k->nranks + dst;
    if (k->pcap) {
        size_t i = pair_slot(k, key);
        if (k->pairs[i].key == key)
            return &k->pairs[i];
    }
    PyObject *r = PyObject_CallFunction(k->pair_params, "ii", src, dst);
    if (r == NULL)
        return NULL;
    double lat, ibw, jit;
    int ok = PyArg_ParseTuple(r, "ddd;pair_params must return 3 floats",
                              &lat, &ibw, &jit);
    Py_DECREF(r);
    if (!ok || pairs_reserve(k) < 0)
        return NULL;
    Pair *p = &k->pairs[pair_slot(k, key)];
    if (p->key != key) {
        p->key = key;
        p->lat = lat;
        p->ibw = ibw;
        p->jit = jit;
        p->chan = 0.0;
        k->pcount++;
    }
    return p;
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

/* One point-route send (the body of send_pt / send_batch). */
static int
send_point(Kernel *k, int src, int dst, long long nbytes, int cid,
           PyObject *cb, long long aux)
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
    Py_INCREF(cb);
    return push(k, arrival, hid, cb, NULL, dst, cid, nbytes, aux);
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
    PyMem_Free(k->pairs);
    k->pairs = NULL;
    k->pcap = k->pcount = 0;
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
        rc = push(k, t, HID_CALL0, fn, NULL, 0, 0, 0, 0);
    }
    else {
        Py_INCREF(args[2]);
        rc = push(k, t, HID_CALL1, fn, args[2], 0, 0, 0, 0);
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
    if (push(k, t, hid, a, b, 0, 0, 0, 0) < 0)
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
            Py_DECREF(e->obj);
            return -1;
        }
        /* The delivery event inherits the callback reference. */
        return push(k, out[3], HID_DELIV_PT, e->obj, NULL, e->dst, e->cid,
                    e->nbytes, e->aux);
    }
    else if (hid == HID_DELIV_PT) {
        if (k->deliver_oh > 0.0)
            occupy(k, e->dst, k->deliver_oh);
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
    PyMem_Free(k->pairs);
    k->pairs = NULL;
    k->pcap = k->pcount = 0;
    Py_RETURN_NONE;
}

/* -- machine methods ----------------------------------------------------- */

static PyObject *
Kernel_attach_machine(Kernel *k, PyObject *args)
{
    int nranks;
    double c[5];
    PyObject *pp, *binder, *clocks;
    if (!PyArg_ParseTuple(args, "iddddd(OO)O!:attach_machine", &nranks, &c[0],
                          &c[1], &c[2], &c[3], &c[4], &pp, &binder,
                          &PyTuple_Type, &clocks))
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
    if (send_point(k, src, dst, nbytes, cid, args[5], aux) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* send_batch(src, dsts, tag, nbytes, cid, cb, auxs): one send_pt per
 * destination, in order (the NIC injection chain is the scalar one). */
static PyObject *
Kernel_send_batch(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    int src, cid;
    long long nbytes;
    if (nargs_check("send_batch", nargs, 7, 7) < 0 || need_machine(k) < 0 ||
        arg_rank(k, args[0], &src) < 0 || arg_ll(args[3], &nbytes) < 0 ||
        arg_int(args[4], &cid) < 0)
        return NULL;
    PyObject *dsts = PySequence_Fast(args[1], "dsts must be a sequence");
    if (dsts == NULL)
        return NULL;
    PyObject *auxs = PySequence_Fast(args[6], "auxs must be a sequence");
    if (auxs == NULL) {
        Py_DECREF(dsts);
        return NULL;
    }
    PyObject *ret = NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(dsts);
    if (PySequence_Fast_GET_SIZE(auxs) != n) {
        PyErr_SetString(PyExc_ValueError, "dsts and auxs differ in length");
        goto done;
    }
    for (Py_ssize_t x = 0; x < n; x++) {
        int dst;
        long long aux;
        if (arg_rank(k, PySequence_Fast_GET_ITEM(dsts, x), &dst) < 0 ||
            arg_ll(PySequence_Fast_GET_ITEM(auxs, x), &aux) < 0 ||
            send_point(k, src, dst, nbytes, cid, args[5], aux) < 0)
            goto done;
    }
    ret = Py_NewRef(Py_None);
done:
    Py_DECREF(dsts);
    Py_DECREF(auxs);
    return ret;
}

/* post_named(rank, seconds, hid, arg): occupy the CPU, then
 * table[hid](arg) (hid 0: arg()). */
static PyObject *
Kernel_post_named(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    int rank, hid;
    double seconds;
    if (nargs_check("post_named", nargs, 4, 4) < 0 || need_machine(k) < 0 ||
        arg_rank(k, args[0], &rank) < 0 || arg_double(args[1], &seconds) < 0 ||
        arg_int(args[2], &hid) < 0)
        return NULL;
    if (hid < 0 || hid == HID_CALL1 || hid >= ntable(k)) {
        PyErr_Format(PyExc_ValueError, "unknown handler id %d", hid);
        return NULL;
    }
    double finish = occupy(k, rank, seconds) + seconds;
    Py_INCREF(args[3]);
    if (push(k, finish, hid, args[3], NULL, 0, 0, 0, 0) < 0)
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
     "(pair_params, binder), clocks)"},
    {"send_pt", (PyCFunction)(void (*)(void))Kernel_send_pt, METH_FASTCALL,
     "send_pt(src, dst, tag, nbytes, cid, cb, aux=0): point-route send."},
    {"send_batch", (PyCFunction)(void (*)(void))Kernel_send_batch,
     METH_FASTCALL,
     "send_batch(src, dsts, tag, nbytes, cid, cb, auxs): one rank's fan-out."},
    {"post_named", (PyCFunction)(void (*)(void))Kernel_post_named,
     METH_FASTCALL,
     "post_named(rank, seconds, hid, arg): compute, then table[hid](arg)."},
    {"compute", (PyCFunction)(void (*)(void))Kernel_compute, METH_FASTCALL,
     "compute(rank, seconds) -> start: occupy rank's CPU."},
    {"transmit", (PyCFunction)(void (*)(void))Kernel_transmit, METH_FASTCALL,
     "transmit(src, dst, nbytes, cid[, inj, transit]) -> (start, finish, "
     "arrival)"},
    {"receive", (PyCFunction)(void (*)(void))Kernel_receive, METH_FASTCALL,
     "receive(dst, nbytes, cid[, eject]) -> (nic_start, nic_done, start, "
     "deliver_at)"},
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

static PyGetSetDef Kernel_getset[] = {
    {"now", (getter)Kernel_get_now, NULL, "The virtual clock.", NULL},
    {"events_processed", (getter)Kernel_get_processed, NULL,
     "Number of events executed so far.", NULL},
    {"depth_high_water", (getter)Kernel_get_depth_hw, NULL,
     "Largest queue length seen by the last run().", NULL},
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
