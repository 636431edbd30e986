/* Compiled DES core: event heap, run()-loop dispatch, and the positional
 * scheduler inner loops, behind the same semantics as the pure-Python
 * reference in repro.sim.engine / repro.runtime.schedulers.
 *
 * Bit-identity contract: every comparison, tie-break, iteration order, and
 * error message below replicates the pure implementation exactly.  The heap
 * orders entries by (at, seq) with a strict (a->at < b->at) / seq tiebreak,
 * which is the same total order heapq imposes on (at, seq, event) tuples
 * (seq is unique, so the event is never compared).  All arithmetic is on
 * C doubles, which are the same IEEE-754 binary64 values CPython floats
 * hold, so availability/finish-time accumulation is bit-identical.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>

/* Resolved at module init from the pure modules (single source of truth). */
static PyObject *EmulationError;  /* repro.common.errors.EmulationError */
static PyObject *CallbackType;    /* repro.sim.engine._Callback */
static PyObject *EventType;       /* repro.sim.engine.Event */
static PyObject *TimeoutType;     /* repro.sim.engine.Timeout */

static PyObject *PEStatusIdle;    /* repro.runtime.handler.PEStatus.IDLE */
static PyObject *PEStatusFailed;  /* repro.runtime.handler.PEStatus.FAILED */

static PyObject *str_fire;       /* "_fire" */
static PyObject *str_now;        /* "now" */
static PyObject *str_events_fired;
static PyObject *str_callbacks;
static PyObject *str_state;      /* "_state" */
static PyObject *str_fn;
static PyObject *str_node;
static PyObject *str_status;     /* "status": ResourceHandler's state,
                                  * written under the handler lock and
                                  * read lock-free (one GIL-atomic read). */
static PyObject *str_eft;        /* "estimated_free_time" */
static PyObject *int_fired;      /* 2 == repro.sim.engine._FIRED */

/* ------------------------------------------------------------------ */
/* EventHeap: binary heap of (at, seq, event) with a built-in seq     */
/* counter (mirrors Engine._seq).                                      */
/* ------------------------------------------------------------------ */

typedef struct {
    double at;
    long long seq;
    PyObject *ev; /* owned */
} HeapEntry;

typedef struct {
    PyObject_HEAD
    HeapEntry *arr;
    Py_ssize_t size;
    Py_ssize_t cap;
    long long seq;
} EventHeapObject;

static PyTypeObject EventHeap_Type; /* fwd */

static inline int
heap_less(const HeapEntry *a, const HeapEntry *b)
{
    if (a->at < b->at)
        return 1;
    if (a->at > b->at)
        return 0;
    return a->seq < b->seq;
}

static int
heap_reserve(EventHeapObject *self, Py_ssize_t need)
{
    if (need <= self->cap)
        return 0;
    Py_ssize_t cap = self->cap ? self->cap : 64;
    while (cap < need)
        cap *= 2;
    HeapEntry *arr = PyMem_Realloc(self->arr, (size_t)cap * sizeof(HeapEntry));
    if (!arr) {
        PyErr_NoMemory();
        return -1;
    }
    self->arr = arr;
    self->cap = cap;
    return 0;
}

static void
heap_sift_up(HeapEntry *arr, Py_ssize_t pos)
{
    HeapEntry item = arr[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!heap_less(&item, &arr[parent]))
            break;
        arr[pos] = arr[parent];
        pos = parent;
    }
    arr[pos] = item;
}

static void
heap_sift_down(HeapEntry *arr, Py_ssize_t size, Py_ssize_t pos)
{
    HeapEntry item = arr[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && heap_less(&arr[child + 1], &arr[child]))
            child += 1;
        if (!heap_less(&arr[child], &item))
            break;
        arr[pos] = arr[child];
        pos = child;
    }
    arr[pos] = item;
}

/* Pop the root into *at / *ev (ownership of ev transfers to caller).
 * Caller must check size > 0 first. */
static void
heap_pop_root(EventHeapObject *self, double *at, PyObject **ev)
{
    HeapEntry *arr = self->arr;
    *at = arr[0].at;
    *ev = arr[0].ev;
    self->size -= 1;
    if (self->size > 0) {
        arr[0] = arr[self->size];
        heap_sift_down(arr, self->size, 0);
    }
}

static PyObject *
EventHeap_push(EventHeapObject *self, PyObject *args)
{
    double at;
    PyObject *ev;
    if (!PyArg_ParseTuple(args, "dO:push", &at, &ev))
        return NULL;
    if (heap_reserve(self, self->size + 1) < 0)
        return NULL;
    self->seq += 1;
    HeapEntry *slot = &self->arr[self->size];
    slot->at = at;
    slot->seq = self->seq;
    Py_INCREF(ev);
    slot->ev = ev;
    self->size += 1;
    heap_sift_up(self->arr, self->size - 1);
    Py_RETURN_NONE;
}

static PyObject *
EventHeap_pop(EventHeapObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from empty EventHeap");
        return NULL;
    }
    long long seq = self->arr[0].seq;
    double at;
    PyObject *ev;
    heap_pop_root(self, &at, &ev);
    PyObject *res = Py_BuildValue("(dLN)", at, seq, ev);
    if (!res)
        Py_DECREF(ev);
    return res;
}

static PyObject *
EventHeap_peek_at(EventHeapObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(self->arr[0].at);
}

static Py_ssize_t
EventHeap_len(EventHeapObject *self)
{
    return self->size;
}

static PyObject *
EventHeap_get_seq(EventHeapObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->seq);
}

static PyObject *
EventHeap_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
              PyObject *Py_UNUSED(kwds))
{
    EventHeapObject *self = (EventHeapObject *)type->tp_alloc(type, 0);
    if (self) {
        self->arr = NULL;
        self->size = 0;
        self->cap = 0;
        self->seq = 0;
    }
    return (PyObject *)self;
}

static int
EventHeap_traverse(EventHeapObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_VISIT(self->arr[i].ev);
    return 0;
}

static int
EventHeap_clear_impl(EventHeapObject *self)
{
    Py_ssize_t n = self->size;
    self->size = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_CLEAR(self->arr[i].ev);
    return 0;
}

static void
EventHeap_dealloc(EventHeapObject *self)
{
    PyObject_GC_UnTrack(self);
    EventHeap_clear_impl(self);
    PyMem_Free(self->arr);
    self->arr = NULL;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef EventHeap_methods[] = {
    {"push", (PyCFunction)EventHeap_push, METH_VARARGS,
     "push(at, event): schedule event at time `at` with the next seq."},
    {"pop", (PyCFunction)EventHeap_pop, METH_NOARGS,
     "pop() -> (at, seq, event): remove and return the earliest entry."},
    {"peek_at", (PyCFunction)EventHeap_peek_at, METH_NOARGS,
     "peek_at() -> float | None: time of the next entry."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef EventHeap_getset[] = {
    {"seq", (getter)EventHeap_get_seq, NULL,
     "monotone push counter (mirrors Engine._seq)", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PySequenceMethods EventHeap_as_sequence = {
    .sq_length = (lenfunc)EventHeap_len,
};

static PyTypeObject EventHeap_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._coreext.EventHeap",
    .tp_basicsize = sizeof(EventHeapObject),
    .tp_dealloc = (destructor)EventHeap_dealloc,
    .tp_as_sequence = &EventHeap_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Binary (time, seq) event heap with built-in seq counter.",
    .tp_traverse = (traverseproc)EventHeap_traverse,
    .tp_clear = (inquiry)EventHeap_clear_impl,
    .tp_methods = EventHeap_methods,
    .tp_getset = EventHeap_getset,
    .tp_new = EventHeap_new,
};

/* ------------------------------------------------------------------ */
/* run_loop: the Engine.run() dispatch loop                            */
/* ------------------------------------------------------------------ */

/* Run the externally attached callbacks of `ev`, swapping the list out
 * first exactly like Event._fire (appends during iteration land on the
 * fresh list and are NOT run this firing, matching the pure semantics). */
static int
run_external_callbacks(PyObject *ev)
{
    PyObject *cbs = PyObject_GetAttr(ev, str_callbacks);
    if (!cbs)
        return -1;
    if (!PyList_Check(cbs) || PyList_GET_SIZE(cbs) != 0) {
        PyObject *empty = PyList_New(0);
        if (!empty) {
            Py_DECREF(cbs);
            return -1;
        }
        int rc = PyObject_SetAttr(ev, str_callbacks, empty);
        Py_DECREF(empty);
        if (rc < 0) {
            Py_DECREF(cbs);
            return -1;
        }
        Py_ssize_t n = PySequence_Length(cbs);
        if (n < 0) {
            Py_DECREF(cbs);
            return -1;
        }
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *cb = PySequence_GetItem(cbs, i);
            if (!cb) {
                Py_DECREF(cbs);
                return -1;
            }
            PyObject *r = PyObject_CallOneArg(cb, ev);
            Py_DECREF(cb);
            if (!r) {
                Py_DECREF(cbs);
                return -1;
            }
            Py_DECREF(r);
        }
    }
    Py_DECREF(cbs);
    return 0;
}

/* Fire one event: exact-type fast paths inline _Callback._fire and
 * Event._fire; everything else (Process, _Consume, AllOf/AnyOf,
 * subclasses) goes through its own _fire method. */
static int
fire_event(PyObject *ev)
{
    PyObject *tp = (PyObject *)Py_TYPE(ev);
    if (tp == CallbackType) {
        if (PyObject_SetAttr(ev, str_state, int_fired) < 0)
            return -1;
        PyObject *fn = PyObject_GetAttr(ev, str_fn);
        if (!fn)
            return -1;
        PyObject *r = PyObject_CallNoArgs(fn);
        Py_DECREF(fn);
        if (!r)
            return -1;
        Py_DECREF(r);
        return run_external_callbacks(ev);
    }
    if (tp == EventType || tp == TimeoutType) {
        if (PyObject_SetAttr(ev, str_state, int_fired) < 0)
            return -1;
        return run_external_callbacks(ev);
    }
    PyObject *r = PyObject_CallMethodNoArgs(ev, str_fire);
    if (!r)
        return -1;
    Py_DECREF(r);
    return 0;
}

static int
set_engine_now(PyObject *engine, double now)
{
    PyObject *f = PyFloat_FromDouble(now);
    if (!f)
        return -1;
    int rc = PyObject_SetAttr(engine, str_now, f);
    Py_DECREF(f);
    return rc;
}

/* engine.events_fired += fired, preserving any in-flight exception. */
static int
add_events_fired(PyObject *engine, long long fired)
{
    PyObject *cur = PyObject_GetAttr(engine, str_events_fired);
    if (!cur)
        return -1;
    PyObject *inc = PyLong_FromLongLong(fired);
    if (!inc) {
        Py_DECREF(cur);
        return -1;
    }
    PyObject *total = PyNumber_Add(cur, inc);
    Py_DECREF(cur);
    Py_DECREF(inc);
    if (!total)
        return -1;
    int rc = PyObject_SetAttr(engine, str_events_fired, total);
    Py_DECREF(total);
    return rc;
}

static PyObject *
coreext_run_loop(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *engine, *heapobj, *until_obj, *maxev_obj;
    if (!PyArg_ParseTuple(args, "OO!OO:run_loop", &engine, &EventHeap_Type,
                          &heapobj, &until_obj, &maxev_obj))
        return NULL;
    EventHeapObject *heap = (EventHeapObject *)heapobj;

    int has_until = (until_obj != Py_None);
    double until = 0.0;
    if (has_until) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
    }
    int has_max = (maxev_obj != Py_None);
    long long max_events = 0;
    if (has_max) {
        max_events = PyLong_AsLongLong(maxev_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }

    long long fired = 0;
    int err = 0;
    double now = 0.0;
    int saw_event = 0;
    while (heap->size > 0) {
        if (has_until && heap->arr[0].at > until) {
            now = until;
            saw_event = 1;
            if (set_engine_now(engine, until) < 0)
                err = 1;
            break;
        }
        double at;
        PyObject *ev;
        heap_pop_root(heap, &at, &ev);
        now = at;
        saw_event = 1;
        if (set_engine_now(engine, at) < 0) {
            Py_DECREF(ev);
            err = 1;
            break;
        }
        int rc = fire_event(ev);
        Py_DECREF(ev);
        if (rc < 0) {
            err = 1;
            break;
        }
        fired += 1;
        if (has_max && fired >= max_events) {
            PyErr_Format(EmulationError,
                         "exceeded max_events=%lld; possible livelock",
                         max_events);
            err = 1;
            break;
        }
    }

    /* "finally": the fired count is recorded even when an event raised. */
    PyObject *ptype = NULL, *pval = NULL, *ptb = NULL;
    if (err)
        PyErr_Fetch(&ptype, &pval, &ptb);
    if (add_events_fired(engine, fired) < 0) {
        if (err) {
            /* keep the original exception, drop the bookkeeping one */
            PyErr_Clear();
        }
        else {
            return NULL;
        }
    }
    if (err) {
        PyErr_Restore(ptype, pval, ptb);
        return NULL;
    }
    if (!saw_event) {
        /* heap was empty on entry: the clock does not move */
        return PyObject_GetAttr(engine, str_now);
    }
    return PyFloat_FromDouble(now);
}

/* ------------------------------------------------------------------ */
/* ReadyList: the WM's ready-task list (see the pure class in          */
/* runtime/workload_manager.py for the design rationale).  Same        */
/* offset + tombstone semantics; iteration is a C array walk, which    */
/* is what makes the scheduler kernels' PyIter_Next loop cheap.        */
/* The id bookkeeping reuses Python sets of id() ints so remove_ids    */
/* interoperates with the caller-built {id(task), ...} sets.           */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject **items;
    Py_ssize_t size;
    Py_ssize_t cap;
    Py_ssize_t start;
    PyObject *dead; /* set[int]: tombstoned ids awaiting compaction */
    PyObject *ids;  /* set[int]: live member ids */
} ReadyListObject;

typedef struct {
    PyObject_HEAD
    ReadyListObject *owner; /* owned */
    Py_ssize_t pos;
} ReadyListIterObject;

static PyTypeObject ReadyList_Type;     /* fwd */
static PyTypeObject ReadyListIter_Type; /* fwd */
static int readylist_compact(ReadyListObject *self); /* fwd */

static int
readylist_reserve(ReadyListObject *self, Py_ssize_t need)
{
    if (need <= self->cap)
        return 0;
    Py_ssize_t cap = self->cap ? self->cap : 32;
    while (cap < need)
        cap *= 2;
    PyObject **items = PyMem_Realloc(self->items,
                                     (size_t)cap * sizeof(PyObject *));
    if (!items) {
        PyErr_NoMemory();
        return -1;
    }
    self->items = items;
    self->cap = cap;
    return 0;
}

static PyObject *
ReadyList_extend(ReadyListObject *self, PyObject *tasks)
{
    PyObject *seq = PySequence_Fast(tasks, "extend() expects a sequence");
    if (!seq)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    /* A task re-entering while its mid-list tombstone is still pending
     * (fault requeue of a dispatched task, or an id() recycled onto a
     * tombstoned address) would be invisible to iteration while len()
     * still counts it.  Compact first so the stale occurrence is
     * physically gone before the id goes live again. */
    if (PySet_GET_SIZE(self->dead) > 0) {
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *t = PySequence_Fast_GET_ITEM(seq, i);
            PyObject *key = PyLong_FromVoidPtr((void *)t);
            if (!key) {
                Py_DECREF(seq);
                return NULL;
            }
            int hit = PySet_Contains(self->dead, key);
            Py_DECREF(key);
            if (hit < 0) {
                Py_DECREF(seq);
                return NULL;
            }
            if (hit) {
                if (readylist_compact(self) < 0) {
                    Py_DECREF(seq);
                    return NULL;
                }
                break;
            }
        }
    }
    if (readylist_reserve(self, self->size + n) < 0) {
        Py_DECREF(seq);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *t = PySequence_Fast_GET_ITEM(seq, i);
        PyObject *key = PyLong_FromVoidPtr((void *)t);
        if (!key || PySet_Add(self->ids, key) < 0) {
            Py_XDECREF(key);
            Py_DECREF(seq);
            return NULL;
        }
        Py_DECREF(key);
        Py_INCREF(t);
        self->items[self->size++] = t;
    }
    Py_DECREF(seq);
    Py_RETURN_NONE;
}

/* Drop the swallowed prefix: del items[:start] */
static void
readylist_trim_prefix(ReadyListObject *self)
{
    Py_ssize_t start = self->start;
    if (!start)
        return;
    for (Py_ssize_t i = 0; i < start; i++)
        Py_DECREF(self->items[i]);
    memmove(self->items, self->items + start,
            (size_t)(self->size - start) * sizeof(PyObject *));
    self->size -= start;
    self->start = 0;
}

static int
readylist_compact(ReadyListObject *self)
{
    readylist_trim_prefix(self);
    if (PySet_GET_SIZE(self->dead) == 0)
        return 0;
    Py_ssize_t w = 0;
    for (Py_ssize_t r = 0; r < self->size; r++) {
        PyObject *t = self->items[r];
        PyObject *key = PyLong_FromVoidPtr((void *)t);
        if (!key)
            return -1;
        int hit = PySet_Contains(self->dead, key);
        Py_DECREF(key);
        if (hit < 0)
            return -1;
        if (hit)
            Py_DECREF(t);
        else
            self->items[w++] = t;
    }
    self->size = w;
    if (PySet_Clear(self->dead) < 0)
        return -1;
    return 0;
}

static PyObject *
ReadyList_remove_ids(ReadyListObject *self, PyObject *id_set)
{
    PyObject *it = PyObject_GetIter(id_set);
    if (!it)
        return NULL;
    PyObject *key;
    while ((key = PyIter_Next(it))) {
        if (PySet_Add(self->dead, key) < 0 ||
            PySet_Discard(self->ids, key) < 0) {
            Py_DECREF(key);
            Py_DECREF(it);
            return NULL;
        }
        Py_DECREF(key);
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return NULL;
    /* swallow the contiguous dead prefix */
    Py_ssize_t start = self->start, n = self->size;
    while (start < n) {
        PyObject *k = PyLong_FromVoidPtr((void *)self->items[start]);
        if (!k)
            return NULL;
        int hit = PySet_Contains(self->dead, k);
        if (hit > 0) {
            if (PySet_Discard(self->dead, k) < 0) {
                Py_DECREF(k);
                return NULL;
            }
        }
        Py_DECREF(k);
        if (hit < 0)
            return NULL;
        if (!hit)
            break;
        start += 1;
    }
    self->start = start;
    if (start > 64 && start * 2 > n)
        readylist_trim_prefix(self);
    Py_ssize_t limit = PySet_GET_SIZE(self->ids);
    if (limit < 64)
        limit = 64;
    if (PySet_GET_SIZE(self->dead) > limit) {
        if (readylist_compact(self) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
ReadyList_iter(ReadyListObject *self)
{
    ReadyListIterObject *it = PyObject_GC_New(ReadyListIterObject,
                                              &ReadyListIter_Type);
    if (!it)
        return NULL;
    Py_INCREF(self);
    it->owner = self;
    it->pos = self->start;
    PyObject_GC_Track((PyObject *)it);
    return (PyObject *)it;
}

static PyObject *
ReadyList_snapshot(ReadyListObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *it = ReadyList_iter(self);
    if (!it)
        return NULL;
    PyObject *out = PySequence_List(it);
    Py_DECREF(it);
    return out;
}

static Py_ssize_t
ReadyList_len(ReadyListObject *self)
{
    return PySet_GET_SIZE(self->ids);
}

static int
ReadyList_contains(ReadyListObject *self, PyObject *task)
{
    PyObject *key = PyLong_FromVoidPtr((void *)task);
    if (!key)
        return -1;
    int hit = PySet_Contains(self->ids, key);
    Py_DECREF(key);
    return hit;
}

static PyObject *
ReadyList_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
              PyObject *Py_UNUSED(kwds))
{
    ReadyListObject *self = (ReadyListObject *)type->tp_alloc(type, 0);
    if (!self)
        return NULL;
    self->items = NULL;
    self->size = 0;
    self->cap = 0;
    self->start = 0;
    self->dead = PySet_New(NULL);
    self->ids = PySet_New(NULL);
    if (!self->dead || !self->ids) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static int
ReadyList_traverse(ReadyListObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_VISIT(self->items[i]);
    Py_VISIT(self->dead);
    Py_VISIT(self->ids);
    return 0;
}

static int
ReadyList_clear_impl(ReadyListObject *self)
{
    Py_ssize_t n = self->size;
    self->size = 0;
    self->start = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_CLEAR(self->items[i]);
    Py_CLEAR(self->dead);
    Py_CLEAR(self->ids);
    return 0;
}

static void
ReadyList_dealloc(ReadyListObject *self)
{
    PyObject_GC_UnTrack(self);
    ReadyList_clear_impl(self);
    PyMem_Free(self->items);
    self->items = NULL;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef ReadyList_methods[] = {
    {"extend", (PyCFunction)ReadyList_extend, METH_O,
     "extend(tasks): append tasks in order."},
    {"remove_ids", (PyCFunction)ReadyList_remove_ids, METH_O,
     "remove_ids(ids): remove members whose id() is in the set."},
    {"snapshot", (PyCFunction)ReadyList_snapshot, METH_NOARGS,
     "snapshot() -> list of live members in order."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods ReadyList_as_sequence = {
    .sq_length = (lenfunc)ReadyList_len,
    .sq_contains = (objobjproc)ReadyList_contains,
};

static PyTypeObject ReadyList_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._coreext.ReadyList",
    .tp_basicsize = sizeof(ReadyListObject),
    .tp_dealloc = (destructor)ReadyList_dealloc,
    .tp_as_sequence = &ReadyList_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Ready task list: FIFO walk, offset + tombstone removal.",
    .tp_traverse = (traverseproc)ReadyList_traverse,
    .tp_clear = (inquiry)ReadyList_clear_impl,
    .tp_iter = (getiterfunc)ReadyList_iter,
    .tp_methods = ReadyList_methods,
    .tp_new = ReadyList_new,
};

static PyObject *
ReadyListIter_next(ReadyListIterObject *it)
{
    ReadyListObject *rl = it->owner;
    if (!rl)
        return NULL;
    int check_dead = PySet_GET_SIZE(rl->dead) != 0;
    while (it->pos < rl->size) {
        PyObject *t = rl->items[it->pos++];
        if (check_dead) {
            PyObject *key = PyLong_FromVoidPtr((void *)t);
            if (!key)
                return NULL;
            int hit = PySet_Contains(rl->dead, key);
            Py_DECREF(key);
            if (hit < 0)
                return NULL;
            if (hit)
                continue;
        }
        Py_INCREF(t);
        return t;
    }
    return NULL;
}

static int
ReadyListIter_traverse(ReadyListIterObject *it, visitproc visit, void *arg)
{
    Py_VISIT(it->owner);
    return 0;
}

static void
ReadyListIter_dealloc(ReadyListIterObject *it)
{
    PyObject_GC_UnTrack(it);
    Py_CLEAR(it->owner);
    PyObject_GC_Del(it);
}

static PyTypeObject ReadyListIter_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._coreext.ReadyListIter",
    .tp_basicsize = sizeof(ReadyListIterObject),
    .tp_dealloc = (destructor)ReadyListIter_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)ReadyListIter_traverse,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)ReadyListIter_next,
};

/* ------------------------------------------------------------------ */
/* Scheduler-pass kernels                                              */
/*                                                                     */
/* Each kernel receives the ready iterable, the scheduler's row cache  */
/* dict (id(node) -> (node, row)) and a fallback callable computing    */
/* (and caching) a missing row, plus positional per-PE state built by  */
/* the Python prologue.  They return a list of (task, handler_index)   */
/* pairs in dispatch order; the Python side maps them to Assignments.  */
/* The caller must have called _sync_row_cache(handlers) first so the  */
/* cache dict identity is stable for the whole pass.                   */
/* ------------------------------------------------------------------ */

/* ------------------------------------------------------------------ */
/* Row-cache mirror: an open-addressed pointer table over a scheduler  */
/* row-cache dict, so the per-task lookup skips boxing id(node) into   */
/* a PyLong and hashing it.  Sound because of the cache contract in    */
/* Scheduler._sync_row_cache: entries are only ever *added* to a cache */
/* dict; invalidation replaces the whole dict object.  Identity change */
/* resets the mirror; a size change (fallback added rows) resyncs it.  */
/* Row pointers are borrowed from the dict, which cannot drop them     */
/* while the mirror holds a strong reference to the dict itself.       */
/* ------------------------------------------------------------------ */

typedef struct {
    void *key;       /* the node pointer (== id(node)) */
    PyObject *row;   /* borrowed from the dict's (node, row) tuple */
} MirrorSlot;

typedef struct {
    PyObject *dict;        /* strong ref; NULL when empty */
    Py_ssize_t dict_size;  /* dict size at last sync */
    MirrorSlot *slots;
    size_t mask;           /* table capacity - 1 (capacity is a power of 2) */
} RowMirror;

/* Two slots: the estimate cache and the support cache of the active
 * scheduler (policies use one of each at most). */
static RowMirror mirrors[2];

static inline size_t
mirror_hash(void *p)
{
    /* Pointers are aligned; spread the useful bits. */
    uintptr_t x = (uintptr_t)p >> 4;
    x ^= x >> 17;
    return (size_t)x;
}

static int
mirror_sync(RowMirror *mr, PyObject *cache)
{
    Py_ssize_t n = PyDict_GET_SIZE(cache);
    size_t cap = 16;
    while ((size_t)n * 2 >= cap)
        cap <<= 1;
    if (!mr->slots || mr->mask + 1 < cap) {
        PyMem_Free(mr->slots);
        mr->slots = PyMem_Calloc(cap, sizeof(MirrorSlot));
        if (!mr->slots) {
            mr->mask = 0;
            Py_CLEAR(mr->dict);
            PyErr_NoMemory();
            return -1;
        }
        mr->mask = cap - 1;
    } else {
        memset(mr->slots, 0, (mr->mask + 1) * sizeof(MirrorSlot));
    }
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(cache, &pos, &key, &value)) {
        if (!PyTuple_Check(value) || PyTuple_GET_SIZE(value) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "row cache entries must be (node, row) tuples");
            Py_CLEAR(mr->dict); /* don't leave a half-built mirror live */
            return -1;
        }
        void *node = PyLong_AsVoidPtr(key);
        if (!node && PyErr_Occurred()) {
            Py_CLEAR(mr->dict);
            return -1;
        }
        size_t i = mirror_hash(node) & mr->mask;
        while (mr->slots[i].key)
            i = (i + 1) & mr->mask;
        mr->slots[i].key = node;
        mr->slots[i].row = PyTuple_GET_ITEM(value, 1);
    }
    if (mr->dict != cache) {
        Py_INCREF(cache);
        Py_XSETREF(mr->dict, cache);
    }
    mr->dict_size = n;
    return 0;
}

/* Row lookup: same key as the pure caches (id(node) ==
 * PyLong_FromVoidPtr(node) in CPython).  Returns a new reference. */
static PyObject *
fetch_row(PyObject *cache, PyObject *task, PyObject *fallback)
{
    PyObject *node = PyObject_GetAttr(task, str_node);
    if (!node)
        return NULL;
    Py_DECREF(node); /* the task keeps its node alive for the pass */
    RowMirror *mr = &mirrors[0];
    if (mr->dict != cache) {
        if (mirrors[1].dict == cache) {
            /* Keep the most recently used cache in slot 0. */
            RowMirror tmp = mirrors[0];
            mirrors[0] = mirrors[1];
            mirrors[1] = tmp;
        } else {
            /* Evict the least recently used slot for the new dict. */
            RowMirror tmp = mirrors[0];
            mirrors[0] = mirrors[1];
            mirrors[1] = tmp;
            if (mirror_sync(mr, cache) < 0)
                return NULL;
        }
    }
    if (mr->dict_size != PyDict_GET_SIZE(mr->dict)) {
        if (mirror_sync(mr, cache) < 0)
            return NULL;
    }
    size_t i = mirror_hash((void *)node) & mr->mask;
    while (mr->slots[i].key) {
        if (mr->slots[i].key == (void *)node) {
            PyObject *row = mr->slots[i].row;
            Py_INCREF(row);
            return row;
        }
        i = (i + 1) & mr->mask;
    }
    /* Miss: compute via the Python fallback, which inserts into the dict;
     * the size change triggers a resync on the next lookup. */
    return PyObject_CallOneArg(fallback, task);
}

static int
check_row(PyObject *row)
{
    if (!PyTuple_Check(row)) {
        PyErr_SetString(PyExc_TypeError, "estimate/support row must be a tuple");
        return -1;
    }
    return 0;
}

/* Convert a list of numbers to a fresh double array (caller frees). */
static double *
doubles_from_list(PyObject *list, Py_ssize_t *out_n)
{
    if (!PyList_Check(list)) {
        PyErr_SetString(PyExc_TypeError, "expected a list of floats");
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(list);
    double *arr = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(double));
    if (!arr) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        arr[i] = PyFloat_AsDouble(PyList_GET_ITEM(list, i));
        if (arr[i] == -1.0 && PyErr_Occurred()) {
            PyMem_Free(arr);
            return NULL;
        }
    }
    *out_n = n;
    return arr;
}

/* Convert a list of ints to a fresh long long array (caller frees). */
static long long *
longs_from_list(PyObject *list, Py_ssize_t *out_n)
{
    if (!PyList_Check(list)) {
        PyErr_SetString(PyExc_TypeError, "expected a list of ints");
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(list);
    long long *arr = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(long long));
    if (!arr) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        arr[i] = PyLong_AsLongLong(PyList_GET_ITEM(list, i));
        if (arr[i] == -1 && PyErr_Occurred()) {
            PyMem_Free(arr);
            return NULL;
        }
    }
    *out_n = n;
    return arr;
}

/* Build the EFT availability arrays straight from the handler list:
 *   failed        -> not idle, avail = inf
 *   status IDLE   -> idle,     avail = now
 *   busy          -> not idle, avail = max(estimated_free_time, now)
 * Mirrors the pure-Python prologue bit-for-bit (same float compares). */
static int
eft_prologue(PyObject *handlers, double now, double **avail_out,
             char **idle_out, Py_ssize_t *m_out, Py_ssize_t *idle_rem_out)
{
    if (!PyList_Check(handlers)) {
        PyErr_SetString(PyExc_TypeError, "handlers must be a list");
        return -1;
    }
    Py_ssize_t m = PyList_GET_SIZE(handlers);
    double *avail = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(double));
    char *idle_now = PyMem_Malloc((size_t)(m ? m : 1));
    if (!avail || !idle_now) {
        PyMem_Free(avail);
        PyMem_Free(idle_now);
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t idle_remaining = 0;
    for (Py_ssize_t i = 0; i < m; i++) {
        PyObject *h = PyList_GET_ITEM(handlers, i);
        PyObject *status = PyObject_GetAttr(h, str_status);
        if (!status)
            goto fail;
        int is_failed = (status == PEStatusFailed);
        int is_idle = (status == PEStatusIdle);
        Py_DECREF(status);
        if (is_failed) {
            idle_now[i] = 0;
            avail[i] = Py_HUGE_VAL;
        } else if (is_idle) {
            idle_now[i] = 1;
            avail[i] = now;
            idle_remaining++;
        } else {
            idle_now[i] = 0;
            PyObject *freeobj = PyObject_GetAttr(h, str_eft);
            if (!freeobj)
                goto fail;
            double fr = PyFloat_AsDouble(freeobj);
            Py_DECREF(freeobj);
            if (fr == -1.0 && PyErr_Occurred())
                goto fail;
            avail[i] = fr > now ? fr : now;
        }
    }
    *avail_out = avail;
    *idle_out = idle_now;
    *m_out = m;
    *idle_rem_out = idle_remaining;
    return 0;
fail:
    PyMem_Free(avail);
    PyMem_Free(idle_now);
    return -1;
}

/* Positions of handlers whose status is PEStatus.IDLE, in order — the
 * FRFS idle pool (FAILED is terminal and never IDLE). */
static long long *
idle_pool(PyObject *handlers, Py_ssize_t *m_out)
{
    if (!PyList_Check(handlers)) {
        PyErr_SetString(PyExc_TypeError, "handlers must be a list");
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(handlers);
    long long *idx = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(long long));
    if (!idx) {
        PyErr_NoMemory();
        return NULL;
    }
    Py_ssize_t m = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *status = PyObject_GetAttr(PyList_GET_ITEM(handlers, i),
                                            str_status);
        if (!status) {
            PyMem_Free(idx);
            return NULL;
        }
        if (status == PEStatusIdle)
            idx[m++] = (long long)i;
        Py_DECREF(status);
    }
    *m_out = m;
    return idx;
}

static int
append_pair(PyObject *result, PyObject *task, Py_ssize_t index)
{
    PyObject *idx = PyLong_FromSsize_t(index);
    if (!idx)
        return -1;
    PyObject *pair = PyTuple_Pack(2, task, idx);
    Py_DECREF(idx);
    if (!pair)
        return -1;
    int rc = PyList_Append(result, pair);
    Py_DECREF(pair);
    return rc;
}

/* eft_pass(ready, cache, fallback, handlers, now)
 * The EFT/HEFT placement loop including its availability prologue
 * (HEFT passes its prioritized list as ``ready``). */
static PyObject *
coreext_eft_pass(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *ready, *cache, *fallback, *handlers;
    double now;
    if (!PyArg_ParseTuple(args, "OO!OOd:eft_pass", &ready, &PyDict_Type,
                          &cache, &fallback, &handlers, &now))
        return NULL;
    Py_ssize_t m = 0, idle_remaining = 0;
    double *avail = NULL;
    char *idle_now = NULL;
    if (eft_prologue(handlers, now, &avail, &idle_now, &m,
                     &idle_remaining) < 0)
        return NULL;
    char *dispatched = PyMem_Calloc((size_t)(m ? m : 1), 1);
    PyObject *result = PyList_New(0);
    PyObject *iter = NULL;
    if (!dispatched || !result)
        goto fail;
    iter = PyObject_GetIter(ready);
    if (!iter)
        goto fail;
    PyObject *task;
    while ((task = PyIter_Next(iter))) {
        if (idle_remaining == 0) {
            Py_DECREF(task);
            break;
        }
        PyObject *row = fetch_row(cache, task, fallback);
        if (!row || check_row(row) < 0) {
            Py_XDECREF(row);
            Py_DECREF(task);
            goto fail;
        }
        Py_ssize_t rn = PyTuple_GET_SIZE(row);
        if (rn > m)
            rn = m;
        Py_ssize_t best_i = -1;
        double best_finish = Py_HUGE_VAL;
        for (Py_ssize_t i = 0; i < rn; i++) {
            PyObject *est = PyTuple_GET_ITEM(row, i);
            if (est == Py_None)
                continue;
            double e = PyFloat_AsDouble(est);
            if (e == -1.0 && PyErr_Occurred()) {
                Py_DECREF(row);
                Py_DECREF(task);
                goto fail;
            }
            double finish = avail[i] + e;
            if (finish < best_finish) {
                best_finish = finish;
                best_i = i;
            }
        }
        Py_DECREF(row);
        if (best_i >= 0) {
            avail[best_i] = best_finish;
            if (idle_now[best_i] && !dispatched[best_i]) {
                dispatched[best_i] = 1;
                idle_remaining -= 1;
                if (append_pair(result, task, best_i) < 0) {
                    Py_DECREF(task);
                    goto fail;
                }
            }
        }
        Py_DECREF(task);
    }
    if (PyErr_Occurred())
        goto fail;
    Py_DECREF(iter);
    PyMem_Free(avail);
    PyMem_Free(idle_now);
    PyMem_Free(dispatched);
    return result;
fail:
    Py_XDECREF(iter);
    Py_XDECREF(result);
    PyMem_Free(avail);
    PyMem_Free(idle_now);
    PyMem_Free(dispatched);
    return NULL;
}

/* met_pass(ready, cache, fallback, indices, pe_ids, powers)
 * MET / power-aware MET: `indices` are handler positions of the idle
 * pool (in order), `pe_ids` the matching handler.pe_id tie-breakers,
 * `powers` a matching list of multipliers or None for plain MET. */
static PyObject *
coreext_met_pass(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *ready, *cache, *fallback, *idx_list, *peid_list, *pow_list;
    if (!PyArg_ParseTuple(args, "OO!OOOO:met_pass", &ready, &PyDict_Type,
                          &cache, &fallback, &idx_list, &peid_list,
                          &pow_list))
        return NULL;
    Py_ssize_t m = 0, m2 = 0, m3 = 0;
    long long *idx = longs_from_list(idx_list, &m);
    if (!idx)
        return NULL;
    long long *peid = longs_from_list(peid_list, &m2);
    if (!peid) {
        PyMem_Free(idx);
        return NULL;
    }
    double *powers = NULL;
    if (pow_list != Py_None) {
        powers = doubles_from_list(pow_list, &m3);
        if (!powers) {
            PyMem_Free(idx);
            PyMem_Free(peid);
            return NULL;
        }
    }
    if (m2 != m || (powers && m3 != m)) {
        PyErr_SetString(PyExc_ValueError, "met_pass: pool lists misaligned");
        goto fail0;
    }
    PyObject *result = PyList_New(0);
    PyObject *iter = NULL;
    if (!result)
        goto fail0;
    iter = PyObject_GetIter(ready);
    if (!iter)
        goto fail;
    PyObject *task;
    while ((task = PyIter_Next(iter))) {
        if (m == 0) {
            Py_DECREF(task);
            break;
        }
        PyObject *row = fetch_row(cache, task, fallback);
        if (!row || check_row(row) < 0) {
            Py_XDECREF(row);
            Py_DECREF(task);
            goto fail;
        }
        Py_ssize_t rn = PyTuple_GET_SIZE(row);
        Py_ssize_t best_pos = -1;
        double best_cost = 0.0;
        long long best_pe = 0;
        for (Py_ssize_t pos = 0; pos < m; pos++) {
            Py_ssize_t i = (Py_ssize_t)idx[pos];
            if (i < 0 || i >= rn)
                continue;
            PyObject *est = PyTuple_GET_ITEM(row, i);
            if (est == Py_None)
                continue;
            double e = PyFloat_AsDouble(est);
            if (e == -1.0 && PyErr_Occurred()) {
                Py_DECREF(row);
                Py_DECREF(task);
                goto fail;
            }
            double cost = powers ? e * powers[pos] : e;
            /* (cost, pe_id) tuple < (best_cost, best_pe) */
            if (best_pos < 0 || cost < best_cost ||
                (cost == best_cost && peid[pos] < best_pe)) {
                best_pos = pos;
                best_cost = cost;
                best_pe = peid[pos];
            }
        }
        Py_DECREF(row);
        if (best_pos >= 0) {
            if (append_pair(result, task, (Py_ssize_t)idx[best_pos]) < 0) {
                Py_DECREF(task);
                goto fail;
            }
            /* available.pop(best_pos) */
            memmove(&idx[best_pos], &idx[best_pos + 1],
                    (size_t)(m - best_pos - 1) * sizeof(long long));
            memmove(&peid[best_pos], &peid[best_pos + 1],
                    (size_t)(m - best_pos - 1) * sizeof(long long));
            if (powers)
                memmove(&powers[best_pos], &powers[best_pos + 1],
                        (size_t)(m - best_pos - 1) * sizeof(double));
            m -= 1;
        }
        Py_DECREF(task);
    }
    if (PyErr_Occurred())
        goto fail;
    Py_DECREF(iter);
    PyMem_Free(idx);
    PyMem_Free(peid);
    PyMem_Free(powers);
    return result;
fail:
    Py_XDECREF(iter);
    Py_XDECREF(result);
fail0:
    PyMem_Free(idx);
    PyMem_Free(peid);
    PyMem_Free(powers);
    return NULL;
}

/* frfs_pass(ready, cache, fallback, handlers)
 * First ready task onto the first idle supporting PE; builds the idle
 * pool from the handler list itself. */
static PyObject *
coreext_frfs_pass(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *ready, *cache, *fallback, *handlers;
    if (!PyArg_ParseTuple(args, "OO!OO:frfs_pass", &ready, &PyDict_Type,
                          &cache, &fallback, &handlers))
        return NULL;
    Py_ssize_t m = 0;
    long long *idx = idle_pool(handlers, &m);
    if (!idx)
        return NULL;
    PyObject *result = PyList_New(0);
    PyObject *iter = NULL;
    if (!result)
        goto fail0;
    if (m == 0) {
        /* Matches the pure path's early "if not idle: return []". */
        PyMem_Free(idx);
        return result;
    }
    iter = PyObject_GetIter(ready);
    if (!iter)
        goto fail;
    PyObject *task;
    while ((task = PyIter_Next(iter))) {
        if (m == 0) {
            Py_DECREF(task);
            break;
        }
        PyObject *row = fetch_row(cache, task, fallback);
        if (!row || check_row(row) < 0) {
            Py_XDECREF(row);
            Py_DECREF(task);
            goto fail;
        }
        Py_ssize_t rn = PyTuple_GET_SIZE(row);
        for (Py_ssize_t pos = 0; pos < m; pos++) {
            Py_ssize_t i = (Py_ssize_t)idx[pos];
            if (i < 0 || i >= rn)
                continue;
            int t = PyObject_IsTrue(PyTuple_GET_ITEM(row, i));
            if (t < 0) {
                Py_DECREF(row);
                Py_DECREF(task);
                goto fail;
            }
            if (t) {
                if (append_pair(result, task, i) < 0) {
                    Py_DECREF(row);
                    Py_DECREF(task);
                    goto fail;
                }
                memmove(&idx[pos], &idx[pos + 1],
                        (size_t)(m - pos - 1) * sizeof(long long));
                m -= 1;
                break;
            }
        }
        Py_DECREF(row);
        Py_DECREF(task);
    }
    if (PyErr_Occurred())
        goto fail;
    Py_DECREF(iter);
    PyMem_Free(idx);
    return result;
fail:
    Py_XDECREF(iter);
    Py_XDECREF(result);
fail0:
    PyMem_Free(idx);
    return NULL;
}

/* eft_reserve_pass(ready, cache, fallback, avail, slots, open_slots) */
static PyObject *
coreext_eft_reserve_pass(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *ready, *cache, *fallback, *avail_list, *slots_list;
    Py_ssize_t open_slots;
    if (!PyArg_ParseTuple(args, "OO!OOOn:eft_reserve_pass", &ready,
                          &PyDict_Type, &cache, &fallback, &avail_list,
                          &slots_list, &open_slots))
        return NULL;
    Py_ssize_t m = 0, m2 = 0;
    double *avail = doubles_from_list(avail_list, &m);
    if (!avail)
        return NULL;
    long long *slots = longs_from_list(slots_list, &m2);
    if (!slots) {
        PyMem_Free(avail);
        return NULL;
    }
    PyObject *result = PyList_New(0);
    PyObject *iter = NULL;
    if (!result || m2 != m) {
        if (result && m2 != m)
            PyErr_SetString(PyExc_ValueError,
                            "eft_reserve_pass: lists misaligned");
        goto fail;
    }
    iter = PyObject_GetIter(ready);
    if (!iter)
        goto fail;
    PyObject *task;
    while ((task = PyIter_Next(iter))) {
        if (open_slots == 0) {
            Py_DECREF(task);
            break;
        }
        PyObject *row = fetch_row(cache, task, fallback);
        if (!row || check_row(row) < 0) {
            Py_XDECREF(row);
            Py_DECREF(task);
            goto fail;
        }
        Py_ssize_t rn = PyTuple_GET_SIZE(row);
        if (rn > m)
            rn = m;
        Py_ssize_t best_i = -1;
        double best_finish = Py_HUGE_VAL;
        for (Py_ssize_t i = 0; i < rn; i++) {
            PyObject *est = PyTuple_GET_ITEM(row, i);
            if (est == Py_None || slots[i] <= 0)
                continue;
            double e = PyFloat_AsDouble(est);
            if (e == -1.0 && PyErr_Occurred()) {
                Py_DECREF(row);
                Py_DECREF(task);
                goto fail;
            }
            double finish = avail[i] + e;
            if (finish < best_finish) {
                best_finish = finish;
                best_i = i;
            }
        }
        Py_DECREF(row);
        if (best_i >= 0) {
            avail[best_i] = best_finish;
            slots[best_i] -= 1;
            open_slots -= 1;
            if (append_pair(result, task, best_i) < 0) {
                Py_DECREF(task);
                goto fail;
            }
        }
        Py_DECREF(task);
    }
    if (PyErr_Occurred())
        goto fail;
    Py_DECREF(iter);
    PyMem_Free(avail);
    PyMem_Free(slots);
    return result;
fail:
    Py_XDECREF(iter);
    Py_XDECREF(result);
    PyMem_Free(avail);
    PyMem_Free(slots);
    return NULL;
}

/* frfs_reserve_pass(ready, cache, fallback, load, depth)
 * FIFO tasks onto the least-loaded supporting PE (depth is the
 * exclusive load bound). */
static PyObject *
coreext_frfs_reserve_pass(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *ready, *cache, *fallback, *load_list;
    Py_ssize_t depth;
    if (!PyArg_ParseTuple(args, "OO!OOn:frfs_reserve_pass", &ready,
                          &PyDict_Type, &cache, &fallback, &load_list,
                          &depth))
        return NULL;
    Py_ssize_t m = 0;
    long long *load = longs_from_list(load_list, &m);
    if (!load)
        return NULL;
    PyObject *result = PyList_New(0);
    PyObject *iter = NULL;
    if (!result)
        goto fail0;
    iter = PyObject_GetIter(ready);
    if (!iter)
        goto fail;
    PyObject *task;
    while ((task = PyIter_Next(iter))) {
        PyObject *row = fetch_row(cache, task, fallback);
        if (!row || check_row(row) < 0) {
            Py_XDECREF(row);
            Py_DECREF(task);
            goto fail;
        }
        Py_ssize_t rn = PyTuple_GET_SIZE(row);
        if (rn > m)
            rn = m;
        Py_ssize_t best_i = -1;
        long long best_load = (long long)depth;
        for (Py_ssize_t i = 0; i < rn; i++) {
            if (load[i] >= best_load)
                continue;
            int t = PyObject_IsTrue(PyTuple_GET_ITEM(row, i));
            if (t < 0) {
                Py_DECREF(row);
                Py_DECREF(task);
                goto fail;
            }
            if (t) {
                best_i = i;
                best_load = load[i];
                if (load[i] == 0)
                    break;
            }
        }
        Py_DECREF(row);
        if (best_i >= 0) {
            load[best_i] += 1;
            if (append_pair(result, task, best_i) < 0) {
                Py_DECREF(task);
                goto fail;
            }
        }
        Py_DECREF(task);
    }
    if (PyErr_Occurred())
        goto fail;
    Py_DECREF(iter);
    PyMem_Free(load);
    return result;
fail:
    Py_XDECREF(iter);
    Py_XDECREF(result);
fail0:
    PyMem_Free(load);
    return NULL;
}

/* supported_positions(row, indices) -> [pos, ...]
 * Positions within the pool whose handler supports the task (the
 * candidate list of the RANDOM policy; the RNG draw stays in Python). */
static PyObject *
coreext_supported_positions(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *row, *idx_list;
    if (!PyArg_ParseTuple(args, "OO:supported_positions", &row, &idx_list))
        return NULL;
    if (check_row(row) < 0)
        return NULL;
    Py_ssize_t m = 0;
    long long *idx = longs_from_list(idx_list, &m);
    if (!idx)
        return NULL;
    Py_ssize_t rn = PyTuple_GET_SIZE(row);
    PyObject *result = PyList_New(0);
    if (!result) {
        PyMem_Free(idx);
        return NULL;
    }
    for (Py_ssize_t pos = 0; pos < m; pos++) {
        Py_ssize_t i = (Py_ssize_t)idx[pos];
        if (i < 0 || i >= rn)
            continue;
        int t = PyObject_IsTrue(PyTuple_GET_ITEM(row, i));
        if (t < 0)
            goto fail;
        if (t) {
            PyObject *p = PyLong_FromSsize_t(pos);
            if (!p)
                goto fail;
            int rc = PyList_Append(result, p);
            Py_DECREF(p);
            if (rc < 0)
                goto fail;
        }
    }
    PyMem_Free(idx);
    return result;
fail:
    Py_DECREF(result);
    PyMem_Free(idx);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Module init                                                         */
/* ------------------------------------------------------------------ */

static PyMethodDef coreext_methods[] = {
    {"run_loop", coreext_run_loop, METH_VARARGS,
     "run_loop(engine, heap, until, max_events) -> final now"},
    {"eft_pass", coreext_eft_pass, METH_VARARGS, "EFT/HEFT placement loop"},
    {"met_pass", coreext_met_pass, METH_VARARGS, "MET placement loop"},
    {"frfs_pass", coreext_frfs_pass, METH_VARARGS, "FRFS placement loop"},
    {"eft_reserve_pass", coreext_eft_reserve_pass, METH_VARARGS,
     "reservation-EFT placement loop"},
    {"frfs_reserve_pass", coreext_frfs_reserve_pass, METH_VARARGS,
     "reservation-FRFS placement loop"},
    {"supported_positions", coreext_supported_positions, METH_VARARGS,
     "candidate positions for the RANDOM policy"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef coreext_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._native._coreext",
    .m_doc = "Compiled DES core: event heap, run loop, scheduler kernels.",
    .m_size = -1,
    .m_methods = coreext_methods,
};

static int
resolve_from(const char *modname, const char *attr, PyObject **slot)
{
    PyObject *mod = PyImport_ImportModule(modname);
    if (!mod)
        return -1;
    *slot = PyObject_GetAttrString(mod, attr);
    Py_DECREF(mod);
    return *slot ? 0 : -1;
}

PyMODINIT_FUNC
PyInit__coreext(void)
{
    PyObject *m = NULL;
    if (PyType_Ready(&EventHeap_Type) < 0 ||
        PyType_Ready(&ReadyList_Type) < 0 ||
        PyType_Ready(&ReadyListIter_Type) < 0)
        return NULL;

    str_fire = PyUnicode_InternFromString("_fire");
    str_now = PyUnicode_InternFromString("now");
    str_events_fired = PyUnicode_InternFromString("events_fired");
    str_callbacks = PyUnicode_InternFromString("callbacks");
    str_state = PyUnicode_InternFromString("_state");
    str_fn = PyUnicode_InternFromString("fn");
    str_node = PyUnicode_InternFromString("node");
    str_status = PyUnicode_InternFromString("status");
    str_eft = PyUnicode_InternFromString("estimated_free_time");
    int_fired = PyLong_FromLong(2); /* repro.sim.engine._FIRED */
    if (!str_fire || !str_now || !str_events_fired || !str_callbacks ||
        !str_state || !str_fn || !str_node || !str_status ||
        !str_eft || !int_fired)
        return NULL;

    if (resolve_from("repro.common.errors", "EmulationError",
                     &EmulationError) < 0)
        return NULL;
    if (resolve_from("repro.sim.engine", "_Callback", &CallbackType) < 0)
        return NULL;
    if (resolve_from("repro.sim.engine", "Event", &EventType) < 0)
        return NULL;
    if (resolve_from("repro.sim.engine", "Timeout", &TimeoutType) < 0)
        return NULL;
    {
        PyObject *pe_status = NULL;
        if (resolve_from("repro.runtime.handler", "PEStatus", &pe_status) < 0)
            return NULL;
        PEStatusIdle = PyObject_GetAttrString(pe_status, "IDLE");
        PEStatusFailed = PyObject_GetAttrString(pe_status, "FAILED");
        Py_DECREF(pe_status);
        if (!PEStatusIdle || !PEStatusFailed)
            return NULL;
    }

    m = PyModule_Create(&coreext_module);
    if (!m)
        return NULL;
    Py_INCREF(&EventHeap_Type);
    if (PyModule_AddObject(m, "EventHeap", (PyObject *)&EventHeap_Type) < 0) {
        Py_DECREF(&EventHeap_Type);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&ReadyList_Type);
    if (PyModule_AddObject(m, "ReadyList", (PyObject *)&ReadyList_Type) < 0) {
        Py_DECREF(&ReadyList_Type);
        Py_DECREF(m);
        return NULL;
    }
    PyObject *build = Py_BuildValue(
        "{s:s, s:s, s:s, s:i}",
        "toolchain", "gcc",
        "compiler_version", __VERSION__,
        "python", PY_VERSION,
        "api", 1);
    if (!build || PyModule_AddObject(m, "BUILD_INFO", build) < 0) {
        Py_XDECREF(build);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}

