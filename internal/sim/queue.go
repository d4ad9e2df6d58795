package sim

// Queue is a bounded FIFO token channel between simulation processes,
// with blocking semantics in virtual time: Get blocks while empty,
// Put blocks while full (back-pressure). It is the basic communication
// primitive of the data-driven execution model in section III of the
// paper, and of the message-based programming model of section II-C.
type Queue struct {
	Name string
	k    *Kernel
	cap  int
	buf  []any

	getters []*Proc
	putters []*Proc

	// Statistics.
	Puts, Gets uint64
	MaxDepth   int
	// BlockedPutTime accumulates virtual time producers spent blocked.
	BlockedPutTime Time
	// BlockedGetTime accumulates virtual time consumers spent blocked.
	BlockedGetTime Time
}

// NewQueue returns a queue with the given capacity. capacity <= 0
// means unbounded.
func (k *Kernel) NewQueue(name string, capacity int) *Queue {
	return &Queue{Name: name, k: k, cap: capacity}
}

// Full reports whether a Put would block.
func (q *Queue) Full() bool { return q.cap > 0 && len(q.buf) >= q.cap }

// Put appends v, blocking the process while the queue is full.
func (q *Queue) Put(p *Proc, v any) {
	for q.Full() {
		t0 := q.k.Now()
		q.putters = append(q.putters, p)
		p.park()
		q.BlockedPutTime += q.k.Now() - t0
	}
	q.buf = append(q.buf, v)
	q.Puts++
	if len(q.buf) > q.MaxDepth {
		q.MaxDepth = len(q.buf)
	}
	q.wake(&q.getters)
}

// TryPut appends v without blocking; it reports whether the token was
// accepted. This models the time-triggered writer of section III that
// does NOT wait for buffer space and therefore can overwrite data.
func (q *Queue) TryPut(v any) bool {
	if q.Full() {
		return false
	}
	q.buf = append(q.buf, v)
	q.Puts++
	if len(q.buf) > q.MaxDepth {
		q.MaxDepth = len(q.buf)
	}
	q.wake(&q.getters)
	return true
}

// Get removes and returns the oldest token, blocking while empty.
func (q *Queue) Get(p *Proc) any {
	for len(q.buf) == 0 {
		t0 := q.k.Now()
		q.getters = append(q.getters, p)
		p.park()
		q.BlockedGetTime += q.k.Now() - t0
	}
	v := q.buf[0]
	copy(q.buf, q.buf[1:])
	q.buf[len(q.buf)-1] = nil
	q.buf = q.buf[:len(q.buf)-1]
	q.Gets++
	q.wake(&q.putters)
	return v
}

// TryGet removes the oldest token without blocking.
func (q *Queue) TryGet() (any, bool) {
	if len(q.buf) == 0 {
		return nil, false
	}
	v := q.buf[0]
	copy(q.buf, q.buf[1:])
	q.buf[len(q.buf)-1] = nil
	q.buf = q.buf[:len(q.buf)-1]
	q.Gets++
	q.wake(&q.putters)
	return v, true
}

// wake resumes every parked process on list via the kernel's shared
// closure-free wakeAll path.
func (q *Queue) wake(list *[]*Proc) {
	q.k.wakeAll(list)
}

// Resource is a counting semaphore in virtual time; it models
// exclusive or limited-capacity hardware resources (bus grants,
// scheduler ASIP ports, semaphore peripherals).
type Resource struct {
	Name  string
	k     *Kernel
	total int
	inUse int
	wait  []*Proc
	// Acquisitions counts successful Acquire calls.
	Acquisitions uint64
	// ContendedTime accumulates time processes spent waiting.
	ContendedTime Time
}

// NewResource returns a resource with n units of capacity.
func (k *Kernel) NewResource(name string, n int) *Resource {
	if n <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{Name: name, k: k, total: n}
}

// Acquire takes one unit, blocking while none are free.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.total {
		t0 := r.k.Now()
		r.wait = append(r.wait, p)
		p.park()
		r.ContendedTime += r.k.Now() - t0
	}
	r.inUse++
	r.Acquisitions++
}

// Release returns one unit and wakes all waiters (they re-contend in
// FIFO order thanks to deterministic event ordering).
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire on " + r.Name)
	}
	r.inUse--
	r.k.wakeAll(&r.wait)
}
