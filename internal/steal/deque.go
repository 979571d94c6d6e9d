// Package steal implements the two-layer load balancing of Section 5.3:
// per-worker deques for intra-machine work stealing (owner pushes/pops at
// the back, thieves steal half from the front, after Chase–Lev [15]), plus
// the victim-selection helper used for inter-machine StealWork RPCs.
package steal

import "sync"

// Task is an opaque unit of work (the engine uses batch chunks).
type Task any

// Deque is a work-stealing deque. The owner uses Push/Pop; other workers
// use StealHalf. A mutex guards the (small) slice of tasks — contention is
// negligible at batch-chunk granularity, which is what the paper steals at.
type Deque struct {
	mu    sync.Mutex
	tasks []Task
}

// Push adds a task at the back (owner side).
func (d *Deque) Push(t Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

// PushAll adds tasks at the back.
func (d *Deque) PushAll(ts []Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, ts...)
	d.mu.Unlock()
}

// Pop removes the most recently pushed task (back). ok is false when empty.
func (d *Deque) Pop() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return nil, false
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	return t, true
}

// StealHalf removes half of the tasks (rounded up) from the front — the
// oldest work — as the paper's intra-machine policy prescribes.
func (d *Deque) StealHalf() []Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return nil
	}
	k := (n + 1) / 2
	stolen := make([]Task, k)
	copy(stolen, d.tasks[:k])
	d.tasks = append(d.tasks[:0], d.tasks[k:]...)
	return stolen
}

// Len returns the current number of tasks.
func (d *Deque) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tasks)
}

// Rand is a splitmix64 stream for victim selection. Picking a victim needs
// a cheap, seedable, per-worker sequence; a math/rand source costs a
// 607-word seeding pass, which a pool built per batch paid per worker.
type Rand uint64

// Intn returns a pseudo-random int in [0, n); n must be positive.
func (r *Rand) Intn(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

// Pool is a set of deques, one per worker, with victim selection.
type Pool struct {
	Deques []*Deque
	rng    []Rand // one per worker, avoiding a shared lock
}

// NewPool creates n deques.
func NewPool(n int, seed int64) *Pool {
	p := &Pool{Deques: make([]*Deque, n), rng: make([]Rand, n)}
	for i := range p.Deques {
		p.Deques[i] = &Deque{}
		p.rng[i] = Rand(seed + int64(i))
	}
	return p
}

// Next returns the next task for worker w: its own back, or half of a
// random non-empty victim's front. stole reports whether work was stolen.
func (p *Pool) Next(w int) (t Task, ok, stole bool) {
	if t, ok := p.Deques[w].Pop(); ok {
		return t, true, false
	}
	n := len(p.Deques)
	start := p.rng[w].Intn(n)
	for i := 0; i < n; i++ {
		v := (start + i) % n
		if v == w {
			continue
		}
		if stolen := p.Deques[v].StealHalf(); len(stolen) > 0 {
			p.Deques[w].PushAll(stolen)
			if t, ok := p.Deques[w].Pop(); ok {
				return t, true, true
			}
		}
	}
	return nil, false, false
}
