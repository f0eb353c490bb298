package sim

// wakeWheel is the engine's wake wheel: the timed wakes of sleeping
// components, keyed by cycle. It is an indexed binary min-heap over
// component ids with at most one entry per component (a component
// sleeps until one cycle at a time), so its minimum is O(1), updates
// are O(log n), and its backing array never grows past the component
// count — add reserves the room at registration, and nothing after
// that allocates.
type wakeWheel struct {
	heap []int32  // component ids, heap-ordered by at
	pos  []int32  // pos[id] = index of id in heap, -1 when not queued
	at   []uint64 // at[id] = wake cycle while queued
}

// add registers one more component id (not queued).
func (w *wakeWheel) add() {
	w.pos = append(w.pos, -1)
	w.at = append(w.at, 0)
	if cap(w.heap) < len(w.pos) {
		h := make([]int32, len(w.heap), 2*len(w.pos))
		copy(h, w.heap)
		w.heap = h
	}
}

// min reports the earliest queued wake cycle.
func (w *wakeWheel) min() (uint64, bool) {
	if len(w.heap) == 0 {
		return 0, false
	}
	return w.at[w.heap[0]], true
}

// set queues id to wake at cycle at, replacing any earlier entry.
func (w *wakeWheel) set(id int, at uint64) {
	if w.pos[id] < 0 {
		n := len(w.heap)
		w.heap = w.heap[:n+1]
		w.heap[n] = int32(id)
		w.pos[id] = int32(n)
		w.at[id] = at
		w.up(n)
		return
	}
	old := w.at[id]
	w.at[id] = at
	if at < old {
		w.up(int(w.pos[id]))
	} else {
		w.down(int(w.pos[id]))
	}
}

// lower queues id to wake at cycle at unless it is already queued for
// an earlier cycle.
func (w *wakeWheel) lower(id int, at uint64) {
	if w.pos[id] < 0 || at < w.at[id] {
		w.set(id, at)
	}
}

// remove dequeues id (a no-op when it is not queued).
func (w *wakeWheel) remove(id int) {
	i := int(w.pos[id])
	if i < 0 {
		return
	}
	last := len(w.heap) - 1
	w.swap(i, last)
	w.heap = w.heap[:last]
	w.pos[id] = -1
	if i < last {
		w.down(i)
		w.up(i)
	}
}

// pop dequeues and returns the id with the earliest wake cycle; the
// wheel must not be empty.
func (w *wakeWheel) pop() int {
	id := int(w.heap[0])
	w.remove(id)
	return id
}

func (w *wakeWheel) less(i, j int) bool {
	a, b := w.heap[i], w.heap[j]
	if w.at[a] != w.at[b] {
		return w.at[a] < w.at[b]
	}
	return a < b
}

func (w *wakeWheel) swap(i, j int) {
	w.heap[i], w.heap[j] = w.heap[j], w.heap[i]
	w.pos[w.heap[i]] = int32(i)
	w.pos[w.heap[j]] = int32(j)
}

func (w *wakeWheel) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !w.less(i, p) {
			return
		}
		w.swap(i, p)
		i = p
	}
}

func (w *wakeWheel) down(i int) {
	n := len(w.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && w.less(r, l) {
			m = r
		}
		if !w.less(m, i) {
			return
		}
		w.swap(i, m)
		i = m
	}
}
