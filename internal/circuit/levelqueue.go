package circuit

// LevelQueue is the dirty-gate work queue shared by the incremental
// timing engines (deterministic STA and FULLSSTA): a min-heap of
// gates ordered by logic level, with duplicate suppression. Popping in
// level order guarantees a gate is re-evaluated only after every dirty
// gate in its transitive fanin has been re-evaluated — the invariant
// that makes a single pass over the dirty cone exact.
//
// Ties within a level are broken by ascending GateID so the drain order
// (and therefore journaling order and eval counters) is deterministic.
// The zero value is not usable; call NewLevelQueue with the circuit's
// gate count.
type LevelQueue struct {
	heap    []levelItem
	inQueue []bool
}

type levelItem struct {
	level int32
	id    GateID
}

// NewLevelQueue returns an empty queue for a circuit of n gates.
func NewLevelQueue(n int) *LevelQueue {
	return &LevelQueue{inQueue: make([]bool, n)}
}

// Len returns the number of queued gates.
func (q *LevelQueue) Len() int { return len(q.heap) }

// Push enqueues the gate at the given level; a gate already queued is
// left in place (levels are fixed per circuit, so the duplicate would
// carry the same priority).
func (q *LevelQueue) Push(id GateID, level int32) {
	if q.inQueue[id] {
		return
	}
	q.inQueue[id] = true
	q.heap = append(q.heap, levelItem{level: level, id: id})
	q.siftUp(len(q.heap) - 1)
}

// Pop dequeues the lowest-level gate; ok is false on an empty queue.
func (q *LevelQueue) Pop() (id GateID, ok bool) {
	if len(q.heap) == 0 {
		return None, false
	}
	it := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0)
	}
	q.inQueue[it.id] = false
	return it.id, true
}

func (q *LevelQueue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.level != b.level {
		return a.level < b.level
	}
	return a.id < b.id
}

func (q *LevelQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *LevelQueue) siftDown(i int) {
	n := len(q.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}
