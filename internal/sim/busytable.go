package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// maxTableEntries caps a BusyPeriodTable. Once it is full, walking runs
// simulate the busy periods it misses without storing them.
const maxTableEntries = 1 << 16

// chunkEntries is the number of entries a table allocates rows for at
// once, so a growing table never copies its rows.
const chunkEntries = 64

// maxKeySpace is the key-space side of the walk's gate: a system whose
// keys span at most ∏ Tᵢ = 2²⁰ phasings revisits its busy periods across
// probes even when no single run spans a hyperperiod.
const maxKeySpace = 1 << 20

// BusyPeriodTable records the busy periods of one system's jitter-free
// target-scoped runs, keyed by the phasing each starts from, so the
// phasing-search probes sharing it simulate every busy period once
// (DESIGN.md §10). Its entries are pure functions of their keys, so a
// shared table changes how a probe is computed, never what it observes.
// The zero value is ready to use; the first search that uses it binds
// it to its system. It is safe for concurrent use.
type BusyPeriodTable struct {
	mu      sync.Mutex
	sys     *traffic.System
	stride  int              // row values per entry
	ids     map[string]int32 // key → entry id
	entries []busyPeriod
	// rows holds entry id's row at chunk id/chunkEntries, offset
	// id%chunkEntries·stride.
	rows [][]int32
	// subs maps an influence set of sys, as a varint string of its flow
	// indices, to its restricted system and that system's table.
	subs map[string]*subTable
}

// subTable is the restricted system of one influence set and the table
// its probes walk.
type subTable struct {
	sys   *traffic.System
	table BusyPeriodTable
}

// busyPeriod is one table entry: the first busy period of a run from
// the entry's key, from its first release to the drain that ends it.
// Its row holds, per flow, the busy period's worst latency, latency
// total and deadline-miss count, then every hop's largest buffer
// occupancy. The rest follows from the key and the length: a drain
// delivers every packet released before it, so each flow released and
// completed one packet per tick of its own in the busy period, and the
// next key is every flow's first tick after it. A busy period with a
// length or row value beyond int32 is not stored.
type busyPeriod struct {
	length int32 // cycles from the first release to the drain
	next   int32 // id of the next key's entry; -1 until resolved
}

// bind ties b to sys on first use and rejects any other system.
func (b *BusyPeriodTable) bind(sys *traffic.System) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sys == nil {
		b.sys = sys
		b.stride = 3 * sys.NumFlows()
		for i := range sys.NumFlows() {
			b.stride += sys.Route(i).Len() - 1
		}
	} else if b.sys != sys {
		return fmt.Errorf("sim: a busy-period table serves one system")
	}
	return nil
}

// restrict binds b to sys and returns the restricted system of keep,
// an influence set of sys in index order, with its table, building both
// on first use.
func (b *BusyPeriodTable) restrict(sys *traffic.System, keep []int) (*traffic.System, *BusyPeriodTable, error) {
	if err := b.bind(sys); err != nil {
		return nil, nil, err
	}
	var key []byte
	for _, i := range keep {
		key = binary.AppendUvarint(key, uint64(i))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.subs[string(key)]
	if !ok {
		sub, err := Restrict(sys, keep)
		if err != nil {
			return nil, nil, err
		}
		s = &subTable{sys: sub}
		if b.subs == nil {
			b.subs = make(map[string]*subTable)
		}
		b.subs[string(key)] = s
	}
	return s.sys, &s.table, nil
}

func (b *BusyPeriodTable) row(id int32) []int32 {
	return b.rows[id/chunkEntries][int(id%chunkEntries)*b.stride:][:b.stride]
}

// add stores a new entry for key and returns its id.
func (b *BusyPeriodTable) add(key []byte, bp busyPeriod, row []int32) int32 {
	id := int32(len(b.entries))
	if b.ids == nil {
		b.ids = make(map[string]int32)
	}
	b.ids[string(key)] = id
	b.entries = append(b.entries, bp)
	if id%chunkEntries == 0 {
		b.rows = append(b.rows, make([]int32, 0, chunkEntries*b.stride))
	}
	b.rows[id/chunkEntries] = append(b.rows[id/chunkEntries], row...)
	return id
}

// walkStep is one busy period of a walking run, logged in run order.
type walkStep struct {
	id    int32
	start noc.Cycles
}

// recording is the busy period a walking run is simulating for the
// table: a new entry (id -1), or, under checkInvariants, hit id's.
type recording struct {
	on    bool
	start noc.Cycles
	id    int32
}

// nextStart is the next release of any flow: at a drain, the start of
// the next busy period.
func (e *Engine) nextStart() noc.Cycles {
	s := maxCycles
	for _, r := range e.nextRelease {
		s = min(s, r)
	}
	return s
}

// appendKey appends the key of the busy period starting at s, every
// flow's next release minus s, to dst.
func (e *Engine) appendKey(dst []byte, s noc.Cycles) []byte {
	for _, r := range e.nextRelease {
		dst = binary.AppendUvarint(dst, uint64(r-s))
	}
	return dst
}

// walk runs at each drain d of a walking run, and at cycle 0. It closes
// the busy period the run was recording, then applies the table's
// entries from d on as long as each busy period drains no later than
// the target's last tick, fast-forwarding the first key the run
// revisits by whole recurrences. It returns the drain the run resumes
// from, with a recording armed when the next busy period is not in the
// table. The busy period holding the target's last tick is always
// simulated, so the target's row and StoppedAt are exact.
func (e *Engine) walk(d noc.Cycles) noc.Cycles {
	b := e.bp
	b.mu.Lock()
	defer b.mu.Unlock()
	prev := int32(-1)
	if e.rec.on {
		prev = e.closeRecording(d)
	}
	mergeRows(&e.base, e.res)
	clearRows(e.res)
	moved := false
	for {
		s := e.nextStart()
		id := int32(-1)
		if prev >= 0 && b.entries[prev].next >= 0 {
			id = b.entries[prev].next
		} else {
			e.keyBuf = e.appendKey(e.keyBuf[:0], s)
			if x, ok := b.ids[string(e.keyBuf)]; ok {
				id = x
				if prev >= 0 {
					b.entries[prev].next = x
				}
			}
		}
		if id < 0 {
			if len(b.entries) < maxTableEntries {
				e.rec = recording{on: true, start: s, id: -1} // keyBuf keeps its key
			} else {
				e.noForward = true // an unstored busy period breaks the log
			}
			break
		}
		if !e.noForward && int(id) < len(e.visit) && e.visit[id] > 0 {
			e.noForward = true
			if e.forward(id, s) {
				s, moved = e.nextStart(), true
			}
		}
		bp := b.entries[id]
		length := noc.Cycles(bp.length)
		if s+length > e.lastTick {
			break // the target's last tick falls in it
		}
		e.hits++
		if e.cfg.checkInvariants {
			e.rec = recording{on: true, start: s, id: id}
			break
		}
		d = s + length
		e.addRow(b.row(id), 1)
		for i, r := range e.nextRelease {
			if r < d {
				e.tick(i, (d-r-1)/e.flows[i].Period+1)
			}
		}
		e.logStep(id, s)
		prev, moved = id, true
	}
	if moved {
		e.relHeap = e.relHeap[:0]
		for i, r := range e.nextRelease {
			e.relPush(r, int32(i))
		}
	}
	return d
}

// forward fast-forwards a recurrence: the run is at s with the key it
// had at its logged step visit[id]−1, so the busy periods logged since
// repeat with period L. It adds m = ⌊(lastTick − s)/L⌋ repetitions,
// all of whose drains fall no later than the target's last tick, and
// reports whether m was positive. Worst latencies and occupancies
// recur, so only the counts and totals grow. Every flow's next release
// lies L later at the revisit, so L is a whole number of its periods.
func (e *Engine) forward(id int32, s noc.Cycles) bool {
	from := e.visit[id] - 1
	L := s - e.walkLog[from].start
	m := (e.lastTick - s) / L
	if m <= 0 {
		return false
	}
	for _, st := range e.walkLog[from:] {
		e.addRow(e.bp.row(st.id), m)
	}
	for i := range e.nextRelease {
		e.tick(i, m*L/e.flows[i].Period)
	}
	e.hits++
	return true
}

// tick accounts k ticks of flow i in busy periods the run did not
// simulate: k packets released and completed, and the next release k
// periods later.
func (e *Engine) tick(i int, k noc.Cycles) {
	e.nextRelease[i] += k * e.flows[i].Period
	e.released[i] += int(k)
	e.base.Released[i] += int(k)
	e.base.Completed[i] += int(k)
}

// closeRecording ends the recorded busy period at drain d: it stores a
// new entry, or, for a checked hit, panics unless the simulation
// reproduced the entry. It returns the entry's id, or -1 when the busy
// period was not stored.
func (e *Engine) closeRecording(d noc.Cycles) int32 {
	b, r := e.bp, e.rec
	e.rec.on = false
	row, fits := e.appendRow(e.rowBuf[:0])
	e.rowBuf = row
	if !fits || d-r.start > math.MaxInt32 {
		e.noForward = true
		return -1
	}
	got := busyPeriod{length: int32(d - r.start), next: -1}
	id := r.id
	if id < 0 {
		x, ok := b.ids[string(e.keyBuf)] // a run sharing the table may have stored it
		switch {
		case ok:
			id = x
		case len(b.entries) < maxTableEntries:
			id = b.add(e.keyBuf, got, row)
		default:
			e.noForward = true
			return -1
		}
	}
	if bp := b.entries[id]; e.cfg.checkInvariants && (bp.length != got.length || !slices.Equal(b.row(id), row) ||
		!slices.Equal(e.res.Completed, e.res.Released)) {
		panic(fmt.Sprintf("sim: busy period from cycle %d: simulated length %d, row %v, completed %v of %v released; table entry %d has %d, %v",
			r.start, got.length, row, e.res.Completed, e.res.Released, id, bp.length, b.row(id)))
	}
	e.logStep(id, r.start)
	return id
}

// logStep appends busy period id, started at s, to the run's log, while
// the run may still fast-forward.
func (e *Engine) logStep(id int32, s noc.Cycles) {
	if e.noForward {
		return
	}
	if n := int(id) + 1; n > len(e.visit) {
		e.visit = append(e.visit, make([]int32, n-len(e.visit))...)
	}
	e.walkLog = append(e.walkLog, walkStep{id: id, start: s})
	e.visit[id] = int32(len(e.walkLog))
}

// appendRow appends the row of the busy period held in res to dst
// (layout in busyPeriod), and reports whether every value fit in int32.
func (e *Engine) appendRow(dst []int32) ([]int32, bool) {
	fits := true
	put := func(v noc.Cycles) {
		fits = fits && v <= math.MaxInt32
		dst = append(dst, int32(v))
	}
	r := e.res
	for i := 0; i < e.n; i++ {
		put(r.WorstLatency[i])
		put(r.TotalLatency[i])
		put(noc.Cycles(r.DeadlineMisses[i]))
	}
	for _, occ := range r.MaxOccupancy {
		for _, o := range occ {
			put(noc.Cycles(o))
		}
	}
	return dst, fits
}

// addRow adds m repetitions of a busy period's row to base.
func (e *Engine) addRow(row []int32, m noc.Cycles) {
	b := &e.base
	for i := 0; i < e.n; i++ {
		v := row[3*i:]
		b.WorstLatency[i] = max(b.WorstLatency[i], noc.Cycles(v[0]))
		b.TotalLatency[i] += m * noc.Cycles(v[1])
		b.DeadlineMisses[i] += int(m) * int(v[2])
	}
	k := 3 * e.n
	for _, occ := range b.MaxOccupancy {
		for h := range occ {
			occ[h] = max(occ[h], int(row[k]))
			k++
		}
	}
}

// mergeRows folds src's per-flow rows into dst: maxima for worst
// latencies and occupancies, sums for the rest.
func mergeRows(dst, src *Result) {
	for i := range dst.WorstLatency {
		dst.WorstLatency[i] = max(dst.WorstLatency[i], src.WorstLatency[i])
		dst.TotalLatency[i] += src.TotalLatency[i]
		dst.Completed[i] += src.Completed[i]
		dst.Released[i] += src.Released[i]
		dst.DeadlineMisses[i] += src.DeadlineMisses[i]
		for h, o := range src.MaxOccupancy[i] {
			dst.MaxOccupancy[i][h] = max(dst.MaxOccupancy[i][h], o)
		}
	}
}

// clearRows empties r's per-flow rows.
func clearRows(r *Result) {
	for i := range r.WorstLatency {
		r.WorstLatency[i] = -1
		r.TotalLatency[i] = 0
		r.Completed[i] = 0
		r.Released[i] = 0
		r.DeadlineMisses[i] = 0
		clear(r.MaxOccupancy[i])
	}
}
