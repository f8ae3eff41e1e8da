package pmem

import "sort"

// refTracker is the straightforward durability state machine the Tracker
// once was: pending stores in a per-line map, every query rebuilt by a
// map walk plus a sort. It is kept only as the oracle of the differential
// test, so its code favours obviousness over speed.
type refTracker struct {
	pending   map[uint64][]*TrackedStore
	durable   *Memory
	lastFence []int

	RedundantFlushes []RedundantFlush
	RedundantFences  int
	DurableStores    int
	TotalStores      int
	Publishes        []CrossThreadPublish
}

func newRefTracker() *refTracker {
	return &refTracker{pending: make(map[uint64][]*TrackedStore), durable: NewMemory()}
}

func (t *refTracker) OnStoreT(seq, tid int, addr uint64, data []byte) *TrackedStore {
	t.TotalStores++
	line := LineOf(addr)
	list := t.pending[line]
	for i, old := range list {
		if old.Addr == addr && old.Size() == len(data) {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	st := &TrackedStore{
		Addr: addr, Seq: seq, size: uint8(len(data)),
		State: StoreDirty, FlushSeq: -1, Tid: tid, FlushTid: -1,
	}
	copy(st.data[:], data)
	t.pending[line] = append(list, st)
	return st
}

func (t *refTracker) OnNTStoreT(seq, tid int, addr uint64, data []byte) *TrackedStore {
	st := t.OnStoreT(seq, tid, addr, data)
	st.State, st.FlushSeq, st.FlushTid, st.NT = StoreFlushed, seq, tid, true
	return st
}

func (t *refTracker) OnFlushT(seq, tid int, ordered bool, addr uint64) int {
	line := LineOf(addr)
	moved := 0
	list := t.pending[line]
	if ordered {
		delete(t.pending, line)
		for _, st := range list {
			t.commit(st)
			moved++
		}
	} else {
		for _, st := range list {
			if st.State == StoreDirty {
				st.State, st.FlushSeq, st.FlushTid = StoreFlushed, seq, tid
				moved++
			}
		}
	}
	if moved == 0 {
		t.RedundantFlushes = append(t.RedundantFlushes, RedundantFlush{Addr: addr, Seq: seq})
	}
	return moved
}

func (t *refTracker) OnFenceT(seq, tid int) int {
	for len(t.lastFence) <= tid {
		t.lastFence = append(t.lastFence, -1)
	}
	t.lastFence[tid] = seq
	var commits []*TrackedStore
	lines := 0
	for line, list := range t.pending {
		var keep []*TrackedStore
		drained := false
		for _, st := range list {
			if st.State == StoreFlushed && st.FlushTid == tid {
				commits = append(commits, st)
				drained = true
			} else {
				keep = append(keep, st)
			}
		}
		if drained {
			lines++
		}
		if len(keep) == 0 {
			delete(t.pending, line)
		} else {
			t.pending[line] = keep
		}
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i].Seq < commits[j].Seq })
	for _, st := range commits {
		t.commit(st)
	}
	if len(commits) == 0 {
		t.RedundantFences++
	}
	return lines
}

func (t *refTracker) commit(st *TrackedStore) {
	st.State = StoreDurable
	t.durable.Write(st.Addr, st.Data())
	t.DurableStores++
	if len(st.Data()) != 8 {
		return
	}
	val := uint64(0)
	for i := 7; i >= 0; i-- {
		val = val<<8 | uint64(st.Data()[i])
	}
	if !IsPM(val) {
		return
	}
	for _, ref := range t.pending[LineOf(val)] {
		if ref.Tid != st.Tid {
			t.Publishes = append(t.Publishes, CrossThreadPublish{
				PubAddr: st.Addr, PubSeq: st.Seq, PubTid: st.Tid, Val: val, Referent: *ref,
			})
		}
	}
}

func (t *refTracker) OnCheckpoint(seq int) []Violation {
	var out []Violation
	for _, list := range t.pending {
		for _, st := range list {
			v := Violation{Store: st, CheckpointSeq: seq}
			last := -1
			if st.Tid < len(t.lastFence) {
				last = t.lastFence[st.Tid]
			}
			switch {
			case st.State == StoreFlushed:
				v.Class = MissingFence
			case last > st.Seq:
				v.Class = MissingFlush
			default:
				v.Class = MissingFlushFence
			}
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Store.Seq < out[j].Store.Seq })
	return out
}

func (t *refTracker) NumPending() int {
	n := 0
	for _, list := range t.pending {
		n += len(list)
	}
	return n
}

func (t *refTracker) PendingLines() []PendingLine {
	var out []PendingLine
	for line, list := range t.pending {
		stores := append([]*TrackedStore(nil), list...)
		sort.Slice(stores, func(i, j int) bool { return stores[i].Seq < stores[j].Seq })
		out = append(out, PendingLine{Line: line, Stores: stores})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}
