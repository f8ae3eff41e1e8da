package pmcheck

import (
	"reflect"
	"testing"

	"hippocrates/internal/trace"
)

// TestSharedResultsMatchFresh replays traces, some of them again, through
// one detector whose verdicts go through one VerdictTable: every verdict
// equals a fresh Check of its trace, and a trace replayed again gets the
// verdict record its first replay entered. The order recycles records
// across report shapes: a report with checkpoints, then one with flush
// sites, then a cross-thread report with neither, whose lists must still
// be nil.
func TestSharedResultsMatchFresh(t *testing.T) {
	unflushed := mkTrace(store(pm, "f", 1), ev(trace.KindCheckpoint, "f", 2))
	unfenced := mkTrace(store(pm, "g", 1), flush(pm, "g", 2), ev(trace.KindCheckpoint, "g", 3))
	// Thread 1's store is pending when thread 0 durably publishes a
	// pointer to its line; no durability point follows.
	pending := store(pm, "w", 1)
	pending.Tid = 1
	pub := store(pm+128, "m", 2)
	pub.Val = pm
	published := mkTrace(pending, pub, flush(pm+128, "m", 3), ev(trace.KindFence, "m", 4))
	clean := mkTrace(store(pm, "h", 1), flush(pm, "h", 2), ev(trace.KindFence, "h", 3))

	d, tab := NewDetector(), NewVerdictTable()
	first := map[*trace.Trace]*Result{}
	for i, tr := range []*trace.Trace{unflushed, unflushed, unfenced, unfenced, published,
		clean, published, unflushed, clean, unfenced} {
		d.replay(tr)
		got := d.SharedResult(tab)
		if want := Check(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay %d: shared verdict\n%+v\nfresh\n%+v", i, got, want)
		}
		if f, ok := first[tr]; ok && got != f {
			t.Errorf("replay %d: a verdict the table holds is a new record", i)
		}
		first[tr] = got
	}
	if r := first[published].Reports; len(r) != 1 || !r[0].CrossThread || r[0].Checkpoints != nil {
		t.Fatalf("published: reports %+v, want one cross-thread report without checkpoints", r)
	}
}
