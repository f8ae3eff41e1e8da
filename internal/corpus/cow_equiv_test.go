package corpus

import (
	"errors"
	"math/rand"
	"testing"

	"hippocrates/internal/interp"
	"hippocrates/internal/pmem"
)

// TestCowImagesMatchDeepClones is the fast-path equivalence gate over
// the whole corpus: for sampled crash points of every crashsim-able
// target, the copy-on-write image a captured CrashState's builder
// produces must be byte-identical to the deep-clone reference image a
// dedicated crash-at-event re-execution builds (crashImageCuts), for the
// corner schedules and a seeded sample of interior ones. It runs under
// -race in `make verify`, so the frozen-base sharing between captures
// and builder overlays is also exercised for data races.
func TestCowImagesMatchDeepClones(t *testing.T) {
	for _, p := range crashsimTargets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			mod := p.MustCompile()

			// Probe: learn the event count (and renumber once).
			probe, err := interp.New(mod, interp.Options{StepLimit: 50_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := probe.Run(p.Entry); err != nil {
				t.Fatalf("workload: %v", err)
			}
			total := len(probe.PMEventLog())

			// Sample up to 8 crash points, endpoints included.
			var points []int
			if total <= 8 {
				for k := 1; k <= total; k++ {
					points = append(points, k)
				}
			} else {
				for i := 0; i < 8; i++ {
					points = append(points, 1+i*(total-1)/7)
				}
			}

			// One capture run snapshots every sampled point.
			captures := make(map[int]*pmem.CrashState, len(points))
			want := make(map[int]bool, len(points))
			for _, k := range points {
				want[k] = true
			}
			var cm *interp.Machine
			cm, err = interp.New(mod, interp.Options{
				StepLimit: 50_000_000,
				OnPMEvent: func(k int, _ interp.PMEventKind) error {
					if want[k] {
						captures[k] = cm.CaptureCrashState()
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cm.Run(p.Entry); err != nil {
				t.Fatalf("capture run: %v", err)
			}

			rng := rand.New(rand.NewSource(42))
			for _, k := range points {
				cs := captures[k]
				if cs == nil {
					t.Fatalf("no capture at event %d", k)
				}
				// Reference machine: re-execute to the same boundary.
				ref, err := interp.New(mod, interp.Options{StepLimit: 50_000_000,
					OnPMEvent: func(n int, _ interp.PMEventKind) error {
						if n == k {
							return interp.ErrSimulatedCrash
						}
						return nil
					}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Run(p.Entry); !errors.Is(err, interp.ErrSimulatedCrash) {
					t.Fatalf("crash-at-event %d: err = %v, want simulated crash", k, err)
				}

				sizes := make([]int, len(cs.Lines))
				for i, pl := range cs.Lines {
					sizes[i] = len(pl.Stores)
				}
				builder := cs.NewBuilder()
				schedules := [][]int{make([]int, len(sizes)), sizes}
				for n := 0; n < 4; n++ {
					cuts := make([]int, len(sizes))
					for i := range cuts {
						cuts[i] = rng.Intn(sizes[i] + 1)
					}
					schedules = append(schedules, cuts)
				}
				for _, cuts := range schedules {
					builder.Seek(cuts)
					got := builder.Image()
					wantImg := crashImageCuts(ref, cuts)
					if d := pmem.DiffPM(got, wantImg); d != 0 {
						t.Fatalf("event %d cuts %v: COW image differs from deep clone in %d PM byte(s)", k, cuts, d)
					}
					var gotMeta, wantMeta [pmem.LineSize]byte
					got.Read(pmem.PMBase, gotMeta[:])
					wantImg.Read(pmem.PMBase, wantMeta[:])
					if gotMeta != wantMeta {
						t.Fatalf("event %d cuts %v: metadata line differs", k, cuts)
					}
				}
			}
		})
	}
}

// crashImageCuts is the deep-clone reference image for one crash
// schedule of a machine stopped at a crash point: the tracker's crash
// image keeping the first cuts[i] stores of its i-th pending line (every
// cut is in range), with the allocator's metadata line carried over
// intact, as the simulated hardware keeps it.
func crashImageCuts(m *interp.Machine, cuts []int) *pmem.Memory {
	keep := map[*pmem.TrackedStore]bool{}
	for i, pl := range m.Track.PendingLines() {
		for _, st := range pl.Stores[:cuts[i]] {
			keep[st] = true
		}
	}
	img := m.Track.CrashImage(func(st *pmem.TrackedStore) bool { return keep[st] })
	meta := make([]byte, pmem.LineSize)
	m.Mem.Read(pmem.PMBase, meta)
	img.Write(pmem.PMBase, meta)
	return img
}
