package crashsim

import (
	"errors"
	"sync"
	"testing"
)

// TestVerdictWaitsForClaim: a lookup of a key another lookup is booting
// waits and takes that boot's verdict as a hit, without booting.
func TestVerdictWaitsForClaim(t *testing.T) {
	c := NewVerdictCache()
	k := verdictKey{image: 1, entry: "crash_check", arg: -1}
	release := make(chan struct{})
	claimed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, hit, err := c.verdict(k, func() (cachedVerdict, error) {
			close(claimed)
			<-release
			return cachedVerdict{pass: true, ret: 7}, nil
		})
		if err != nil || hit || v.ret != 7 {
			t.Errorf("claimer: verdict %+v hit %v err %v", v, hit, err)
		}
	}()
	<-claimed
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, hit, err := c.verdict(k, func() (cachedVerdict, error) {
			t.Error("a waiter booted a key whose boot succeeded")
			return cachedVerdict{}, nil
		})
		if err != nil || !hit || v.ret != 7 {
			t.Errorf("waiter: verdict %+v hit %v err %v, want the claimer's as a hit", v, hit, err)
		}
	}()
	close(release)
	wg.Wait()
	<-done
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits/misses %d/%d, want 1/1", hits, misses)
	}
}

// TestFailedBootStoresNothing: a boot that fails (a recovery deadline)
// or panics stores no verdict and ends its claim, so the next lookup of
// the key, a waiting one included, boots it itself.
func TestFailedBootStoresNothing(t *testing.T) {
	c := NewVerdictCache()
	k := verdictKey{image: 2, entry: "crash_check", arg: -1}
	deadline := errors.New("deadline")
	release := make(chan struct{})
	claimed := make(chan struct{})
	go func() {
		_, _, err := c.verdict(k, func() (cachedVerdict, error) {
			close(claimed)
			<-release
			return cachedVerdict{}, deadline
		})
		if err != deadline {
			t.Errorf("claimer: err %v, want its boot's", err)
		}
	}()
	<-claimed
	// The claim ends while this lookup waits on it, or before it looks.
	go close(release)
	v, hit, err := c.verdict(k, func() (cachedVerdict, error) {
		return cachedVerdict{pass: true, ret: 3}, nil
	})
	if err != nil || hit || v.ret != 3 {
		t.Fatalf("lookup after a failed boot: verdict %+v hit %v err %v, want its own boot", v, hit, err)
	}

	p := verdictKey{image: 3, entry: "crash_check", arg: -1}
	func() {
		defer func() { recover() }()
		c.verdict(p, func() (cachedVerdict, error) { panic("boom") })
	}()
	v, hit, err = c.verdict(p, func() (cachedVerdict, error) { return cachedVerdict{ret: 9}, nil })
	if err != nil || hit || v.ret != 9 {
		t.Fatalf("lookup after a panicked boot: verdict %+v hit %v err %v, want its own boot", v, hit, err)
	}
	if _, hit, _ = c.verdict(p, nil); !hit {
		t.Fatal("the verdict booted after a panic was not stored")
	}
}
