//go:build goexperiment.synctest

package sheepdoglike

import (
	"slices"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"ursa/internal/clock"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// TestBubbleQueuedReadsOnOneSheep: two volumes read one sheep at QD 2 each,
// inside a synctest bubble, where time is virtual and exact. Each volume's
// lane holds one read outstanding across its round trip, and the sheep
// serves one request at a time across its device sleep, so with a 1 ms
// one-way network and a 100 µs read the four reads land at exactly 2.1,
// 2.2, 4.2 and 4.3 ms. Both waits must be clock.Mutex: a reader queued on a
// sync.Mutex held across a model sleep is not durably blocked, the bubble's
// clock stops, and the test hangs.
func TestBubbleQueuedReadsOnOneSheep(t *testing.T) {
	synctest.Run(func() {
		const latency, read = time.Millisecond, 100 * time.Microsecond
		c, err := New(Options{
			Machines:       1,
			SSDsPerMachine: 1,
			Replication:    1,
			Clock:          clock.Realtime,
			SSDModel:       simdisk.SSDModel{Capacity: util.GiB, Parallelism: 32, ReadLatency: read},
			Net:            transport.NewSimNet(clock.Realtime, latency),
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		var vols []*Volume
		for _, name := range []string{"a", "b"} {
			v, err := c.CreateVolume(name, util.ChunkSize, "client-"+name)
			if err != nil {
				t.Error(err)
				return
			}
			defer v.Close()
			vols = append(vols, v)
		}

		var mu sync.Mutex
		var done []time.Duration
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, v := range vols {
			for i := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := v.ReadAt(make([]byte, 4096), int64(i)*4096); err != nil {
						t.Error(err)
					}
					mu.Lock()
					done = append(done, time.Since(t0))
					mu.Unlock()
				}()
			}
		}
		wg.Wait()
		slices.Sort(done)
		trip := 2*latency + read
		if want := []time.Duration{trip, trip + read, 2 * trip, 2*trip + read}; !slices.Equal(done, want) {
			t.Errorf("reads landed at %v, want exactly %v", done, want)
		}
	})
}
