package journal

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/metrics"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// faultEnv is a journal set whose every device sits behind a FaultInjector.
type faultEnv struct {
	set  *Set
	sink *blockstore.Store
	reg  *metrics.Registry
	// jdisks[i] backs journal i; sinkDisk backs the chunk store.
	jdisks   []*simdisk.FaultInjector
	sinkDisk *simdisk.FaultInjector
}

func newFaultEnv(t *testing.T, nJournals int, start bool) (*faultEnv, func()) {
	t.Helper()
	clk := clock.Realtime
	reg := metrics.NewRegistry()

	hm := fastHDD(512 * util.MiB)
	sinkDisk := simdisk.NewFaultInjector(simdisk.NewHDD(hm, clk), clk)
	sink := blockstore.New(sinkDisk, 0)

	cfg := Config{Metrics: reg}
	set := NewSet(clk, sink, cfg)
	var jdisks []*simdisk.FaultInjector
	for i := 0; i < nJournals; i++ {
		sm := fastSSD(64 * util.MiB)
		jd := simdisk.NewFaultInjector(simdisk.NewSSD(sm, clk), clk)
		jdisks = append(jdisks, jd)
		set.AddSSDJournal("jssd"+string(rune('0'+i)), jd, 0, 16*util.MiB)
	}
	if start {
		set.Start()
	}
	return &faultEnv{set: set, sink: sink, reg: reg, jdisks: jdisks, sinkDisk: sinkDisk}, func() {
		set.Close()
		for _, d := range jdisks {
			d.Close()
		}
		sinkDisk.Close()
	}
}

// TestJournalDeathReroutes kills one journal's device mid-stream: the
// append whose flush fails must be re-routed to the surviving journal and
// still succeed, and the dead journal must leave the striping set.
func TestJournalDeathReroutes(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newFaultEnv(t, 2, true)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		if err := e.sink.Create(id); err != nil {
			t.Fatal(err)
		}

		data := make([]byte, 4*util.KiB)
		util.NewRand(21).Fill(data)
		if err := e.set.Append(nil, id, 0, data, 1); err != nil {
			t.Fatal(err)
		}

		// Sequential appends all stripe to journal 0 (equal queue depths pick
		// the first); killing its device makes the next flush fail.
		e.jdisks[0].FailWrites(nil)
		data2 := make([]byte, 4*util.KiB)
		util.NewRand(22).Fill(data2)
		if err := e.set.Append(nil, id, 4096, data2, 2); err != nil {
			t.Fatalf("append during journal death: %v", err)
		}

		st, js := e.set.Stats(), e.set.JournalStats()
		if st.DeadJournals != 1 || !js[0].Dead || js[0].Name != "jssd0" || js[1].Dead {
			t.Fatalf("stats after death: %+v %+v", st, js)
		}
		if got := e.reg.Counter(MetricJournalDead).Load(); got != 1 {
			t.Errorf("%s = %d", MetricJournalDead, got)
		}
		if js[1].Appends == 0 {
			t.Errorf("re-routed record did not land on survivor: %+v", js)
		}

		// Every ack'd write must read back, through journals and after replay.
		for _, probe := range []struct {
			off  int64
			want []byte
		}{{0, data}, {4096, data2}} {
			got := make([]byte, len(probe.want))
			if err := e.set.Read(id, got, probe.off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, probe.want) {
				t.Errorf("read at %d mismatch", probe.off)
			}
		}
		e.set.Drain()
		got := make([]byte, len(data2))
		if err := e.sink.ReadAt(id, got, 4096); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data2) {
			t.Error("re-routed record not replayed to sink")
		}
	})
}

// TestAllJournalsDeadBypasses drives the degradation ladder to the bottom:
// with every journal dead, Append refuses with ErrQuota — the bypass to the
// device is the caller's, the chunk server's one fallback — and writes
// nothing to the sink itself.
func TestAllJournalsDeadBypasses(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newFaultEnv(t, 2, true)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		if err := e.sink.Create(id); err != nil {
			t.Fatal(err)
		}
		for _, d := range e.jdisks {
			d.FailWrites(nil)
		}
		data := make([]byte, 4*util.KiB)
		util.NewRand(23).Fill(data)
		if err := e.set.Append(nil, id, 0, data, 1); !errors.Is(err, util.ErrQuota) {
			t.Fatalf("append with all journals dead: %v, want ErrQuota", err)
		}
		if st := e.set.Stats(); st.DeadJournals != 2 {
			t.Errorf("dead journals = %d", st.DeadJournals)
		}
		got := make([]byte, len(data))
		if err := e.sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, len(data))) {
			t.Error("the set wrote a refused append to the sink")
		}
		// Later appends keep refusing.
		if err := e.set.Append(nil, id, 4096, data, 2); !errors.Is(err, util.ErrQuota) {
			t.Fatalf("second append with all journals dead: %v, want ErrQuota", err)
		}
		e.set.Drain() // the failed records trim away; must not hang
		if p := e.set.Pending(); p != 0 {
			t.Errorf("pending after drain = %d", p)
		}
	})
}

// TestReplayParksOnSinkError arms a sink write fault under pending replay:
// the records must park (not drop), be counted and reported, and drain
// normally once the sink heals.
func TestReplayParksOnSinkError(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newFaultEnv(t, 1, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		if err := e.sink.Create(id); err != nil {
			t.Fatal(err)
		}
		var reported atomic.Int64
		e.set.OnFault(func(got blockstore.ChunkID, err error) {
			if got == id && err != nil {
				reported.Add(1)
			}
		})

		data := make([]byte, 4*util.KiB)
		util.NewRand(24).Fill(data)
		if err := e.set.Append(nil, id, 0, data, 1); err != nil {
			t.Fatal(err)
		}
		e.sinkDisk.FailWrites(nil)
		e.set.Start()

		deadline := time.Now().Add(5 * time.Second)
		for e.reg.Counter(MetricReplayErrors).Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("replay error never observed")
			}
			time.Sleep(time.Millisecond)
		}
		if p := e.set.Pending(); p != 1 {
			t.Fatalf("records dropped instead of parked: pending = %d", p)
		}
		if reported.Load() == 0 {
			t.Error("replay-error callback never fired")
		}
		if st := e.set.Stats(); st.ReplayErrors == 0 {
			t.Errorf("stats missed replay errors: %+v", st)
		}

		// Heal: the parked window must drain and the data must reach the sink.
		e.sinkDisk.Heal()
		e.set.Drain()
		if p := e.set.Pending(); p != 0 {
			t.Fatalf("pending after heal+drain = %d", p)
		}
		got := make([]byte, len(data))
		if err := e.sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("parked record not replayed after heal")
		}
	})
}

// TestReplayParksOnCorruptRecord flips bytes inside a committed record's
// payload sectors: replay must detect the CRC mismatch BEFORE any byte
// reaches the sink, park the window (not drop it), count it under
// journal-replay-corrupt, and drain normally once the rot heals. The record
// is not resident: replay has only the device copy.
func TestReplayParksOnCorruptRecord(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newFaultEnv(t, 1, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		if err := e.sink.Create(id); err != nil {
			t.Fatal(err)
		}
		var reported atomic.Int64
		e.set.OnFault(func(got blockstore.ChunkID, err error) {
			if got == id && errors.Is(err, util.ErrCorrupt) {
				reported.Add(1)
			}
		})

		data := make([]byte, 4*util.KiB)
		util.NewRand(25).Fill(data)
		if err := e.set.Append(nil, id, 0, data, 1); err != nil {
			t.Fatal(err)
		}

		dropResidency(e.set)

		// The record occupies [0, 512) header + [512, 4608) payload on journal
		// 0's device; rot the first payload sector, persistently.
		e.jdisks[0].CorruptRange(512, 1024, true)
		e.set.Start()

		deadline := time.Now().Add(5 * time.Second)
		for e.reg.Counter(MetricReplayCorrupt).Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("corrupt replay never observed")
			}
			time.Sleep(time.Millisecond)
		}
		if p := e.set.Pending(); p != 1 {
			t.Fatalf("corrupt record dropped instead of parked: pending = %d", p)
		}
		if reported.Load() == 0 {
			t.Error("replay-error callback never fired with ErrCorrupt")
		}
		if st := e.set.Stats(); st.ReplayCorrupt == 0 {
			t.Errorf("stats missed corrupt replays: %+v", st)
		}
		// Nothing corrupt reached the sink: the region still reads as zeros.
		got := make([]byte, len(data))
		if err := e.sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, len(data))) {
			t.Fatal("corrupt payload leaked into the sink")
		}

		// Heal the rot: the parked window re-verifies clean and drains.
		e.jdisks[0].Heal()
		e.set.Drain()
		if p := e.set.Pending(); p != 0 {
			t.Fatalf("pending after heal+drain = %d", p)
		}
		if err := e.sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("record not replayed intact after heal")
		}
	})
}

// TestRotUnderResidentRecordIsHarmless rots, and makes unreadable, the
// device copy of a record that is still resident: the window drains from
// the image in memory, which is verified like a device read, so nothing
// parks, no rotted byte reaches the sink, and the rotted space is trimmed
// with the window without ever being read.
func TestRotUnderResidentRecordIsHarmless(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newFaultEnv(t, 1, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		if err := e.sink.Create(id); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 4*util.KiB)
		util.NewRand(26).Fill(data)
		if err := e.set.Append(nil, id, 0, data, 1); err != nil {
			t.Fatal(err)
		}
		e.jdisks[0].CorruptRange(0, 4608, true)
		e.jdisks[0].FailReadRange(nil, 0, 4608)
		e.set.Start()
		e.set.Drain()

		st := e.set.Stats()
		if st.ReplayCorrupt != 0 || st.ReplayErrors != 0 || st.Pending != 0 {
			t.Fatalf("resident record parked on device rot: %+v", st)
		}
		if st.ReplayedFromMemory != int64(len(data)) || st.ReplayedFromDevice != 0 {
			t.Errorf("replayed %d bytes from memory, %d from the device", st.ReplayedFromMemory, st.ReplayedFromDevice)
		}
		if got := e.reg.Counter(MetricReplayResidentBytes).Load(); got != int64(len(data)) {
			t.Errorf("%s = %d, want %d", MetricReplayResidentBytes, got, len(data))
		}
		if got := e.jdisks[0].Stats().BytesRead; got != 0 {
			t.Errorf("replay read %d bytes of the journal device", got)
		}
		got := make([]byte, len(data))
		if err := e.sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("sink does not hold the appended bytes")
		}
	})
}
