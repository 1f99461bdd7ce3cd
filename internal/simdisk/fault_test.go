package simdisk

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/metrics"
	"ursa/internal/util"
)

func TestFaultInjectorPassthrough(t *testing.T) {
	d := NewFaultInjector(fastSSD(), clock.Realtime)
	defer d.Close()
	data := make([]byte, 4*util.KiB)
	util.NewRand(11).Fill(data)
	if err := d.WriteAt(data, 8192); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("passthrough round trip mismatch")
	}
	if st := d.FaultStats(); st != (FaultStats{}) {
		t.Errorf("faults delivered with nothing armed: %+v", st)
	}
	if st := d.Stats(); st.Reads != 1 || st.Writes != 1 {
		t.Errorf("inner stats not visible: %+v", st)
	}
}

func TestFaultInjectorWriteFaultsScopedToWrites(t *testing.T) {
	d := NewFaultInjector(fastSSD(), clock.Realtime)
	defer d.Close()
	buf := make([]byte, 512)
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	d.FailWrites(nil)
	if err := d.WriteAt(buf, 0); !errors.Is(err, ErrFault) {
		t.Errorf("write under fault: %v", err)
	}
	if err := d.ReadAt(buf, 0); err != nil {
		t.Errorf("read must survive a write fault: %v", err)
	}
	st := d.FaultStats()
	if st.WritesFailed != 1 || st.ReadsFailed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFaultInjectorRangeScoped(t *testing.T) {
	d := NewFaultInjector(fastSSD(), clock.Realtime)
	defer d.Close()
	buf := make([]byte, 4096)
	d.FailReadRange(nil, util.MiB, 2*util.MiB)
	if err := d.ReadAt(buf, 0); err != nil {
		t.Errorf("read outside faulted range: %v", err)
	}
	if err := d.ReadAt(buf, util.MiB+512); !errors.Is(err, ErrFault) {
		t.Errorf("read inside faulted range: %v", err)
	}
	// An op straddling the range boundary intersects it and must fail.
	if err := d.ReadAt(buf, util.MiB-100); !errors.Is(err, ErrFault) {
		t.Errorf("read straddling range start: %v", err)
	}
	if err := d.ReadAt(buf, 2*util.MiB); err != nil {
		t.Errorf("read at exclusive range end: %v", err)
	}
	// Faults accumulate: arming a second range keeps the first armed.
	d.FailReadRange(nil, 4*util.MiB, 5*util.MiB)
	if err := d.ReadAt(buf, util.MiB+512); !errors.Is(err, ErrFault) {
		t.Errorf("first range forgotten after second arm: %v", err)
	}
	if err := d.ReadAt(buf, 4*util.MiB); !errors.Is(err, ErrFault) {
		t.Errorf("second range not armed: %v", err)
	}
}

func TestFaultInjectorCustomError(t *testing.T) {
	d := NewFaultInjector(fastSSD(), clock.Realtime)
	defer d.Close()
	boom := errors.New("boom")
	d.FailWriteRange(boom, 0, 1<<62)
	err := d.WriteAt(make([]byte, 512), 0)
	if !errors.Is(err, boom) {
		t.Errorf("custom error not delivered: %v", err)
	}
}

func TestFaultInjectorKillAndHeal(t *testing.T) {
	d := NewFaultInjector(fastSSD(), clock.Realtime)
	defer d.Close()
	buf := make([]byte, 512)
	d.Kill()
	if err := d.WriteAt(buf, 0); !errors.Is(err, ErrFault) {
		t.Errorf("write on dead disk: %v", err)
	}
	if err := d.ReadAt(buf, 0); !errors.Is(err, ErrFault) {
		t.Errorf("read on dead disk: %v", err)
	}
	d.Heal()
	if err := d.WriteAt(buf, 0); err != nil {
		t.Errorf("write after heal: %v", err)
	}
	if err := d.ReadAt(buf, 0); err != nil {
		t.Errorf("read after heal: %v", err)
	}
	st := d.FaultStats()
	if st.WritesFailed != 1 || st.ReadsFailed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFaultInjectorHealClearsAllFaults(t *testing.T) {
	d := NewFaultInjector(fastSSD(), clock.Realtime)
	defer d.Close()
	d.FailReads(nil)
	d.FailWrites(nil)
	d.Stall(time.Second)
	d.SlowBy(100)
	d.Heal()
	buf := make([]byte, 512)
	start := time.Now()
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("latency faults survived heal: %v", elapsed)
	}
}

func TestFaultInjectorStall(t *testing.T) {
	m := DefaultSSD()
	m.Capacity = util.MiB
	d := NewFaultInjector(NewSSD(m, clock.Realtime), clock.Realtime)
	defer d.Close()
	d.Stall(20 * time.Millisecond)
	start := time.Now()
	if err := d.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("stalled write returned in %v", elapsed)
	}
	if st := d.FaultStats(); st.DelayedOps != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFaultInjectorSlowBy(t *testing.T) {
	m := SSDModel{
		Capacity:     util.MiB,
		Parallelism:  1,
		ReadLatency:  time.Millisecond,
		WriteLatency: 5 * time.Millisecond,
	}
	d := NewFaultInjector(NewSSD(m, clock.Realtime), clock.Realtime)
	defer d.Close()
	d.SlowBy(4)
	start := time.Now()
	if err := d.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	// 5ms device time ×4 ≈ 20ms total; anything past 2× base shows the
	// multiplier took effect without pinning exact timing.
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("slowed write returned in %v", elapsed)
	}
	if st := d.FaultStats(); st.DelayedOps != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFaultInjectorMetricsCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	d := NewFaultInjector(fastSSD(), clock.Realtime)
	defer d.Close()
	d.SetMetrics(reg)
	d.Kill()
	d.Heal()
	d.FailWrites(nil)
	d.Stall(time.Millisecond)
	if got := reg.Counter(MetricFaultsInjected).Load(); got != 3 {
		t.Errorf("%s = %d, want 3", MetricFaultsInjected, got)
	}
}

func TestCorruptRangeOneShot(t *testing.T) {
	reg := metrics.NewRegistry()
	d := NewFaultInjector(fastSSD(), clock.Realtime)
	defer d.Close()
	d.SetMetrics(reg)
	data := make([]byte, 4*util.KiB)
	util.NewRand(21).Fill(data)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	d.CorruptRange(512, 1024, false)

	// The read succeeds — silent corruption — with only [512,1024) flipped.
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatalf("corrupt read must succeed: %v", err)
	}
	if bytes.Equal(got[512:1024], data[512:1024]) {
		t.Error("armed range came back clean")
	}
	if !bytes.Equal(got[:512], data[:512]) || !bytes.Equal(got[1024:], data[1024:]) {
		t.Error("corruption leaked outside the armed range")
	}

	// One shot: the second read is clean again.
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("one-shot corruption did not disarm after first read")
	}
	if st := d.FaultStats(); st.ReadsCorrupted != 1 {
		t.Errorf("ReadsCorrupted = %d, want 1", st.ReadsCorrupted)
	}
	if got := reg.Counter(MetricCorruptionsInjected).Load(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricCorruptionsInjected, got)
	}
	if got := reg.Counter(MetricFaultsInjected).Load(); got != 0 {
		t.Errorf("corruption arming leaked into %s", MetricFaultsInjected)
	}
}

func TestCorruptRangePersistentUntilHeal(t *testing.T) {
	d := NewFaultInjector(fastSSD(), clock.Realtime)
	defer d.Close()
	data := make([]byte, 2*util.KiB)
	util.NewRand(22).Fill(data)
	if err := d.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	d.CorruptRange(4096, 4096+512, true)
	got := make([]byte, len(data))
	for i := 0; i < 3; i++ {
		if err := d.ReadAt(got, 4096); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got[:512], data[:512]) {
			t.Fatalf("read %d: persistent rot came back clean", i)
		}
		if !bytes.Equal(got[512:], data[512:]) {
			t.Fatalf("read %d: corruption outside armed range", i)
		}
	}
	if st := d.FaultStats(); st.ReadsCorrupted != 3 {
		t.Errorf("ReadsCorrupted = %d, want 3", st.ReadsCorrupted)
	}
	d.Heal()
	if err := d.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("Heal did not clear the corruption fault")
	}
}

// TestFaultInjectorDiscardPassthrough: a discard reaches the wrapped
// device, and armed corruption and error ranges overlapping the discarded
// range keep firing — they are keyed by range, not by what is stored.
func TestFaultInjectorDiscardPassthrough(t *testing.T) {
	inner := fastSSD()
	d := NewFaultInjector(inner, clock.Realtime)
	defer d.Close()
	data := make([]byte, 3*pageSize)
	util.NewRand(33).Fill(data)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	d.CorruptRange(pageSize, pageSize+512, true)
	d.FailReadRange(nil, 2*pageSize-512, 2*pageSize)

	Discard(d, pageSize, pageSize)
	if got := inner.UsedBytes(); got != 2*pageSize {
		t.Fatalf("discard did not reach the device: used = %d", got)
	}

	got := make([]byte, 1024)
	if err := d.ReadAt(got, pageSize); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte(0) // discarded: zeros ...
		if i < 512 {
			want = 0xa5 // ... still rotted inside the armed range
		}
		if b != want {
			t.Fatalf("byte %d after discard = %#x, want %#x", i, b, want)
		}
	}
	if err := d.ReadAt(got, 2*pageSize-1024); !errors.Is(err, ErrFault) {
		t.Errorf("error range over discarded space: %v", err)
	}
}
