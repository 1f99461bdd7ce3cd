package simdisk

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/clock"
	"ursa/internal/metrics"
)

// ErrFault is the sentinel every injected I/O error wraps — the simulated
// EIO. Recovery code matches it with errors.Is.
var ErrFault = errors.New("simdisk: injected I/O fault")

// MetricFaultsInjected counts fault armings (Kill/Fail*/Stall/SlowBy calls)
// on injectors sharing a metrics registry — the "how many things broke"
// axis of the recovery figure.
const MetricFaultsInjected = "disk-faults-injected"

// MetricCorruptionsInjected counts CorruptRange armings — the silent
// bit-rot axis, kept apart from disk-faults-injected because corruption is
// the one fault class the device does NOT report: reads succeed with wrong
// payloads and only integrity checks above the disk can notice.
const MetricCorruptionsInjected = "disk-corruptions-injected"

// rangeFault is one armed error fault over the byte range [lo, hi).
type rangeFault struct {
	lo, hi int64
	err    error
}

func (f rangeFault) hits(off int64, n int) bool {
	return off < f.hi && f.lo < off+int64(n)
}

// FaultInjector wraps a Disk and injects faults armed at runtime: error
// faults on reads or writes (whole-disk or range-scoped), latency faults
// (a fixed per-op stall or a service-time multiplier), and full-disk
// death. With nothing armed it is a pass-through; every component can run
// on one permanently, and the chaos harness arms and heals faults while
// the workload runs. All arm/heal methods are safe against concurrent I/O.
type FaultInjector struct {
	inner Disk
	clk   clock.Clock

	mu            sync.Mutex
	dead          bool
	readFaults    []rangeFault
	writeFaults   []rangeFault
	corruptFaults []corruptFault
	stall         time.Duration
	slowBy        float64 // service-time multiplier; 0 or 1 = off

	reg *metrics.Registry

	readFailed     atomic.Int64
	writeFailed    atomic.Int64
	delayedOps     atomic.Int64
	readsCorrupted atomic.Int64
}

// corruptFault is one armed silent-corruption fault: reads intersecting
// [lo, hi) succeed but every byte inside the range comes back flipped.
type corruptFault struct {
	lo, hi     int64
	persistent bool
}

// NewFaultInjector wraps d. The clock drives injected latency.
func NewFaultInjector(d Disk, clk clock.Clock) *FaultInjector {
	if clk == nil {
		clk = clock.Realtime
	}
	return &FaultInjector{inner: d, clk: clk, reg: metrics.NewRegistry()}
}

// SetMetrics routes the disk-faults-injected counter to reg (typically the
// cluster-wide registry) instead of the injector's own. Call before arming
// faults.
func (f *FaultInjector) SetMetrics(reg *metrics.Registry) {
	f.mu.Lock()
	f.reg = reg
	f.mu.Unlock()
}

// armed bumps the injected-faults counter; caller holds f.mu.
func (f *FaultInjector) armedLocked() {
	f.reg.Counter(MetricFaultsInjected).Inc()
}

// Kill arms full-disk death: every subsequent read and write fails.
func (f *FaultInjector) Kill() {
	f.mu.Lock()
	f.dead = true
	f.armedLocked()
	f.mu.Unlock()
}

// FailReads arms an error fault on every read; err nil means ErrFault.
func (f *FaultInjector) FailReads(err error) {
	f.FailReadRange(err, 0, math.MaxInt64)
}

// FailWrites arms an error fault on every write; err nil means ErrFault.
func (f *FaultInjector) FailWrites(err error) {
	f.FailWriteRange(err, 0, math.MaxInt64)
}

// FailReadRange arms an error fault on reads touching [lo, hi); err nil
// means ErrFault. Faults accumulate until Heal.
func (f *FaultInjector) FailReadRange(err error, lo, hi int64) {
	if err == nil {
		err = ErrFault
	}
	f.mu.Lock()
	f.readFaults = append(f.readFaults, rangeFault{lo, hi, err})
	f.armedLocked()
	f.mu.Unlock()
}

// FailWriteRange arms an error fault on writes touching [lo, hi); err nil
// means ErrFault. Faults accumulate until Heal.
func (f *FaultInjector) FailWriteRange(err error, lo, hi int64) {
	if err == nil {
		err = ErrFault
	}
	f.mu.Lock()
	f.writeFaults = append(f.writeFaults, rangeFault{lo, hi, err})
	f.armedLocked()
	f.mu.Unlock()
}

// Stall arms a fixed extra delay added to every operation's service time —
// a degraded-but-working device ("limping disk").
func (f *FaultInjector) Stall(d time.Duration) {
	f.mu.Lock()
	f.stall = d
	f.armedLocked()
	f.mu.Unlock()
}

// SlowBy arms a service-time multiplier: every operation takes mult× its
// measured device time (mult <= 1 disarms).
func (f *FaultInjector) SlowBy(mult float64) {
	f.mu.Lock()
	f.slowBy = mult
	f.armedLocked()
	f.mu.Unlock()
}

// CorruptRange arms silent bit-rot over the byte range [lo, hi): reads
// touching it SUCCEED, but every byte inside the range is flipped on the
// way back — the latent-sector-error model, where the stored data (or the
// head reading it) is wrong and nothing errors until somebody checks. One
// shot (persistent=false) delivers wrong data exactly once and disarms;
// persistent rot stays until Heal. Writes pass through untouched, so the
// only ways back to clean reads are Heal or re-replicating elsewhere.
func (f *FaultInjector) CorruptRange(lo, hi int64, persistent bool) {
	f.mu.Lock()
	f.corruptFaults = append(f.corruptFaults, corruptFault{lo, hi, persistent})
	f.reg.Counter(MetricCorruptionsInjected).Inc()
	f.mu.Unlock()
}

// corruptRead applies armed corruption to a successful read's buffer,
// dropping one-shot faults once they have delivered wrong data.
func (f *FaultInjector) corruptRead(p []byte, off int64) {
	f.mu.Lock()
	hit := false
	kept := f.corruptFaults[:0]
	for _, cf := range f.corruptFaults {
		lo, hi := cf.lo-off, cf.hi-off
		if lo < int64(len(p)) && hi > 0 {
			if lo < 0 {
				lo = 0
			}
			if hi > int64(len(p)) {
				hi = int64(len(p))
			}
			for i := lo; i < hi; i++ {
				p[i] ^= 0xa5
			}
			hit = true
			if !cf.persistent {
				continue
			}
		}
		kept = append(kept, cf)
	}
	f.corruptFaults = kept
	f.mu.Unlock()
	if hit {
		f.readsCorrupted.Add(1)
	}
}

// Heal clears every armed fault: the device works normally again.
func (f *FaultInjector) Heal() {
	f.mu.Lock()
	f.dead = false
	f.readFaults = nil
	f.writeFaults = nil
	f.corruptFaults = nil
	f.stall = 0
	f.slowBy = 0
	f.mu.Unlock()
}

// FaultStats counts faults actually delivered to callers.
type FaultStats struct {
	ReadsFailed    int64
	WritesFailed   int64
	DelayedOps     int64
	ReadsCorrupted int64
}

// FaultStats returns a snapshot of delivered faults.
func (f *FaultInjector) FaultStats() FaultStats {
	return FaultStats{
		ReadsFailed:    f.readFailed.Load(),
		WritesFailed:   f.writeFailed.Load(),
		DelayedOps:     f.delayedOps.Load(),
		ReadsCorrupted: f.readsCorrupted.Load(),
	}
}

// check resolves the fate of one op under the currently armed faults: an
// error to deliver, plus any extra stall and service multiplier.
func (f *FaultInjector) check(off int64, n int, write bool) (error, time.Duration, float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return fmt.Errorf("simdisk: disk dead: %w", ErrFault), 0, 0
	}
	faults := f.readFaults
	if write {
		faults = f.writeFaults
	}
	for _, rf := range faults {
		if rf.hits(off, n) {
			return rf.err, 0, 0
		}
	}
	return nil, f.stall, f.slowBy
}

func (f *FaultInjector) do(p []byte, off int64, write bool) error {
	ferr, stall, slow := f.check(off, len(p), write)
	if ferr != nil {
		if write {
			f.writeFailed.Add(1)
		} else {
			f.readFailed.Add(1)
		}
		return ferr
	}
	if stall > 0 {
		f.delayedOps.Add(1)
		f.clk.Sleep(stall)
	}
	t0 := f.clk.Now()
	var err error
	if write {
		err = f.inner.WriteAt(p, off)
	} else {
		err = f.inner.ReadAt(p, off)
		if err == nil {
			f.corruptRead(p, off)
		}
	}
	if slow > 1 {
		if stall <= 0 {
			f.delayedOps.Add(1)
		}
		f.clk.Sleep(time.Duration(float64(f.clk.Now().Sub(t0)) * (slow - 1)))
	}
	return err
}

// ReadAt implements Disk.
func (f *FaultInjector) ReadAt(p []byte, off int64) error {
	return f.do(p, off, false)
}

// WriteAt implements Disk.
func (f *FaultInjector) WriteAt(p []byte, off int64) error {
	return f.do(p, off, true)
}

// Discard implements Discarder by passing the trim through: armed faults
// are keyed by byte range, not by what is stored there, so a corruption or
// error range overlapping a discarded one keeps firing on later reads.
func (f *FaultInjector) Discard(off, n int64) { Discard(f.inner, off, n) }

// Size implements Disk.
func (f *FaultInjector) Size() int64 { return f.inner.Size() }

// QueueDepth implements Disk.
func (f *FaultInjector) QueueDepth() int { return f.inner.QueueDepth() }

// Stats implements Disk.
func (f *FaultInjector) Stats() Stats { return f.inner.Stats() }

// Close implements Disk.
func (f *FaultInjector) Close() error { return f.inner.Close() }

var _ Disk = (*FaultInjector)(nil)
