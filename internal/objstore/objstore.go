// Package objstore simulates an S3-like object store: a flat namespace of
// immutable, write-once segments addressed by 64-bit IDs. It is the cold
// tier's backend — snapshot and cold-chunk extents live here as checksummed
// log segments (internal/coldtier owns the segment format; this package
// only stores bytes).
//
// The store models object-storage economics on the cluster clock: high
// per-op latency, decent streaming bandwidth, bounded request parallelism.
// Like simdisk it carries a built-in fault injector (failed PUTs/GETs,
// stalls, transient read corruption) so the chaos harness can break it
// mid-workload, and it is served over the ordinary transport
// (objstore.Handler) so partitions apply to it like to any other node.
//
// Deletion discipline: DELETE of an object waits for in-flight GETs on that
// object to drain before the object disappears, and admits no new readers
// while waiting. This is the invariant the cold tier's GC leans on — a
// segment with a demand-fetch in flight is never yanked mid-transfer; the
// fetch completes with correct bytes and only later fetches see NotFound.
package objstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/clock"
	"ursa/internal/metrics"
	"ursa/internal/util"
)

// ErrFault is the sentinel every injected objstore error wraps.
var ErrFault = errors.New("objstore: injected fault")

// Metric names for objstore activity, registered on the cluster registry.
const (
	// MetricObjPuts counts successful segment PUTs.
	MetricObjPuts = "objstore-puts"
	// MetricObjGets counts successful segment GETs (range reads included).
	MetricObjGets = "objstore-gets"
	// MetricObjDeletes counts successful segment DELETEs.
	MetricObjDeletes = "objstore-deletes"
	// MetricObjFaultsInjected counts fault armings on the store's injector.
	MetricObjFaultsInjected = "objstore-faults-injected"
)

// Model parameterizes the simulated object service: fixed per-request
// latency plus a streaming rate for the payload, applied per operation.
// Object stores are the opposite shape from local disks — tens of
// milliseconds to first byte, then wide pipes.
type Model struct {
	// PutLatency / GetLatency / DeleteLatency are fixed per-op costs.
	PutLatency    time.Duration
	GetLatency    time.Duration
	DeleteLatency time.Duration
	// Bandwidth is the per-request streaming rate in bytes/second applied
	// to the transferred payload; 0 disables transfer-time modeling.
	Bandwidth float64
	// Parallelism bounds concurrently serviced requests; extra requests
	// queue. 0 means unbounded.
	Parallelism int
}

// DefaultModel approximates a same-region object service at the bench's
// uniform ×10 slow-motion scale: ~30 ms to first byte, ~100 MB/s per
// stream, wide request parallelism.
func DefaultModel() Model {
	return Model{
		PutLatency:    30 * time.Millisecond,
		GetLatency:    30 * time.Millisecond,
		DeleteLatency: 10 * time.Millisecond,
		Bandwidth:     100e6,
		Parallelism:   64,
	}
}

// TestModel is near-free: unit tests that exercise protocol logic rather
// than timing use it so suites stay fast.
func TestModel() Model { return Model{} }

// object is one stored segment.
type object struct {
	data []byte
	// readers counts in-flight GET transfers; deleting marks a DELETE
	// waiting for them to drain (no new readers admitted).
	readers  int
	deleting bool
}

// Store is the simulated object store. Safe for concurrent use.
type Store struct {
	clk   clock.Clock
	model Model
	slots chan struct{} // request-parallelism semaphore; nil = unbounded

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when an object's reader count drains
	objects map[uint64]*object

	// Armed faults (chaos injection).
	failPuts     bool
	failGets     bool
	stall        time.Duration
	corruptReads int // transient: next N GET payloads come back flipped

	reg *metrics.Registry

	puts, gets, deletes  atomic.Int64
	bytesIn, bytesOut    atomic.Int64
	putsFailed           atomic.Int64
	getsFailed           atomic.Int64
	readsCorrupted       atomic.Int64
	deletesWaitedReaders atomic.Int64
}

// New creates a store on clk with the given service model.
func New(clk clock.Clock, model Model) *Store {
	if clk == nil {
		clk = clock.Realtime
	}
	s := &Store{clk: clk, model: model, objects: make(map[uint64]*object), reg: metrics.NewRegistry()}
	s.cond = sync.NewCond(&s.mu)
	if model.Parallelism > 0 {
		s.slots = make(chan struct{}, model.Parallelism)
	}
	return s
}

// SetMetrics routes the store's counters to reg instead of the store's own.
// Call before serving.
func (s *Store) SetMetrics(reg *metrics.Registry) {
	s.mu.Lock()
	s.reg = reg
	s.mu.Unlock()
}

func (s *Store) count(name string, n int64) {
	s.mu.Lock()
	reg := s.reg
	s.mu.Unlock()
	reg.Counter(name).Add(n)
}

// acquire takes a service slot (request-parallelism model).
func (s *Store) acquire() {
	if s.slots != nil {
		s.slots <- struct{}{}
	}
}

func (s *Store) release() {
	if s.slots != nil {
		<-s.slots
	}
}

// serviceTime sleeps the modeled cost of one request moving n payload
// bytes, plus any armed stall.
func (s *Store) serviceTime(fixed time.Duration, n int) {
	s.mu.Lock()
	stall := s.stall
	s.mu.Unlock()
	d := fixed + stall
	if s.model.Bandwidth > 0 && n > 0 {
		d += time.Duration(float64(n) / s.model.Bandwidth * float64(time.Second))
	}
	if d > 0 {
		s.clk.Sleep(d)
	}
}

// Put stores data as immutable object id. Objects are write-once:
// re-putting an existing id fails with util.ErrExists (GC allocates fresh
// IDs instead of reusing names). The data is copied; the caller keeps its
// buffer.
func (s *Store) Put(id uint64, data []byte) error {
	s.acquire()
	defer s.release()
	s.mu.Lock()
	if s.failPuts {
		s.mu.Unlock()
		s.putsFailed.Add(1)
		return fmt.Errorf("objstore: put %#x: %w", id, ErrFault)
	}
	if _, ok := s.objects[id]; ok {
		s.mu.Unlock()
		return fmt.Errorf("objstore: object %#x: %w", id, util.ErrExists)
	}
	// Reserve the name before the modeled transfer so concurrent PUTs of
	// the same id conflict deterministically; the bytes land after.
	obj := &object{}
	s.objects[id] = obj
	s.mu.Unlock()

	s.serviceTime(s.model.PutLatency, len(data))

	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	obj.data = cp
	s.mu.Unlock()
	s.puts.Add(1)
	s.bytesIn.Add(int64(len(data)))
	s.count(MetricObjPuts, 1)
	return nil
}

// Get reads len(buf) bytes at off of object id into buf. The object's
// reader count is held across the modeled transfer, which is what blocks a
// concurrent Delete until the copy lands.
func (s *Store) Get(id uint64, off int64, buf []byte) error {
	s.acquire()
	defer s.release()
	s.mu.Lock()
	if s.failGets {
		s.mu.Unlock()
		s.getsFailed.Add(1)
		return fmt.Errorf("objstore: get %#x: %w", id, ErrFault)
	}
	obj, ok := s.objects[id]
	if !ok || obj.deleting || obj.data == nil {
		s.mu.Unlock()
		return fmt.Errorf("objstore: object %#x: %w", id, util.ErrNotFound)
	}
	if off < 0 || off+int64(len(buf)) > int64(len(obj.data)) {
		s.mu.Unlock()
		return fmt.Errorf("objstore: get %#x [%d,+%d) beyond %d bytes: %w",
			id, off, len(buf), len(obj.data), util.ErrOutOfRange)
	}
	obj.readers++
	corrupt := false
	if s.corruptReads > 0 {
		s.corruptReads--
		corrupt = true
	}
	s.mu.Unlock()

	s.serviceTime(s.model.GetLatency, len(buf))
	copy(buf, obj.data[off:]) // obj.data is immutable once set
	if corrupt {
		for i := range buf {
			buf[i] ^= 0xa5
		}
		s.readsCorrupted.Add(1)
	}

	s.mu.Lock()
	obj.readers--
	if obj.readers == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.gets.Add(1)
	s.bytesOut.Add(int64(len(buf)))
	s.count(MetricObjGets, 1)
	return nil
}

// Size returns the byte length of object id.
func (s *Store) Size(id uint64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[id]
	if !ok || obj.deleting || obj.data == nil {
		return 0, fmt.Errorf("objstore: object %#x: %w", id, util.ErrNotFound)
	}
	return int64(len(obj.data)), nil
}

// Delete removes object id. It admits no new readers and then waits for
// in-flight GET transfers on the object to drain before the object
// disappears — the cold tier's GC-vs-demand-fetch safety hinges on this.
func (s *Store) Delete(id uint64) error {
	s.acquire()
	defer s.release()
	s.mu.Lock()
	obj, ok := s.objects[id]
	if !ok || obj.deleting {
		s.mu.Unlock()
		return fmt.Errorf("objstore: object %#x: %w", id, util.ErrNotFound)
	}
	obj.deleting = true
	if obj.readers > 0 {
		s.deletesWaitedReaders.Add(1)
	}
	for obj.readers > 0 {
		s.cond.Wait()
	}
	delete(s.objects, id)
	s.mu.Unlock()
	s.serviceTime(s.model.DeleteLatency, 0)
	s.deletes.Add(1)
	s.count(MetricObjDeletes, 1)
	return nil
}

// ObjInfo describes one stored object in a listing.
type ObjInfo struct {
	ID   uint64 `json:"id"`
	Size int64  `json:"size"`
}

// List returns every stored object's ID and size, ascending by ID: a garbage
// collector judges objects against its metadata without fetching anything.
func (s *Store) List() []ObjInfo {
	s.mu.Lock()
	out := make([]ObjInfo, 0, len(s.objects))
	for id, obj := range s.objects {
		if !obj.deleting && obj.data != nil {
			out = append(out, ObjInfo{ID: id, Size: int64(len(obj.data))})
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// UsedBytes totals the stored object bytes.
func (s *Store) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, obj := range s.objects {
		n += int64(len(obj.data))
	}
	return n
}

// ---------------------------------------------------------------------------
// Fault injection (chaos interface, mirroring simdisk.FaultInjector).

// armedLocked bumps the faults-injected counter; caller holds s.mu.
func (s *Store) armedLocked() {
	s.reg.Counter(MetricObjFaultsInjected).Inc()
}

// FailPuts arms failure of every PUT until Heal.
func (s *Store) FailPuts() {
	s.mu.Lock()
	s.failPuts = true
	s.armedLocked()
	s.mu.Unlock()
}

// FailGets arms failure of every GET until Heal.
func (s *Store) FailGets() {
	s.mu.Lock()
	s.failGets = true
	s.armedLocked()
	s.mu.Unlock()
}

// Stall arms a fixed extra delay on every request until Heal — the limping
// object service whose reads the cold path must ride out or fail cleanly.
func (s *Store) Stall(d time.Duration) {
	s.mu.Lock()
	s.stall = d
	s.armedLocked()
	s.mu.Unlock()
}

// CorruptReads arms transient bit-rot on the wire: the next n GETs succeed
// but deliver flipped payload bytes. Transient (it models a corrupted
// transfer, not corrupted storage): extent CRCs catch it and a retry reads
// clean bytes.
func (s *Store) CorruptReads(n int) {
	s.mu.Lock()
	s.corruptReads += n
	s.armedLocked()
	s.mu.Unlock()
}

// Heal clears every armed fault.
func (s *Store) Heal() {
	s.mu.Lock()
	s.failPuts, s.failGets = false, false
	s.stall = 0
	s.corruptReads = 0
	s.mu.Unlock()
}

// Stats is a snapshot of store activity.
type Stats struct {
	Puts, Gets, Deletes  int64
	BytesIn, BytesOut    int64
	PutsFailed           int64
	GetsFailed           int64
	ReadsCorrupted       int64
	DeletesWaitedReaders int64
	Objects              int
}

// Stats returns a snapshot of store activity.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := len(s.objects)
	s.mu.Unlock()
	return Stats{
		Puts:                 s.puts.Load(),
		Gets:                 s.gets.Load(),
		Deletes:              s.deletes.Load(),
		BytesIn:              s.bytesIn.Load(),
		BytesOut:             s.bytesOut.Load(),
		PutsFailed:           s.putsFailed.Load(),
		GetsFailed:           s.getsFailed.Load(),
		ReadsCorrupted:       s.readsCorrupted.Load(),
		DeletesWaitedReaders: s.deletesWaitedReaders.Load(),
		Objects:              n,
	}
}
