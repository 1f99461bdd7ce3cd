package client

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/master"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/util"
	"ursa/internal/util/backoff"
)

// chunkHandle is the client-side state of one chunk.
type chunkHandle struct {
	mu        sync.Mutex
	meta      master.ChunkMeta
	next      uint64 // next version to assign to a write; only grows once open
	committed uint64 // highest acked version (reads use this)
	primary   int    // replica index currently serving reads/writes

	// orphans are the writes that gave up before a verdict, lowest version
	// first: the replicas may or may not have applied them, so the chunk's
	// next taker drives them to one before it hands out a version
	// (takeVersion). driving is non-nil while a taker does, and closed when
	// it stops (waitSettledLocked).
	orphans []orphan
	driving chan struct{}
}

// orphan is a write that gave up before a verdict: its version, its offset
// in the chunk and a copy of its bytes, which every retry carries.
type orphan struct {
	Version uint64
	Off     int64
	Data    []byte
}

// VDiskStats counts client-side activity.
type VDiskStats struct {
	Reads, Writes         int64
	BytesRead, BytesWrite int64
	Retries               int64
	Failovers             int64 // primary switches
	TinyWrites            int64 // client-directed replications
}

// VDisk is an opened virtual disk; it implements Device.
type VDisk struct {
	c      *Client
	meta   master.VDiskMeta
	chunks []*chunkHandle

	renewStop chan struct{}
	renewDone chan struct{}
	closed    atomic.Bool
	// leaseEnd is the send time of the last open or renewal answered OK plus
	// the lease's TTL, never past the master's end for it: I/O stops there.
	leaseEnd atomic.Pointer[time.Time]

	reads, writes         metrics.Counter
	bytesRead, bytesWrite metrics.Counter
	retries, failovers    metrics.Counter
	tinyWrites            metrics.Counter
	// tinyWritesC mirrors tinyWrites into the shared metrics registry
	// ("client-tiny-writes").
	tinyWritesC *metrics.Counter
	// coldWarmHits counts cache hits over object-backed ranges
	// ("cold-fetch-hit-warm").
	coldWarmHits *metrics.Counter
}

func newVDisk(c *Client, meta master.VDiskMeta, leaseEnd time.Time) *VDisk {
	vd := &VDisk{
		c:      c,
		meta:   meta,
		chunks: make([]*chunkHandle, len(meta.Chunks)),
	}
	for i, cm := range meta.Chunks {
		vd.chunks[i] = &chunkHandle{meta: cm}
	}
	vd.tinyWritesC = c.cfg.Metrics.Counter("client-tiny-writes")
	vd.coldWarmHits = c.cfg.Metrics.Counter(MetricColdWarmHits)
	vd.leaseEnd.Store(&leaseEnd)
	return vd
}

// Size implements Device.
func (vd *VDisk) Size() int64 { return vd.meta.Size }

// ID returns the vdisk's numeric id.
func (vd *VDisk) ID() uint32 { return vd.meta.ID }

// Meta returns a copy of the vdisk's metadata snapshot from open time.
func (vd *VDisk) Meta() master.VDiskMeta { return vd.meta }

// Flush implements Device; the base vdisk is durable on write return.
func (vd *VDisk) Flush() error { return nil }

// Stats returns a snapshot of client-side counters.
func (vd *VDisk) Stats() VDiskStats {
	return VDiskStats{
		Reads:      vd.reads.Load(),
		Writes:     vd.writes.Load(),
		BytesRead:  vd.bytesRead.Load(),
		BytesWrite: vd.bytesWrite.Load(),
		Retries:    vd.retries.Load(),
		Failovers:  vd.failovers.Load(),
		TinyWrites: vd.tinyWrites.Load(),
	}
}

// confirmChunks is the version probe of client initialization (§4.2.1),
// Open's: it asks every replica of every chunk for its version and view and,
// where a chunk's replicas agree (master.Agree), sets that chunk's next and
// committed versions from the answer; a chunk whose replicas disagree goes to
// the master for repair and is probed again, with the others that did. It
// runs on op's budget.
func (vd *VDisk) confirmChunks(op *opctx.Op) error {
	idxs := make([]int, len(vd.chunks))
	for i := range idxs {
		idxs[i] = i
	}
	for attempt := 0; attempt < maxRetries; attempt++ {
		if err := op.Err(); err != nil {
			return fmt.Errorf("client: chunk %d version probe: %w", idxs[0], err)
		}
		if vd.c.closed.Load() {
			return util.ErrClosed
		}
		metas, answers := vd.probe(op, idxs)
		var again []int
		for k, idx := range idxs {
			cm, got := metas[k], answers[k]
			if master.Agree(cm.View, got) {
				ch := vd.chunks[idx]
				ch.mu.Lock()
				ch.next, ch.committed, ch.primary = got[0].Version, got[0].Version, 0
				ch.mu.Unlock()
				continue
			}
			// Inconsistency: have the master fix it, refresh, retry (§4.2.1).
			failedAddr := ""
			for i, a := range got {
				if a.Status != proto.StatusOK {
					failedAddr = cm.Replicas[i].Addr
					break
				}
			}
			if err := vd.reportFailure(op, idx, cm.View, failedAddr); err != nil {
				return err
			}
			again = append(again, idx)
		}
		if idxs = again; len(idxs) == 0 {
			return nil
		}
		vd.backoff(op, attempt)
	}
	return fmt.Errorf("client: chunk %d never reached a consistent state: %w", idxs[0], util.ErrTimeout)
}

// probe asks every replica of the chunks idxs for its version and view: one
// OpGetVersion message per replica address (per proto.MaxBatch chunks of it),
// all in one flight — a round trip whatever the vdisk's size. It returns each
// chunk's metadata as probed and one answer per replica, StatusError where
// the replica's server did not answer.
func (vd *VDisk) probe(op *opctx.Op, idxs []int) ([]master.ChunkMeta, [][]proto.ChunkResult) {
	type replica struct{ k, pos int } // of chunk idxs[k]
	type message struct {
		addr string
		asks []replica
	}
	metas := make([]master.ChunkMeta, len(idxs))
	answers := make([][]proto.ChunkResult, len(idxs))
	var msgs []message
	open := make(map[string]int) // address -> its message still below the cap
	for k, idx := range idxs {
		ch := vd.chunks[idx]
		ch.mu.Lock()
		metas[k] = ch.meta
		ch.mu.Unlock()
		answers[k] = make([]proto.ChunkResult, len(metas[k].Replicas))
		for pos, r := range metas[k].Replicas {
			answers[k][pos].Status = proto.StatusError
			i, ok := open[r.Addr]
			if !ok || len(msgs[i].asks) == proto.MaxBatch {
				i = len(msgs)
				open[r.Addr] = i
				msgs = append(msgs, message{addr: r.Addr})
			}
			msgs[i].asks = append(msgs[i].asks, replica{k, pos})
		}
	}
	fl := vd.c.peers.Begin(op, len(msgs), vd.c.cfg.CallTimeout)
	defer fl.Finish()
	for i, m := range msgs {
		ids := make([]blockstore.ChunkID, len(m.asks))
		for j, r := range m.asks {
			ids[j] = vd.chunkID(idxs[r.k])
		}
		fl.Go(i, m.addr, &proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(ids...)})
	}
	for i, m := range msgs {
		resp, err := fl.Wait(i)
		if err != nil {
			continue
		}
		if got, err := proto.DecodeResults(resp.Payload); err == nil && len(got) == len(m.asks) {
			for j, r := range m.asks {
				answers[r.k][r.pos] = got[j]
			}
		}
		bufpool.Put(resp.Payload)
		proto.Recycle(resp)
	}
	return metas, answers
}

func (vd *VDisk) chunkID(idx int) blockstore.ChunkID {
	return blockstore.MakeChunkID(vd.meta.ID, uint32(idx))
}

// call performs one chunk-server RPC on op's behalf through the shared
// peer pool: bounded by the op's remaining budget, capped per attempt at
// CallTimeout. The pool recycles connections on real transport faults but
// not on timeouts or op expiry.
func (vd *VDisk) call(op *opctx.Op, addr string, m *proto.Message) (*proto.Message, error) {
	if vd.c.closed.Load() {
		return nil, util.ErrClosed
	}
	return vd.c.peers.Do(op, addr, m, vd.c.cfg.CallTimeout)
}

// reportFailure asks the master to run a view change for the chunk and
// installs the returned metadata (§4.2.2). It is the client's one way to
// learn a chunk's meta after open: a replica that disagrees — dead, behind,
// or answering StatusStaleView because its view is not the client's — is
// reported with view, the view the client acted in. A client below the
// recorded view gets the recorded meta at once; otherwise the master's probe
// judges the replicas and answers with a view they agree on, never below
// view. The master holds the report until the chunk's recovery completes,
// which can outlast an I/O budget; on an I/O's critical path the wait is
// bounded by op's remaining budget — blocking past the deadline helps
// nobody. Maintenance callers pass a nil op and wait a master call's full
// budget.
func (vd *VDisk) reportFailure(op *opctx.Op, idx int, view uint64, failedAddr string) error {
	var newMeta master.ChunkMeta
	status, err := vd.c.master.Call(op, proto.MOpReportFailure, master.ReportFailureReq{
		VDisk:      vd.meta.ID,
		ChunkIndex: uint32(idx),
		FailedAddr: failedAddr,
		View:       view,
	}, &newMeta)
	if err != nil {
		return err
	}
	if status != proto.StatusOK {
		return fmt.Errorf("client: report failure for chunk %d: %s", idx, status)
	}
	ch := vd.chunks[idx]
	ch.mu.Lock()
	if newMeta.View > ch.meta.View {
		ch.meta = newMeta
		ch.primary = 0
	}
	ch.mu.Unlock()
	vd.failovers.Add(1)
	return nil
}

// reportLater files a failure report off the I/O's critical path, through
// the session's reporter.
func (vd *VDisk) reportLater(idx int, view uint64, failedAddr string) {
	vd.c.master.Report(vd.chunkID(idx), failedAddr, func() { _ = vd.reportFailure(nil, idx, view, failedAddr) })
}

// ReadAt implements Device: fragments the request by striping geometry and
// reads fragments in parallel, preferably from primary (SSD) replicas. The
// whole operation runs under one IOTimeout-budgeted request context.
func (vd *VDisk) ReadAt(p []byte, off int64) error {
	if err := vd.usable(); err != nil {
		return err
	}
	if err := checkRange(off, len(p), vd.meta.Size); err != nil {
		return err
	}
	op := vd.c.newOp(vd.c.cfg.IOTimeout)
	err := vd.forEachFragment(op, p, off, false)
	op.Release()
	if err != nil {
		return err
	}
	vd.reads.Add(1)
	vd.bytesRead.Add(int64(len(p)))
	return nil
}

// WriteAt implements Device: fragments the request; tiny fragments use
// client-directed replication, larger ones go through the primary. The
// whole operation runs under one IOTimeout-budgeted request context.
func (vd *VDisk) WriteAt(p []byte, off int64) error {
	if err := vd.usable(); err != nil {
		return err
	}
	if err := checkRange(off, len(p), vd.meta.Size); err != nil {
		return err
	}
	op := vd.c.newOp(vd.c.cfg.IOTimeout)
	err := vd.forEachFragment(op, p, off, true)
	op.Release()
	if err != nil {
		return err
	}
	vd.writes.Add(1)
	vd.bytesWrite.Add(int64(len(p)))
	return nil
}

// forEachFragment maps [off, off+len(p)) onto the vdisk's chunks and reads
// or writes every fragment, in parallel when there are several (striping
// fan-out, §3.4). It returns once every fragment has, so nothing it started
// holds op afterwards. Up to four fragments — a request inside one stripe
// group of four — map into an array on this frame.
func (vd *VDisk) forEachFragment(op *opctx.Op, p []byte, off int64, write bool) error {
	var few [4]fragment
	frags := mapRange(few[:0], &vd.meta, off, len(p))
	if len(frags) == 1 {
		return vd.doFragment(op, frags[0], p, write)
	}
	return vd.forkFragments(op, frags, p, write)
}

// fragJoin is what the goroutines of one multi-fragment request share: an
// error slot for each fragment. It is the request's one allocation besides a
// closure per goroutine started.
type fragJoin struct {
	wg   sync.WaitGroup
	errs []error
	few  [4]error
}

// forkFragments runs the first fragment on the calling goroutine and each
// other one on its own, and joins them through their error slots. frags is
// only read: the caller's array stays on its frame, where the common
// one-fragment request needs it.
func (vd *VDisk) forkFragments(op *opctx.Op, frags []fragment, p []byte, write bool) error {
	j := new(fragJoin)
	j.errs = j.few[:]
	if len(frags) > len(j.few) {
		j.errs = make([]error, len(frags))
	}
	j.wg.Add(len(frags) - 1)
	for i, f := range frags[1:] {
		go func() {
			j.errs[i+1] = vd.doFragment(op, f, p, write)
			j.wg.Done()
		}()
	}
	j.errs[0] = vd.doFragment(op, frags[0], p, write)
	j.wg.Wait()
	for _, err := range j.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// doFragment reads or writes fragment f of the caller's buffer p.
func (vd *VDisk) doFragment(op *opctx.Op, f fragment, p []byte, write bool) error {
	if write {
		return vd.writeFragment(op, f.chunk, p[f.bufLo:f.bufHi], f.chunkOff)
	}
	return vd.readFragment(op, f.chunk, p[f.bufLo:f.bufHi], f.chunkOff)
}

func (vd *VDisk) usable() error {
	if vd.closed.Load() {
		return util.ErrClosed
	}
	if !vd.c.cfg.Clock.Now().Before(*vd.leaseEnd.Load()) {
		return util.ErrLeaseExpired
	}
	return nil
}

// readFragment reads one chunk-local range, failing over across replicas:
// if the primary is unavailable a mirrored chunk resorts to a backup as
// temporary primary (§4.2.1); an RS chunk — whose backups hold segments,
// not copies — reconstructs the range from the segment holders instead.
// Either way the master is told to recover in parallel.
func (vd *VDisk) readFragment(op *opctx.Op, idx int, buf []byte, off int64) error {
	ch := vd.chunks[idx]
	spec := vd.meta.Redundancy
	var lastErr error
	var corruptErr error
	for attempt := 0; attempt < maxRetries; attempt++ {
		if err := op.Err(); err != nil {
			// Budget spent or caller gone: retrying would answer nobody.
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		ch.mu.Lock()
		cm := ch.meta
		primary := ch.primary
		version := ch.committed
		ch.mu.Unlock()
		addr := cm.Replicas[primary%len(cm.Replicas)].Addr

		m := proto.GetMessage()
		m.Op = proto.OpRead
		m.Chunk = vd.chunkID(idx)
		m.Off = off
		m.Length = uint32(len(buf))
		m.View = cm.View
		m.Version = version
		resp, err := vd.call(op, addr, m)
		// Consume the response before branching: copy out the payload,
		// capture the status, settle the lease, recycle the frame. Nothing
		// below may read through resp.
		var status proto.Status
		if err == nil {
			status = resp.Status
			if status == proto.StatusOK {
				copy(buf, resp.Payload)
			}
			bufpool.Put(resp.Payload)
			proto.Recycle(resp)
		}
		failover := false
		switch {
		case err != nil:
			lastErr = err
			failover = true
			vd.reportLater(idx, cm.View, addr)
		case status == proto.StatusOK:
			return nil
		case status == proto.StatusStaleView:
			// The replica's view is not ours: the master judges which is
			// right and answers with the view the replicas agree on.
			lastErr = util.ErrStaleView
			if err := vd.reportFailure(op, idx, cm.View, ""); err != nil {
				lastErr = err
			}
		case status == proto.StatusBehind:
			// Replica lags our committed state: try another.
			lastErr = util.ErrFutureVersion
			failover = true
		case status == proto.StatusCorrupt:
			// The replica's settled re-reads still fail checksums: its copy
			// has rotted on disk. Fail over; when every copy is rotten the
			// caller gets this error, never garbage bytes.
			lastErr = fmt.Errorf("client: read chunk %d from %s: %w", idx, addr, util.ErrCorrupt)
			corruptErr = lastErr
			failover = true
		default:
			lastErr = fmt.Errorf("client: read chunk %d from %s: %s", idx, addr, status)
			failover = true
		}
		if failover {
			if spec.IsRS() {
				// Segment holders cannot serve the chunk range directly;
				// reconstruct it from them and keep the primary pinned.
				rerr := vd.readDegradedRS(op, idx, cm, spec, buf, off, version)
				if rerr == nil {
					return nil
				}
				// Neither the primary nor enough holders at one version and
				// at our view could serve: the holders may be in a view that
				// replaced the primary, or at another version. Either way
				// the master's probe judges them before the next try.
				_ = vd.reportFailure(op, idx, cm.View, "")
				if lastErr == nil || err != nil || status != proto.StatusCorrupt {
					lastErr = rerr
				}
			} else {
				vd.rotatePrimary(idx, primary)
			}
		}
		vd.retries.Add(1)
		vd.backoff(op, attempt)
	}
	if corruptErr != nil {
		// A replica's settled checksum failure is the load-bearing signal:
		// when every path fails, report the rot, not whatever incidental
		// stale-view or timeout the final attempt happened to race (the
		// master keeps changing views while it tries to heal the chunk).
		return fmt.Errorf("client: read chunk %d failed: %w", idx, corruptErr)
	}
	return fmt.Errorf("client: read chunk %d failed: %w", idx, lastErr)
}

// rotatePrimary switches to the next replica if primary is still current.
// Only mirrored chunks rotate: RS backups hold segments, not copies.
func (vd *VDisk) rotatePrimary(idx, sawPrimary int) {
	ch := vd.chunks[idx]
	ch.mu.Lock()
	if ch.primary == sawPrimary {
		ch.primary = (ch.primary + 1) % len(ch.meta.Replicas)
		vd.failovers.Add(1)
	}
	ch.mu.Unlock()
}

// readDegradedRS serves one chunk-local read while the primary is
// unavailable: each covered data segment is read from its holder, and a
// segment whose holder also fails is decoded from any N of the surviving
// N+M segments. All pieces that feed one decode must agree on the replica
// version — mixed-version pieces decode garbage, so they are discarded and
// the caller retries.
func (vd *VDisk) readDegradedRS(op *opctx.Op, idx int, cm master.ChunkMeta,
	spec redundancy.Spec, buf []byte, off int64, version uint64) error {

	if len(cm.Replicas) != 1+spec.N+spec.M {
		return fmt.Errorf("client: chunk %d has %d replicas, want %d: %w",
			idx, len(cm.Replicas), 1+spec.N+spec.M, util.ErrStaleView)
	}
	for _, pc := range redundancy.PieceRanges(spec, off, len(buf)) {
		dst := buf[pc.BufLo:pc.BufHi]
		if vd.readPiece(op, idx, cm, pc.Seg, pc.SegOff, dst, version) == nil {
			continue
		}
		if err := vd.reconstructPiece(op, idx, cm, spec, pc.Seg, pc.SegOff, dst, version); err != nil {
			return err
		}
		vd.failovers.Add(1)
	}
	return nil
}

// readPiece reads [segOff, segOff+len(dst)) of segment seg from its holder.
func (vd *VDisk) readPiece(op *opctx.Op, idx int, cm master.ChunkMeta, seg int, segOff int64, dst []byte, version uint64) error {
	addr := cm.Replicas[1+seg].Addr
	resp, err := vd.call(op, addr, vd.pieceRead(idx, cm, segOff, len(dst), version))
	if err != nil {
		return err
	}
	status := resp.Status
	if status == proto.StatusOK {
		copy(dst, resp.Payload)
	}
	bufpool.Put(resp.Payload)
	proto.Recycle(resp)
	if status != proto.StatusOK {
		return fmt.Errorf("client: read chunk %d seg %d from %s: %s", idx, seg, addr, status)
	}
	return nil
}

// pieceRead is the OpRead of [segOff, segOff+n) of a segment, for its holder.
func (vd *VDisk) pieceRead(idx int, cm master.ChunkMeta, segOff int64, n int, version uint64) *proto.Message {
	return &proto.Message{Op: proto.OpRead, Chunk: vd.chunkID(idx), Off: segOff, Length: uint32(n), View: cm.View, Version: version}
}

// reconstructPiece decodes [segOff, segOff+len(dst)) of segment want from
// the other segments' holders, read all on one flight.
func (vd *VDisk) reconstructPiece(op *opctx.Op, idx int, cm master.ChunkMeta,
	spec redundancy.Spec, want int, segOff int64, dst []byte, version uint64) error {

	code, err := redundancy.NewCode(spec.N, spec.M)
	if err != nil {
		return err
	}
	if vd.c.closed.Load() {
		return util.ErrClosed
	}
	fl := vd.c.peers.Begin(op, spec.N+spec.M-1, vd.c.cfg.CallTimeout)
	defer fl.Finish()
	for p := range spec.N + spec.M {
		if p != want {
			fl.Go(p, cm.Replicas[1+p].Addr, vd.pieceRead(idx, cm, segOff, len(dst), version))
		}
	}
	// Group by served version: a decode mixing versions is garbage. With
	// the primary down nothing commits, so in practice all pieces agree.
	byVer := map[uint64]map[int][]byte{}
	defer func() {
		for _, avail := range byVer {
			for _, b := range avail {
				bufpool.Put(b)
			}
		}
	}()
	for p, resp, ok := fl.NextReply(); ok; p, resp, ok = fl.NextReply() {
		if resp == nil {
			continue
		}
		if resp.Status == proto.StatusOK && len(resp.Payload) == len(dst) {
			if byVer[resp.Version] == nil {
				byVer[resp.Version] = map[int][]byte{}
			}
			byVer[resp.Version][p] = resp.Payload
		} else {
			bufpool.Put(resp.Payload)
		}
		proto.Recycle(resp)
	}
	for _, avail := range byVer {
		if len(avail) >= spec.N {
			return code.Reconstruct(avail, want, dst)
		}
	}
	return fmt.Errorf("client: reconstruct chunk %d seg %d: not enough consistent pieces: %w",
		idx, want, util.ErrNoQuorum)
}

// retryBackoff spaces I/O retry rounds: jitter decorrelates the retry
// herds of fragments that failed together — after a replica dies, every
// fragment's retry would otherwise land on the recovering view at the same
// instant.
var retryBackoff = backoff.Policy{Base: 500 * time.Microsecond}

// backoff sleeps between retry rounds; the wait is admission queueing from
// the op's point of view and never exceeds its remaining budget.
func (vd *VDisk) backoff(op *opctx.Op, attempt int) {
	d := retryBackoff.Delay(op.ID(), attempt)
	if rem, ok := op.Remaining(); ok && rem < d {
		d = rem
	}
	if d <= 0 {
		return
	}
	st := op.Stage(opctx.StageQueue)
	vd.c.cfg.Clock.Sleep(d)
	st.Stop()
}

// writeFragment writes one chunk-local range. The version is assigned
// optimistically under the chunk lock so same-chunk writes pipeline; a write
// that gives up before a verdict leaves its version to the chunk's next
// writer as an orphan (takeVersion).
func (vd *VDisk) writeFragment(op *opctx.Op, idx int, data []byte, off int64) error {
	version, err := vd.takeVersion(op, idx)
	if err != nil {
		return fmt.Errorf("client: write chunk %d failed: %w", idx, err)
	}
	if err := vd.land(op, idx, orphan{version, off, data}, false); err != nil {
		ch := vd.chunks[idx]
		ch.mu.Lock()
		i, _ := slices.BinarySearchFunc(ch.orphans, version, func(o orphan, v uint64) int { return cmp.Compare(o.Version, v) })
		ch.orphans = slices.Insert(ch.orphans, i, orphan{version, off, bytes.Clone(data)})
		ch.mu.Unlock()
		return fmt.Errorf("client: write chunk %d v%d failed: %w", idx, version, err)
	}
	return nil
}

// land retries write w of chunk idx with its version until it lands
// (§4.2.1), on op's budget, and returns nil at a verdict: the write
// committed, or — for an orphan, which may have landed and been overtaken by
// its successors — a probe found every replica in one view at a version above
// its own (versions are never reused, so each applied it).
func (vd *VDisk) land(op *opctx.Op, idx int, w orphan, orphaned bool) error {
	ch := vd.chunks[idx]
	var lastErr error
	for attempt := 0; attempt < maxRetries; attempt++ {
		if err := op.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		if err := vd.usable(); err != nil {
			return err // the master may have given the vdisk to another client
		}
		ch.mu.Lock()
		cm := ch.meta
		healthy := ch.primary == 0
		ch.mu.Unlock()

		var committed bool
		if (len(w.Data) <= vd.c.cfg.TinyThreshold || !healthy) && !vd.meta.Redundancy.IsRS() {
			committed = vd.writeClientDirected(op, idx, cm, w.Data, w.Off, w.Version)
			vd.tinyWrites.Add(1)
			vd.tinyWritesC.Add(1)
		} else {
			// RS chunks always write through the primary: only it holds the
			// old data needed to compute parity deltas.
			committed = vd.writeViaPrimary(op, idx, cm, w.Data, w.Off, w.Version)
		}
		if committed || orphaned && vd.overtaken(op, idx, w.Version) {
			ch.mu.Lock()
			ch.committed = max(ch.committed, w.Version+1)
			ch.mu.Unlock()
			return nil
		}
		// Not committed — replicas down, behind, or at another view than
		// ours: the master's probe judges them and answers with the view
		// to retry in.
		lastErr = util.ErrNoQuorum
		if err := vd.reportFailure(op, idx, cm.View, ""); err != nil {
			lastErr = err
		}
		vd.retries.Add(1)
		vd.backoff(op, attempt)
	}
	return lastErr
}

// overtaken probes chunk idx and reports whether every replica answers in
// the client's view at a version above v.
func (vd *VDisk) overtaken(op *opctx.Op, idx int, v uint64) bool {
	metas, answers := vd.probe(op, []int{idx})
	for _, a := range answers[0] {
		if a.Status != proto.StatusOK || a.View != metas[0].View || a.Version <= v {
			return false
		}
	}
	return true
}

// takeVersion assigns the next version of chunk idx to a write on op's
// behalf. An op whose budget is already spent (a throttled write, typically)
// gets an error instead of a version it could only waste. A version is
// handed out once: before next goes out, the taker drives the chunk's
// orphans to a verdict, lowest first, on its own budget (land). Skipping an
// orphan would leave a replica that never applied it holding back every
// later write until the vdisk is reopened; handing its version out again
// would let a replica that did apply it take the next write for the orphan's
// retry, ack it and drop its bytes. A taker that finds another driving waits
// for it, no longer than its own budget lasts.
func (vd *VDisk) takeVersion(op *opctx.Op, idx int) (uint64, error) {
	ch := vd.chunks[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for len(ch.orphans) > 0 {
		if ch.driving != nil {
			if err := ch.waitSettledLocked(op); err != nil {
				return 0, err
			}
			continue
		}
		if err := op.Err(); err != nil {
			return 0, err
		}
		o := ch.orphans[0]
		ch.driving = make(chan struct{})
		ch.mu.Unlock()
		err := vd.land(op, idx, o, true)
		ch.mu.Lock()
		close(ch.driving)
		ch.driving = nil
		if err != nil {
			return 0, err
		}
		// A write that gave up meanwhile may have filed a lower version.
		ch.orphans = slices.DeleteFunc(ch.orphans, func(x orphan) bool { return x.Version == o.Version })
	}
	if err := op.Err(); err != nil {
		return 0, err
	}
	version := ch.next
	ch.next++
	return version, nil
}

// waitSettledLocked waits for the taker driving the chunk's orphans to stop,
// but no longer than op itself lasts: the driver runs on its own op's budget,
// and a waiter with a shorter one must fail by its own deadline, not by the
// driver's. Called and returns with ch.mu held; the mutex is released for the
// wait's duration.
func (ch *chunkHandle) waitSettledLocked(op *opctx.Op) error {
	rem, ok := op.Budget(0)
	if !ok {
		return op.Err()
	}
	driving := ch.driving
	ch.mu.Unlock()
	var expired <-chan time.Time
	if rem > 0 { // 0: the op has no deadline
		expired = op.Clock().After(rem)
	}
	select {
	case <-driving:
	case <-expired:
	}
	ch.mu.Lock()
	return op.Err()
}

// writeViaPrimary sends the write to the primary, which replicates it
// within the op's remaining budget.
func (vd *VDisk) writeViaPrimary(op *opctx.Op, idx int, cm master.ChunkMeta, data []byte,
	off int64, version uint64) bool {

	addr := cm.Replicas[0].Addr
	m := proto.GetMessage()
	m.Op = proto.OpWrite
	m.Chunk = vd.chunkID(idx)
	m.Off = off
	m.View = cm.View
	m.Version = version
	m.Payload = data
	bufpool.Retain(data) // the call consumes one reference on every path
	resp, err := vd.call(op, addr, m)
	if err != nil {
		vd.reportLater(idx, cm.View, addr)
		return false
	}
	status := resp.Status
	bufpool.Put(resp.Payload)
	proto.Recycle(resp)
	return status == proto.StatusOK
}

// writeClientDirected replicates directly to every replica (tiny writes,
// §3.2; and all writes while the chunk is degraded), sending each the same
// OpReplicate: commit when all ack, or when a majority acks within the
// timeout (§4.2.1).
func (vd *VDisk) writeClientDirected(op *opctx.Op, idx int, cm master.ChunkMeta, data []byte,
	off int64, version uint64) bool {

	cid := vd.chunkID(idx)
	fl := vd.c.peers.Begin(op, len(cm.Replicas), vd.c.cfg.CallTimeout)
	for i, r := range cm.Replicas {
		m := proto.GetMessage()
		m.Op = proto.OpReplicate
		m.Chunk = cid
		m.Off = off
		m.View = cm.View
		m.Version = version
		m.Payload = data
		// All branches share one payload; each branch consumes one
		// reference (a no-op for the user's foreign buffer, a real share
		// when a pooled buffer ever flows through here).
		bufpool.Retain(data)
		fl.Go(i, r.Addr, m)
	}
	acks := 0
	for range cm.Replicas {
		r, ok := fl.Next()
		if !ok {
			break // window spent: the rest did not ack
		}
		if r.Err {
			continue
		}
		if r.Status == proto.StatusOK {
			acks++
		}
	}
	fl.Finish()
	if acks*2 > len(cm.Replicas) && acks < len(cm.Replicas) {
		// Majority: committed, but tell the master to fix the stragglers
		// (deduplicated: one in-flight report per chunk, cooldown per key).
		vd.reportLater(idx, cm.View, "")
	}
	return acks*2 > len(cm.Replicas)
}

// startRenewer begins periodic lease renewal (§4.1).
func (vd *VDisk) startRenewer() {
	vd.renewStop = make(chan struct{})
	vd.renewDone = make(chan struct{})
	ttl := vd.meta.LeaseTTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	go func() {
		defer close(vd.renewDone)
		for {
			select {
			case <-vd.renewStop:
				return
			case <-vd.c.cfg.Clock.After(ttl / 3):
			}
			end := vd.c.cfg.Clock.Now().Add(ttl)
			status, err := vd.c.master.Call(nil, proto.MOpRenewLease,
				master.LeaseReq{ID: vd.meta.ID, Client: vd.c.cfg.Name}, nil)
			if err == nil && status == proto.StatusOK {
				vd.leaseEnd.Store(&end)
			}
			if err == nil && status == proto.StatusLeaseHeld {
				vd.leaseEnd.Store(&time.Time{})
				return
			}
		}
	}()
}

// Close releases the lease and stops renewal. The client's connections stay
// up for other vdisks.
func (vd *VDisk) Close() error {
	if vd.closed.Swap(true) {
		return nil
	}
	if vd.renewStop != nil {
		close(vd.renewStop)
		<-vd.renewDone
	}
	_, _ = vd.c.master.Call(nil, proto.MOpCloseVDisk,
		master.LeaseReq{ID: vd.meta.ID, Client: vd.c.cfg.Name}, nil)
	return nil
}

var _ Device = (*VDisk)(nil)
