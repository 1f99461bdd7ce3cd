package transport

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/util"
	"ursa/internal/util/backoff"
)

// MasterInfoResp is the payload of MOpMasterInfo and the body of every
// StatusNotPrimary redirect: who this master is, who it believes the
// primary is, and the full endpoint list for client discovery. It is
// defined beside the session, which reads redirects; package master aliases
// it. LogEpoch and LogSeq are where its metadata log ends: the epoch of the
// last entry's primary, and its sequence number.
type MasterInfoResp struct {
	Self      string   `json:"self"`
	Primary   string   `json:"primary,omitempty"`
	Epoch     uint64   `json:"epoch"`
	IsPrimary bool     `json:"isPrimary"`
	Endpoints []string `json:"endpoints,omitempty"`
	LogEpoch  uint64   `json:"logEpoch,omitempty"`
	LogSeq    uint64   `json:"logSeq"`
}

// masterBudget is the budget of a master call made without one of its own,
// in call timeouts. The master path tolerates far more latency than the data
// path: a view change may be repairing replicas behind the call, or the
// metadata service riding out a failover.
const masterBudget = 20

// ReportCooldown is how long a failure report about one (chunk, address)
// silences the next: a replica failing every request reports once per
// cooldown, not once per request.
const ReportCooldown = time.Second

// reportQueueDepth bounds the reports waiting behind the reporter goroutine.
// During a master blackout the queue fills and further reports are dropped
// (counted, and filed again by the next failure) instead of parking callers.
const reportQueueDepth = 32

// MetricReportsDropped counts failure reports dropped because the reporter's
// queue was full.
const MetricReportsDropped = "master-reports-dropped"

// MasterSession is how everything outside package master reaches the
// (replicated) master service. A call hunts for the acting primary: it starts
// at the endpoint that last answered, rotates past one that fails at the
// transport, follows a standby's redirect hint, backs off once per sweep of
// the endpoint list, and gives up when the op's budget is spent. Bodies are
// JSON both ways. Failure reports, which nobody waits for, go through Report.
type MasterSession struct {
	addrs  []string
	clk    clock.Clock
	peers  *Peers
	retry  backoff.Policy
	budget time.Duration
	reg    *metrics.Registry
	stop   chan struct{} // closed by Close: ends back-offs and the reporter

	mu       sync.Mutex
	cur      int // index in addrs of the endpoint that last answered
	closed   bool
	calls    sync.WaitGroup // hunts in flight, joined by Close
	inflight map[blockstore.ChunkID]bool
	last     map[reportKey]time.Time // when each (chunk, address) was last queued
	swept    time.Time               // when last forgot expired cooldowns

	reports  chan masterReport
	reporter sync.WaitGroup
}

type reportKey struct {
	chunk blockstore.ChunkID
	addr  string
}

type masterReport struct {
	chunk blockstore.ChunkID
	file  func()
}

// NewMasterSession returns a session with the masters at addrs (one entry
// for a lone master, a set of one; none makes every call fail and every
// report a no-op). timeout is the caller's call timeout: the back-off between
// sweeps runs from timeout/50 to timeout/5, jittered by op ID, and a call
// made without an op of its own gets 20 timeouts. reg receives the calls'
// stage measurements and MetricReportsDropped (nil: a registry of its own).
func NewMasterSession(d Dialer, clk clock.Clock, addrs []string, timeout time.Duration, reg *metrics.Registry) *MasterSession {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &MasterSession{
		addrs:    addrs,
		clk:      clk,
		peers:    NewPeers(d, clk),
		retry:    backoff.Policy{Base: timeout / 50, Cap: timeout / 5},
		budget:   masterBudget * timeout,
		reg:      reg,
		stop:     make(chan struct{}),
		inflight: make(map[blockstore.ChunkID]bool),
		last:     make(map[reportKey]time.Time),
		reports:  make(chan masterReport, reportQueueDepth),
	}
	if len(addrs) > 0 {
		s.reporter.Add(1)
		go s.reportLoop()
	}
	return s
}

// Budget is what a call made without an op of its own may spend.
func (s *MasterSession) Budget() time.Duration { return s.budget }

// Close cancels the calls in flight, waits for them and for the reporter,
// and closes the session's connections. Calls and reports after Close fail.
func (s *MasterSession) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.peers.CloseAll() // fails the RPCs the hunts are waiting on
	s.calls.Wait()
	s.reporter.Wait()
	s.peers.CloseAll() // what a hunt racing the first CloseAll dialled
}

// Call sends req (nil: no payload) to the acting primary as mop and, on
// StatusOK, decodes the reply into out (nil: ignore it). It runs on op's
// budget; a nil op, or one without a deadline, gets a fresh one of Budget.
// With one endpoint it makes one attempt. The status returned is the first
// that is not a redirect; an error means no endpoint gave one before the
// budget ran out — it is the last attempt's — or the reply would not decode.
func (s *MasterSession) Call(op *opctx.Op, mop proto.Op, req, out any) (proto.Status, error) {
	bounded := op != nil
	if bounded {
		_, bounded = op.Remaining()
	}
	if !bounded {
		op = s.newOp()
		defer op.Release()
	}
	var payload []byte
	if req != nil {
		var err error
		if payload, err = json.Marshal(req); err != nil {
			return proto.StatusError, err
		}
	}
	if len(s.addrs) == 0 {
		return proto.StatusError, fmt.Errorf("transport: no master configured: %w", util.ErrNotFound)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return proto.StatusError, util.ErrClosed
	}
	s.calls.Add(1)
	next := s.cur
	s.mu.Unlock()
	defer s.calls.Done()

	var hint, failed string // a redirect to follow; the last endpoint that failed
	var lastErr error
	for attempt := 1; ; attempt++ {
		select {
		case <-s.stop:
			return proto.StatusError, util.ErrClosed
		default:
		}
		addr := hint
		if addr == "" {
			addr = s.addrs[next%len(s.addrs)]
		}
		hint = ""
		// Re-sending payload across attempts is safe: JSON buffers are
		// foreign to bufpool, so Do's per-attempt Put is a no-op.
		resp, err := s.peers.Do(op, addr, &proto.Message{Op: mop, Payload: payload}, 0)
		switch {
		case err != nil:
			lastErr, failed = err, addr
		case resp.Status == proto.StatusNotPrimary:
			var info MasterInfoResp
			// A standby that has not noticed the failover yet still points at
			// the dead primary: following that hint only burns an attempt.
			if json.Unmarshal(resp.Payload, &info) == nil && info.Primary != addr && info.Primary != failed {
				hint = info.Primary
			}
			release(resp)
			lastErr = fmt.Errorf("transport: master %s: %w", addr, util.ErrNotPrimary)
		default:
			status := resp.Status
			if status == proto.StatusOK && out != nil && len(resp.Payload) > 0 {
				err = json.Unmarshal(resp.Payload, out)
			}
			release(resp)
			if err != nil {
				return proto.StatusError, fmt.Errorf("transport: master %s answered %v: %w", addr, mop, err)
			}
			s.pin(addr)
			return status, nil
		}
		if hint == "" && addr == s.addrs[next%len(s.addrs)] {
			next++
		}
		if len(s.addrs) == 1 || !s.pace(op, attempt) {
			return proto.StatusError, lastErr
		}
	}
}

// pace says whether a hunt that has made attempts may make another. Within a
// sweep of the endpoint list it may while the budget lasts: during a failover
// every endpoint is worth one fast look. After each full sweep it first backs
// off, and only if the back-off fits in what is left: it is the sweeps, not
// the attempts, that would otherwise hammer the standbys in lockstep.
func (s *MasterSession) pace(op *opctx.Op, attempts int) bool {
	n := len(s.addrs)
	if attempts%n != 0 {
		return op.Err() == nil
	}
	d := s.retry.Delay(op.ID(), attempts/n-1)
	if rem, _ := op.Remaining(); rem <= d {
		return false
	}
	select {
	case <-s.clk.After(d):
	case <-s.stop: // the next attempt sees it and returns ErrClosed
	}
	return true
}

// pin points the next call at addr, which just answered.
func (s *MasterSession) pin(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, a := range s.addrs {
		if a == addr {
			s.cur = i
			return
		}
	}
}

func (s *MasterSession) newOp() *opctx.Op {
	return opctx.New(s.clk, s.budget).WithSink(s.reg)
}

func release(resp *proto.Message) {
	bufpool.Put(resp.Payload)
	proto.Recycle(resp)
}

// Report files a failure report about chunk, naming failedAddr ("" for
// none), off the caller's path: file, which makes the master call, runs later
// on the session's one reporter goroutine. Nobody waits for it, so it is
// dropped when a report about the chunk is already queued or running, when
// the same (chunk, address) was queued within ReportCooldown, or when the
// queue is full (counted). The next failure files a dropped report again.
func (s *MasterSession) Report(chunk blockstore.ChunkID, failedAddr string, file func()) {
	now := s.clk.Now()
	key := reportKey{chunk, failedAddr}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.addrs) == 0 || s.inflight[chunk] {
		return
	}
	if t, ok := s.last[key]; ok && now.Sub(t) < ReportCooldown {
		return
	}
	// Forget expired cooldowns once per cooldown: the table holds what was
	// queued in the last two, not every (chunk, address) ever reported.
	if now.Sub(s.swept) >= ReportCooldown {
		for k, t := range s.last {
			if now.Sub(t) >= ReportCooldown {
				delete(s.last, k)
			}
		}
		s.swept = now
	}
	select {
	case s.reports <- masterReport{chunk, file}:
		s.inflight[chunk] = true
		s.last[key] = now
	default:
		s.reg.Counter(MetricReportsDropped).Inc()
	}
}

// reportLoop files the queued reports one at a time until Close.
func (s *MasterSession) reportLoop() {
	defer s.reporter.Done()
	for {
		select {
		case <-s.stop:
			return
		case r := <-s.reports:
			r.file()
			s.mu.Lock()
			delete(s.inflight, r.chunk)
			s.mu.Unlock()
		}
	}
}
