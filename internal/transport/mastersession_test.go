package transport

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/srctree"
	"ursa/internal/util"
)

// masterScript is how one scripted master endpoint answers every call.
type masterScript func(m *proto.Message) *proto.Message

// answers replies StatusOK with a MasterInfoResp naming self.
func answers(self string) masterScript {
	return func(m *proto.Message) *proto.Message {
		return withBody(m.Reply(proto.StatusOK), MasterInfoResp{Self: self})
	}
}

// redirects is a standby: StatusNotPrimary with primary ("" for none) as the
// hint.
func redirects(primary string) masterScript {
	return func(m *proto.Message) *proto.Message {
		return withBody(m.Reply(proto.StatusNotPrimary), MasterInfoResp{Primary: primary})
	}
}

func withBody(r *proto.Message, body any) *proto.Message {
	r.Payload, _ = json.Marshal(body)
	return r
}

// masterFixture serves each scripted endpoint on a SimNet (an address with
// no script is dead: nothing listens there) and returns a session over
// addrs, plus how many calls each endpoint has served.
func masterFixture(t *testing.T, addrs []string, scripts map[string]masterScript, timeout time.Duration) (*MasterSession, func(addr string) int) {
	t.Helper()
	net := NewSimNet(clock.Realtime, 0)
	var mu sync.Mutex
	hits := make(map[string]int)
	for addr, script := range scripts {
		l, err := net.Listen(addr, NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv := Serve(l, func(m *proto.Message) *proto.Message {
			mu.Lock()
			hits[addr]++
			mu.Unlock()
			return script(m)
		})
		t.Cleanup(srv.Close)
	}
	s := NewMasterSession(net.Dialer("caller", NodeConfig{}), clock.Realtime, addrs, timeout, nil)
	t.Cleanup(s.Close)
	return s, func(addr string) int {
		mu.Lock()
		defer mu.Unlock()
		return hits[addr]
	}
}

// call makes one session call and returns who answered it.
func call(t *testing.T, s *MasterSession) string {
	t.Helper()
	var info MasterInfoResp
	status, err := s.Call(nil, proto.MOpMasterInfo, nil, &info)
	if err != nil || status != proto.StatusOK {
		t.Fatalf("call = %v, %v", status, err)
	}
	return info.Self
}

// A redirect is followed — the hinted endpoint, not the next in the list —
// and the cursor stays on the endpoint that answered.
func TestMasterSessionFollowsHintAndPinsCursor(t *testing.T) {
	addrs := []string{"m0", "m1", "m2"}
	s, hits := masterFixture(t, addrs, map[string]masterScript{
		"m0": redirects("m2"), "m1": answers("m1"), "m2": answers("m2"),
	}, 50*time.Millisecond)
	if got := call(t, s); got != "m2" {
		t.Fatalf("answered by %s, want the hinted m2", got)
	}
	if hits("m1") != 0 {
		t.Fatal("the hunt rotated to m1 instead of following the hint")
	}
	for i := 0; i < 3; i++ {
		if got := call(t, s); got != "m2" {
			t.Fatalf("call %d answered by %s, want m2", i, got)
		}
	}
	if hits("m0") != 1 {
		t.Fatalf("m0 served %d calls: the cursor left the endpoint that answered", hits("m0"))
	}
}

// A standby that has not noticed the failover still names the dead primary:
// that hint is ignored and the hunt rotates on, finishing in one sweep.
func TestMasterSessionIgnoresHintAtFailedEndpoint(t *testing.T) {
	addrs := []string{"m0", "m1", "m2"}
	s, hits := masterFixture(t, addrs, map[string]masterScript{
		"m1": redirects("m0"), "m2": answers("m2"),
	}, 50*time.Millisecond)
	if got := call(t, s); got != "m2" {
		t.Fatalf("answered by %s, want m2", got)
	}
	if hits("m1") != 1 {
		t.Fatalf("m1 served %d calls: the stale hint sent the hunt back to the dead m0", hits("m1"))
	}
}

// A dead endpoint is rotated past, and only the first call pays for it.
func TestMasterSessionRotatesPastDeadEndpoint(t *testing.T) {
	s, hits := masterFixture(t, []string{"m0", "m1"}, map[string]masterScript{"m1": answers("m1")}, 50*time.Millisecond)
	for i := 0; i < 3; i++ {
		if got := call(t, s); got != "m1" {
			t.Fatalf("call %d answered by %s, want m1", i, got)
		}
	}
	if hits("m1") != 3 {
		t.Fatalf("m1 served %d of 3 calls", hits("m1"))
	}
}

// With no primary anywhere the hunt keeps sweeping, backing off between
// sweeps, and returns within the op's budget with the last error: a
// redirect, or the timeout of an attempt the budget ran out under.
func TestMasterSessionReturnsWithinBudget(t *testing.T) {
	addrs := []string{"m0", "m1", "m2"}
	s, hits := masterFixture(t, addrs, map[string]masterScript{
		"m0": redirects(""), "m1": redirects(""), "m2": redirects(""),
	}, 20*time.Millisecond)
	const budget = 200 * time.Millisecond
	op := opctx.New(clock.Realtime, budget)
	defer op.Release()
	start := time.Now()
	_, err := s.Call(op, proto.MOpMasterInfo, nil, nil)
	took := time.Since(start)
	if !errors.Is(err, util.ErrNotPrimary) && !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("err = %v, want the last attempt's ErrNotPrimary or ErrTimeout", err)
	}
	if took > budget+100*time.Millisecond {
		t.Fatalf("the call took %v on a %v budget", took, budget)
	}
	if n := hits("m0") + hits("m1") + hits("m2"); n <= len(addrs) {
		t.Fatalf("%d attempts: the hunt gave up after one sweep", n)
	}
}

// Close cancels a hunt in flight: here one waiting on an RPC to an endpoint
// that never answers, within a budget far longer than the test.
func TestMasterSessionCloseCancelsHunt(t *testing.T) {
	hung := make(chan struct{})
	s, hits := masterFixture(t, []string{"m0", "m1"}, map[string]masterScript{
		"m0": func(m *proto.Message) *proto.Message { <-hung; return m.Reply(proto.StatusOK) },
		"m1": redirects(""),
	}, time.Second)
	t.Cleanup(func() { close(hung) }) // runs before the fixture's servers close
	done := make(chan error, 1)
	go func() {
		op := opctx.New(clock.Realtime, time.Minute)
		defer op.Release()
		_, err := s.Call(op, proto.MOpMasterInfo, nil, nil)
		done <- err
	}()
	for hits("m0") == 0 {
		time.Sleep(time.Millisecond)
	}
	go s.Close()
	select {
	case err := <-done:
		if !errors.Is(err, util.ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the hunt running")
	}
}

// reporterFixture is a session whose reports are the test's own functions:
// no master is ever called. The clock is real time that the test can also
// advance.
func reporterFixture(t *testing.T) (*MasterSession, *clock.Scaled, *metrics.Registry) {
	t.Helper()
	clk := clock.NewScaled(1)
	reg := metrics.NewRegistry()
	s := NewMasterSession(NewSimNet(clk, 0).Dialer("caller", NodeConfig{}), clk, []string{"m0"}, time.Second, reg)
	t.Cleanup(s.Close)
	return s, clk, reg
}

// filed records which reports ran.
type filed struct {
	mu  sync.Mutex
	ran []string
}

// report returns a report that records name; wait, when non-nil, holds it
// running until closed.
func (f *filed) report(name string, wait chan struct{}, done *sync.WaitGroup) func() {
	done.Add(1)
	return func() {
		defer done.Done()
		if wait != nil {
			<-wait
		}
		f.mu.Lock()
		f.ran = append(f.ran, name)
		f.mu.Unlock()
	}
}

func (f *filed) names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.ran...)
}

// fence files a report about a chunk of its own and waits for it: reports
// run in order, so everything queued before it has run by then.
func fence(s *MasterSession, f *filed, id uint32) {
	var wg sync.WaitGroup
	s.Report(blockstore.MakeChunkID(id, 0), "", f.report("fence", nil, &wg))
	wg.Wait()
}

func TestReporterDropsSecondReportInFlight(t *testing.T) {
	s, _, _ := reporterFixture(t)
	var f filed
	var wg sync.WaitGroup
	a := blockstore.MakeChunkID(1, 0)
	hold := make(chan struct{})
	s.Report(a, "x", f.report("first", hold, &wg))
	s.Report(a, "y", func() { t.Error("a second report about a chunk with one in flight ran") })
	close(hold)
	wg.Wait()
	fence(s, &f, 2)
	if got := f.names(); len(got) != 2 || got[0] != "first" {
		t.Fatalf("ran %v, want [first fence]", got)
	}
}

func TestReporterDropsRepeatWithinCooldown(t *testing.T) {
	s, _, _ := reporterFixture(t)
	var f filed
	var wg sync.WaitGroup
	a := blockstore.MakeChunkID(1, 0)
	s.Report(a, "x", f.report("first", nil, &wg))
	fence(s, &f, 2)
	s.Report(a, "x", func() { t.Error("a repeat within the cooldown ran") })
	s.Report(a, "y", f.report("other address", nil, &wg))
	wg.Wait()
	fence(s, &f, 3)
	if got := f.names(); len(got) != 4 || got[2] != "other address" {
		t.Fatalf("ran %v, want [first fence (other address) fence]", got)
	}
}

func TestReporterDropsAndCountsWhenQueueFull(t *testing.T) {
	s, _, reg := reporterFixture(t)
	var f filed
	var wg sync.WaitGroup
	hold := make(chan struct{})
	s.Report(blockstore.MakeChunkID(1, 0), "", f.report("running", hold, &wg))
	for deadline := time.Now().Add(5 * time.Second); len(s.reports) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reporter never took the first report")
		}
	}
	for i := 0; i < reportQueueDepth; i++ {
		s.Report(blockstore.MakeChunkID(100+uint32(i), 0), "", f.report("queued", nil, &wg))
	}
	s.Report(blockstore.MakeChunkID(99, 0), "", func() { t.Error("a report past a full queue ran") })
	if got := reg.Counter(MetricReportsDropped).Load(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricReportsDropped, got)
	}
	close(hold)
	wg.Wait()
	fence(s, &f, 2)
	if got := len(f.names()); got != reportQueueDepth+2 {
		t.Fatalf("ran %d reports, want %d", got, reportQueueDepth+2)
	}
}

// The cooldown table forgets what has expired: it does not keep one entry
// per (chunk, address) ever reported.
func TestReporterCooldownTableShrinks(t *testing.T) {
	s, clk, _ := reporterFixture(t)
	var f filed
	var wg sync.WaitGroup
	const keys = 20
	for i := 0; i < keys; i++ {
		s.Report(blockstore.MakeChunkID(uint32(i), 0), "x", f.report("r", nil, &wg))
	}
	wg.Wait()
	size := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.last)
	}
	if got := size(); got != keys {
		t.Fatalf("cooldown table holds %d entries after %d reports", got, keys)
	}
	clk.Advance(ReportCooldown)
	fence(s, &f, 1000)
	if got := size(); got != 1 {
		t.Fatalf("cooldown table holds %d entries a cooldown later, want 1", got)
	}
}

// notPrimaryUses returns where f names proto.StatusNotPrimary (in code, not
// in comments or strings).
func notPrimaryUses(fset *token.FileSet, f *ast.File) []token.Position {
	var out []token.Position
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "StatusNotPrimary" {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "proto" {
				out = append(out, fset.Position(sel.Pos()))
			}
		}
		return true
	})
	return out
}

// TestOnlySessionHuntsForPrimary: outside package proto, package master and
// the session's own file, no non-test file looks at StatusNotPrimary — the
// next master caller reuses MasterSession instead of hunting on its own. The
// rule is first run on a sample of what it must and must not catch.
func TestOnlySessionHuntsForPrimary(t *testing.T) {
	const sample = `package x
// proto.StatusNotPrimary in a comment is fine
func f(s proto.Status) bool {
	_ = "proto.StatusNotPrimary"
	return s == proto.StatusNotPrimary
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sample.go", sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := notPrimaryUses(fset, f); len(got) != 1 || got[0].Line != 5 {
		t.Fatalf("the rule flags %v in the sample, want line 5 alone", got)
	}

	root := filepath.Join("..", "..")
	allowed := map[string]bool{
		filepath.Join(root, "internal", "proto"):                         true,
		filepath.Join(root, "internal", "master"):                        true,
		filepath.Join(root, "internal", "transport", "mastersession.go"): true,
	}
	files, err := srctree.Parse(fset, root, false, func(path string, _ bool) bool { return allowed[path] })
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 50 {
		t.Fatalf("scanned %d files: the walk missed the tree", len(files))
	}
	for _, f := range files {
		for _, pos := range notPrimaryUses(fset, f) {
			t.Errorf("%s: handles StatusNotPrimary itself; call the master through MasterSession", pos)
		}
	}
}
