# Tier-1 gates. `make check` is the pre-commit bar: vet + full tests with
# the race detector (the RPC/replication paths are goroutine-heavy).
GO ?= go

.PHONY: build test race vet fmt lint bubble-smoke check bench-quick bench-smoke bench-refresh bench-module chaos-smoke scrub-smoke ec-smoke perf-smoke alloc-ledger failover-smoke cold-smoke

build:
	$(GO) build ./...

# Both run with the synctest experiment: every model-time figure of the bench
# smoke tests runs in a bubble (clock.Run), where a model sleep costs no wall
# time, and the tagged bubble_test.go files build too. Tier-1 (a bare `go
# test ./...`) sets no experiment and runs the same figures on the real clock.
test: export GOEXPERIMENT = synctest
test:
	$(GO) test ./...

race: export GOEXPERIMENT = synctest
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails when gofmt would change a tracked Go file, and names the files.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -w these files:"; echo "$$out"; exit 1; fi

# Optional deeper static analysis: runs staticcheck and govulncheck when
# they are installed, and skips them cleanly when they are not (CI images
# without the tools still pass `make check`).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

check: fmt vet lint build test race bubble-smoke chaos-smoke scrub-smoke ec-smoke failover-smoke cold-smoke perf-smoke bench-smoke bench-module

# The tests tagged goexperiment.synctest (the bubble_test.go files; tier-1
# sets no experiment and never builds them), under the race detector. Each
# drives one wait — an HDD queue in SCAN order, a QD 8 group commit, a bypass
# write behind a replay run, a chunk's version-slot wait, a write queued on
# the chunk lock behind a mirror clone and behind a segment snapshot, a
# flight's window — first on the real clock, then inside synctest.Run, where
# it must finish in virtual time at exactly the model's latencies; and
# TestBubbleCluster runs whole clusters in bubbles (the benchmark's set-up,
# a segment rebuild racing two writers, the random chaos schedule), each of
# which must return. A wait on a channel or timer made outside the bubble,
# on a sync.Mutex held across a model sleep, or a goroutine that Close does
# not join, hangs it until the timeout. Then the bench smoke tests ten times
# over, each figure in a bubble of its own (the class of run in which a
# goroutine poll beside a bubble once flaked; ~1 min, capped at 5 so that a
# leak, which hangs a bubble, dumps its stacks), and vet of the tagged build.
bubble-smoke: export GOEXPERIMENT = synctest
bubble-smoke:
	$(GO) test -race -count=1 -timeout 2m -run Bubble ./...
	$(GO) test -timeout 5m ./internal/bench -run Smoke -skip PerfSmoke -count=10
	$(GO) vet ./...

bench-quick:
	$(GO) run ./cmd/ursa-bench -all -quick

# Every figure of the registry (internal/bench.All) at -quick length, in one
# process: ursa-bench exits non-zero when a figure prints ACCEPTANCE FAIL
# (~6 min; the list used to be retyped here, and covered 8 of the 31). It
# stays on the real clock, as does bench-refresh: at exact model time Fig J's
# group-commit acceptance (QD 32 >= 2x QD 1 appends/s) misses, because the
# 3.2x it shows on the real clock amortises the host's ~1 ms sleep floor, not
# the HDD (EXPERIMENTS.md "Fig J"; ROADMAP item 1c settles it before these
# move into bubbles). Quick runs write their
# (shrunk, noisy) artifacts to a temp dir; only explicit full `-fig X` runs
# refresh the canonical repo-root BENCH_*.json files
# (internal/bench/artifactPath). Two acceptances compare wall time with
# model time and flake on a shared host: -fig failover's blackout <= 2.0x
# the primacy TTL and -fig coldtier's 100x clone speed-up. A -quick run
# reports those two as notes and gates the rest (zero data errors, one
# promotion to a higher epoch; GC reclaim, no corrupt payload); the full
# runs gate them. A committed artifact that is itself a -quick leftover
# fails the target before anything runs. The run is capped at 20 minutes:
# a figure that starves or hangs (a hotchunk cell that admitted one request
# per connection, since deleted, once held the gate for 11) is sent SIGQUIT,
# which prints every goroutine's stack, and the target fails saying so.
bench-smoke: vet
	@if grep -l '"quick": *true' BENCH_*.json; then \
		echo "bench-smoke: the artifacts named above are -quick runs; regenerate them full-length (make bench-refresh)"; exit 1; fi
	$(GO) build -o .bench_build/ursa-bench ./cmd/ursa-bench
	@timeout -s QUIT -k 30s 20m .bench_build/ursa-bench -all -quick; st=$$?; \
	if [ $$st -eq 124 ]; then echo "bench-smoke: ursa-bench -all -quick did not finish in 20 minutes: a figure is starved or hung (stacks above)"; fi; \
	exit $$st

# The figures that write a repo-root BENCH_<fig>.json, in registry order
# (internal/bench TestRegistry holds this line to the registry).
ARTIFACT_FIGS := journal ceiling hotchunk recovery scrub ec failover coldtier

# Full-length run of every artifact-writing figure: rewrites all the
# repo-root BENCH_*.json files (several minutes; keep the host quiet). On the
# real clock, like bench-smoke and for the same reason.
bench-refresh:
	for f in $(ARTIFACT_FIGS); do \
		$(GO) run ./cmd/ursa-bench -fig $$f || exit 1; \
	done

# The repo benchmark (BENCHMARK.json) is its own module under benchmark/,
# outside `go build ./... && go test ./...`: vet and test it here so an
# internal/ API change cannot break it unnoticed. Same build cache as
# benchmark/run.sh.
bench-module: export GOCACHE = $(CURDIR)/.bench_build/gocache
bench-module:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark -count=1 .

# Hot-path allocation regression gate: runs the steady-state micro
# benchmarks (read+verify, write+stamp, pooled decode, client-directed
# write fan-out, jindex insert/query) and fails if any loop's allocs/op or
# B/op exceeds the checked-in ceiling in
# internal/bench/testdata/perf_baseline.json (currently 0 allocs/op). The
# same file carries count ceilings for journal replay, measured over a
# steady-state drain (journal-device reads per replayed record: 0 while the
# backlog fits the resident image of the journal tail, <= 1 past it;
# allocations per replayed record), and for a whole 4 KiB read and write at
# QD 1 through client, transport and chunkserver handlers on a zero-cost
# in-process cluster ("e2e-4k": allocations per op, bytes per write) — the
# path the micros bypass — and byte ceilings for what provisioned-but-idle
# state holds on that cluster after forced collections ("footprint": heap per
# created-but-unwritten chunk replica, per chunk replica written once net of
# simulated-disk pages, per idle SimNet connection and per idle RPC
# connection over one).
perf-smoke:
	$(GO) test ./internal/bench -run TestPerfSmoke -count=1 -v

# Where the e2e-4k allocations come from: the gate's QD 1 read and write
# cells (and the QD 32 write cell) re-run with every heap allocation
# profiled (runtime.MemProfileRate = 1), printed as allocs and bytes per op
# by allocating site, and beside it the footprint gate's scenario as bytes
# left in use per stage by allocating site. A diagnostic, not a gate: when
# perf-smoke's e2e-4k or footprint count rises, this names the site
# (DESIGN.md "Allocation ledger", "Memory follows use").
alloc-ledger:
	$(GO) run ./cmd/ursa-bench -fig ledger

# Deterministic chaos acceptance run (fixed seed, scripted schedule, ~2s):
# every SSD journal in the cluster dies mid-workload and the client must
# finish with zero failed I/Os and a linearizable history.
chaos-smoke:
	$(GO) test ./internal/cluster -run TestChaosJournalDeathNoClientErrors -count=1 -v

# Deterministic bit-rot acceptance run: a backup replica's whole HDD rots
# silently mid-workload; the scrubber must detect it, the master must
# re-replicate, and every byte the client ever reads must be correct.
scrub-smoke:
	$(GO) test ./internal/cluster -run TestChaosBitRotScrubRepairs -count=1 -v

# Deterministic erasure-coding acceptance run: M=2 segment holders of an
# RS(4,2) chunk die mid-workload under the linearizability checker, and the
# client must finish with zero failed I/Os; the same with one holder's HDD
# dead under a live server, whose position must be re-homed; plus
# degraded-read reconstruction, a lost primary decoded onto a replacement
# from exactly N holders, and the all-replicas-corrupt clean-error floor;
# an RS decode whose source holder changes view, turns suspect or is made
# afresh mid-fill must fail with nothing adopted; an RS primary whose old
# bytes rot once must still ship parity that decodes to the write, and one
# whose old bytes stay rotten must fail the write and report itself.
ec-smoke:
	$(GO) test ./internal/cluster -run 'TestChaosECSegmentDeath|TestChaosECHolderDiskDeath|TestECDegradedReadReconstructs|TestECPrimaryLossDecodesReplacement|TestAllReplicasCorruptCleanError' -count=1 -v
	$(GO) test ./internal/chunkserver -run 'TestFillRefusedBySourceThatChanged/RS' -count=1 -v
	$(GO) test ./internal/chunkserver -run 'TestRSPrimaryVerifiesOldBytes' -count=1 -v

# Deterministic master-failover acceptance run: the primary master of a
# three-master cluster is killed mid-workload under the linearizability
# checker; a standby must promote at a higher epoch, the deposed master
# must bounce off the chunkservers' epoch fence, and the client must finish
# with zero failed I/Os; a failure report a chunk server files while no
# master is primary must reach the one that promotes; replicas at a view
# the master never logged (a primary master that died before its view
# change shipped, a replica that missed an install, an RS chunk) heal
# through the client's failure report. The failover pair runs again
# twenty times on one CPU, where the view race used to show. The master session's
# hunting and reporter rules, and the source rule that nothing else hunts
# for the primary. Then the master's state-machine gates: replicated
# state byte-identical on primary, standbys and a promoted standby after
# traffic of every entry kind; a fresh standby fed the primary's log
# reproduces its state, a lone master's too; the four closed primary/standby
# drifts; a log batch from outside the configured masters refused; the
# source rules that only state.go writes a field of the replicated state and
# that the master sends only through fanOut; a mirror recovery replacing
# two dead backups on two different machines; and one filling a lagging
# and a replacement backup at once. A mirror copy or incremental repair
# whose source changes view, turns suspect or is made afresh after the
# master probed it must fail with nothing adopted; a backup server acting as
# a chunk's temporary primary journals its write over an older record of
# the same extent, and reads it back.
failover-smoke:
	$(GO) test ./internal/cluster -run 'TestChaosKillMasterFailover|TestDeposedMasterFencedByChunkservers|TestServerReportSurvivesMasterBlackout|TestViewMendedThroughReport|TestStaleClientReadsFromLonePrimary' -race -count=1 -v
	GOMAXPROCS=1 $(GO) test ./internal/cluster -run 'TestChaosKillMasterFailover|TestViewMendedThroughReport' -count=20
	$(GO) test ./internal/transport -run 'TestMasterSession|TestReporter|TestOnlySessionHuntsForPrimary' -race -count=1 -v
	$(GO) test ./internal/master -run 'TestPromotedStandbyStateMatchesPrimary|TestLogReplayReproducesState|TestFailedCreateLeavesNoTrace|TestViewInstallLeavesColdAlone|TestStandbyNeverAcksUnappliedEntry|TestShipperCountsRefusedReplay|TestLateStandbyCatchesUpInBoundedBatches|TestStandbyRefusesNonMemberBatch|TestStateWrittenOnlyInStateGo|TestMasterSendsOnlyThroughFanOut|TestRecoverMirrorPlacesReplacementsApart|TestRecoverMirrorFillsLaggardAndReplacementAtOnce|TestReportViewDecidesProbe' -race -count=1 -v
	$(GO) test ./internal/chunkserver -run 'TestFillRefusedBySourceThatChanged/(mirror|incremental)' -race -count=1 -v
	$(GO) test ./internal/chunkserver -run 'TestPrimaryWriteOnBackupServerSupersedesJournal' -race -count=1 -v

# Deterministic cold-tier acceptance run: thin clones from a golden-image
# snapshot read back byte-identical under racing source writes and object-
# store stall/rot/partition chaos, and extent GC fully drains the store
# once the clone materializes and the snapshot is deleted — also when the
# primary master dies just before the last extents land and the
# materialization notices have to outlast the blackout; a notice the
# primary master took before it died still counts on the promoted standby;
# a snapshot flushes on all of its primaries at once; and a clone's replica
# whose extent GC moved refreshes its refs from the master and reads it.
cold-smoke:
	$(GO) test ./internal/cluster -run 'TestSnapshotCloneColdReads|TestSnapshotImmutableUnderRacingWrites|TestChaosColdReadsSurviveObjstoreStall|TestColdGCReclaimsAfterMaterialization|TestColdNoticeSurvivesMasterFailover' -race -count=1 -v
	$(GO) test ./internal/master -run 'TestColdReportSurvivesFailover|TestSnapshotFlushesPrimariesAtOnce|TestStaleColdRefRefreshedFromMaster' -race -count=1 -v
