# Tier-1 gates. `make check` is the pre-commit bar: vet + full tests with
# the race detector (the RPC/replication paths are goroutine-heavy).
GO ?= go

.PHONY: build tier1 test race vet fmt lint bubble-smoke check bench-quick bench-smoke bench-refresh bench-module chaos-smoke scrub-smoke ec-smoke perf-smoke alloc-ledger failover-smoke cold-smoke replay-smoke viewcheck mastercheck

build:
	$(GO) build ./...

# Tier-1 verbatim: the build and the tests with GOEXPERIMENT unset, as a bare
# `go build ./... && go test ./...` runs them — every model-time figure and
# every unit suite on the real clock, the configuration test and race below
# never run.
tier1:
	env -u GOEXPERIMENT $(GO) build ./...
	env -u GOEXPERIMENT $(GO) test ./...

# Both run with the synctest experiment: every model-time figure of the bench
# smoke tests runs in a bubble (clock.Run), where a model sleep costs no wall
# time, and the tagged bubble_test.go files build too. So does every test body
# of internal/cluster, master, client, transport, chunkserver, journal,
# reclog, core and blockstore (clock.Test), but the few that open a real socket (core's
# tcp_test.go, transport's TCP tests, pooled_soak_test.go and bench_test.go),
# which stay on the real clock. Tier-1 (a bare `go test ./...`, make tier1)
# sets no experiment and runs the same figures and bodies on the real clock,
# each body joined (clock.Join): one that leaves a goroutine running fails.
# Both pass -count=1: a cached result would make a repeated run measure
# nothing.
test: export GOEXPERIMENT = synctest
test:
	$(GO) test -count=1 ./...

race: export GOEXPERIMENT = synctest
race:
	$(GO) test -race -count=1 ./...

# Also cross-builds the non-Linux fallbacks (clock.Realtime's time.Sleep,
# the bench's CPU time without getrusage).
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/clock
	GOOS=windows $(GO) build ./...

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

check: fmt vet lint build tier1 test race bubble-smoke chaos-smoke scrub-smoke ec-smoke failover-smoke cold-smoke replay-smoke viewcheck mastercheck perf-smoke bench-smoke bench-module

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
# process: ursa-bench exits non-zero when a figure fails a check — a missed
# acceptance, or a cluster build, step, artifact write or goroutine join that
# failed (bench.Table.Failed; DESIGN.md "Bench harness", "The verdict")
# (~6 min; the list used to be retyped here, and covered 8 of the 31). It
# stays on the real clock, as does bench-refresh, until ROADMAP item 1c moves
# them into bubbles with the 1x models. Fig J no longer stands in the way: it
# checks its QD 32 mean batch (>= 8), which holds on either clock, not a
# QD 32 / QD 1 rate that only the host's old ~1 ms sleep floor made 3.2x
# (EXPERIMENTS.md "Fig J", "Known deviations"). Quick runs write their
# (shrunk, noisy) artifacts to a temp dir; only explicit full `-fig X` runs
# refresh the canonical repo-root BENCH_*.json files
# (internal/bench/artifactPath). Three checks are full-only (Check.FullOnly):
# -fig failover's blackout <= 2.0x the primacy TTL and -fig coldtier's 100x
# clone speed-up compare wall time with model time, and -fig scrub's p99
# ratio reads a tail of 400 ops. A -quick run prints their misses and gates
# every other check; the full runs gate them. A committed artifact that is itself a -quick leftover
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
# repo-root BENCH_*.json files, each with the checks its run stated (several
# minutes; keep the host quiet). The first figure that fails a check stops
# the loop, its artifact written with the failed check in it (unless the
# write itself failed) and the ones after it left as they were. On the real
# clock, like bench-smoke and for the same reason.
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

# How often one seeded chaos run replays exactly: TestChaosRandomLinearizable
# (RandomSchedule at seed 7) ten times in bubbles on one CPU, each logging the
# hash of its history — every client op's kind, offset, outcome and virtual
# completion time in completion order, then the primary master's log
# sequence and state (internal/cluster history_test.go). Prints each hash with
# its count and how many runs share the most common one, and fails when fewer
# than 9 of the 10 do.
replay-smoke: export GOEXPERIMENT = synctest
replay-smoke:
	@GOMAXPROCS=1 $(GO) test ./internal/cluster -run 'TestChaosRandomLinearizable$$' -count=10 -v | \
	grep -o 'history hash [0-9a-f]*' | sort | uniq -c | sort -rn | \
	awk '{ print; n += $$1 } NR == 1 { top = $$1 } END { printf "replay-smoke: %d of %d runs share the most common hash\n", top, n; exit (top < 9) }'

# The view change checked exhaustively (internal/viewcheck, DESIGN.md "Fault
# model & recovery"): the explorer at its larger scope — each strategy, 3
# client writes, 3 faults and a reconcile pass, over the real planner and
# replica rules — logs the states explored and the wall time per strategy,
# and fails on a violated invariant with the shortest trace that reaches it
# (≈ 2 min, ≈ 6 M states). Tier-1 runs the smaller scopes, up to 2 writes
# and 3 faults, in TestExplore.
viewcheck:
	$(GO) test ./internal/viewcheck -run '^$$' -bench ViewCheck -benchtime 1x -count=1 -v

# Master replication checked exhaustively (internal/mastercheck, DESIGN.md
# "Master replication & failover"): three masters, three client commits and
# a fault, two and two faults, and two creates and three crashes that lose
# the log, over the real batch, ack, commit, primacy, promise and promotion
# steps — logs the states explored and the wall time per scope, and fails on
# a violated invariant with the shortest trace that reaches it (~1 min,
# ~0.6 GB).
mastercheck:
	$(GO) test ./internal/mastercheck -run '^$$' -bench MasterCheck -benchtime 1x -count=1 -v

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
# drifts; a log batch from outside the configured masters refused; a create
# over a held vdisk ID or name, or snapshot name, refused by replay; the
# source rules that only state.go writes a field of the replicated state, that
# no clock instant is reachable from it or from a log entry, and that the
# master sends only through fanOut; a lease renewal logging nothing, and a
# promoted standby giving every held lease one TTL; a mirror recovery replacing
# two dead backups on two different machines; and one filling a lagging
# and a replacement backup at once. A mirror copy or incremental repair
# whose source changes view, turns suspect or is made afresh after the
# master probed it must fail with nothing adopted; a backup server acting as
# a chunk's temporary primary journals its write over an older record of
# the same extent, and reads it back. Last, reconciliation: after the
# lifecycle chaos run one reconcile pass leaves no slot of a deleted vdisk
# and no stray below its chunk's view (three runs under -race), and the
# judge's rules, row by row, on slot servers with a guarded delete and
# cold refs that clear only when every replica answers drained in one pass,
# and a pass deposed by its own inventory deleting nothing; and a server's
# inventory answers at once while a fill holds one chunk's lock across its
# source's device time (three runs under -race).
failover-smoke:
	$(GO) test ./internal/cluster -run 'TestChaosKillMasterFailover|TestDeposedMasterFencedByChunkservers|TestServerReportSurvivesMasterBlackout|TestViewMendedThroughReport|TestStaleClientReadsFromLonePrimary|TestAcknowledgedCreateSurvivesFailover|TestAllocatedSegmentsSurviveFailover' -race -count=1 -v
	GOMAXPROCS=1 $(GO) test ./internal/cluster -run 'TestChaosKillMasterFailover|TestViewMendedThroughReport' -count=20
	$(GO) test ./internal/transport -run 'TestMasterSession|TestReporter|TestOnlySessionHuntsForPrimary' -race -count=1 -v
	$(GO) test ./internal/master -run 'TestPromotedStandbyStateMatchesPrimary|TestLogReplayReproducesState|TestFailedCreateLeavesNoTrace|TestViewInstallLeavesColdAlone|TestStandbyNeverAcksUnappliedEntry|TestShipperCountsRefusedReplay|TestLateStandbyCatchesUpInBoundedBatches|TestStandbyRefusesNonMemberBatch|TestReplayRefusesCreateOverHeldState|TestStateWrittenOnlyInStateGo|TestNoClockInstantInReplicatedState|TestRenewalLogsNothing|TestPromotionGivesHeldLeasesOneTTL|TestMasterSendsOnlyThroughFanOut|TestRecoverMirrorPlacesReplacementsApart|TestRecoverMirrorFillsLaggardAndReplacementAtOnce|TestReportViewDecidesProbe|TestConcurrentCommitsAwaitTheirMajority' -race -count=1 -v
	$(GO) test ./internal/chunkserver -run 'TestFillRefusedBySourceThatChanged/(mirror|incremental)' -race -count=1 -v
	$(GO) test ./internal/chunkserver -run 'TestPrimaryWriteOnBackupServerSupersedesJournal' -race -count=1 -v
	$(GO) test ./internal/cluster -run 'TestChaosVDiskLifecycle' -race -count=3 -v
	$(GO) test ./internal/master -run 'TestReconcile' -race -count=1 -v
	$(GO) test ./internal/chunkserver -run 'TestInventoryListsEverySlot|TestGuardedDeleteKeepsSlotMadeAfresh' -race -count=1 -v
	$(GO) test ./internal/chunkserver -run 'TestInventoryAnswersPastAFill' -race -count=3 -v
	$(GO) test ./internal/chunkserver -run 'TestDeleteYieldsDuringAFill' -race -count=3 -v

# Deterministic cold-tier acceptance run: thin clones from a golden-image
# snapshot read back byte-identical under racing source writes and object-
# store stall/rot/partition chaos, and extent GC — the last phase of the
# master's reconcile pass, its one scheduler — fully drains the store once
# the clone materializes and the snapshot is deleted — also when the
# primary master dies just before the last extents land, so only the
# promoted standby's reconcile pass can find the replicas drained; cold
# refs a pass cleared before the primary died stay cleared on the promoted
# standby; a snapshot flushes on all of its primaries at once; after every op
# of a seeded run of every metadata op, every segment is named whole or not
# at all — what lets GC only delete — and a pass that clears no cold refs
# commits no log entry; and a pass's GC phase skips everything while a flush
# is in flight and every segment at or above the watermark.
cold-smoke:
	$(GO) test ./internal/cluster -run 'TestSnapshotCloneColdReads|TestSnapshotImmutableUnderRacingWrites|TestChaosColdReadsSurviveObjstoreStall|TestColdGCReclaimsAfterMaterialization|TestColdNoticeSurvivesMasterFailover' -race -count=1 -v
	$(GO) test ./internal/master -run 'TestColdReportSurvivesFailover|TestSnapshotFlushesPrimariesAtOnce|TestLogReplayReproducesState|TestColdGCWatermarkSkipsInflightFlush' -race -count=1 -v
