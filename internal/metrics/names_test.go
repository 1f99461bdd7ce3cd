package metrics_test

import (
	"testing"

	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/metrics"
	"ursa/internal/objstore"
	"ursa/internal/scrub"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
)

// Every exported metric-name constant in the tree, audited in one place.
// A new Metric* constant belongs here; the test then guarantees it follows
// the kebab-case scheme and does not collide with an existing name.
var allMetricNames = map[string]string{
	"simdisk.MetricFaultsInjected":           simdisk.MetricFaultsInjected,
	"simdisk.MetricCorruptionsInjected":      simdisk.MetricCorruptionsInjected,
	"journal.MetricJournalDead":              journal.MetricJournalDead,
	"journal.MetricBypassWrites":             journal.MetricBypassWrites,
	"journal.MetricReplayErrors":             journal.MetricReplayErrors,
	"journal.MetricReplayCorrupt":            journal.MetricReplayCorrupt,
	"journal.MetricBatchRecords":             journal.MetricBatchRecords,
	"journal.MetricFlushLatency":             journal.MetricFlushLatency,
	"journal.MetricReplayWindow":             journal.MetricReplayWindow,
	"journal.MetricReplayWrites":             journal.MetricReplayWrites,
	"journal.MetricReplayResidentBytes":      journal.MetricReplayResidentBytes,
	"journal.MetricReplayDeviceBytes":        journal.MetricReplayDeviceBytes,
	"chunkserver.MetricPendingWrites":        chunkserver.MetricPendingWrites,
	"chunkserver.MetricDepWait":              chunkserver.MetricDepWait,
	"chunkserver.MetricChecksumMismatches":   chunkserver.MetricChecksumMismatches,
	"chunkserver.MetricStaleEpochRejections": chunkserver.MetricStaleEpochRejections,
	"chunkserver.MetricColdFetches":          chunkserver.MetricColdFetches,
	"chunkserver.MetricColdScrubSkips":       chunkserver.MetricColdScrubSkips,
	"master.MetricChunkRecoveries":           master.MetricChunkRecoveries,
	"master.MetricRecoveryDuration":          master.MetricRecoveryDuration,
	"master.MetricMasterPromotions":          master.MetricMasterPromotions,
	"master.MetricMasterReplayRefused":       master.MetricMasterReplayRefused,
	"master.MetricGCSegmentsReclaimed":       master.MetricGCSegmentsReclaimed,
	"transport.MetricReportsDropped":         transport.MetricReportsDropped,
	"client.MetricColdWarmHits":              client.MetricColdWarmHits,
	"objstore.MetricObjPuts":                 objstore.MetricObjPuts,
	"objstore.MetricObjGets":                 objstore.MetricObjGets,
	"objstore.MetricObjDeletes":              objstore.MetricObjDeletes,
	"objstore.MetricObjFaultsInjected":       objstore.MetricObjFaultsInjected,
	"transport.MetricConnInflight":           transport.MetricConnInflight,
	"scrub.MetricPasses":                     scrub.MetricPasses,
	"scrub.MetricChunksVerified":             scrub.MetricChunksVerified,
	"scrub.MetricBytesVerified":              scrub.MetricBytesVerified,
	"scrub.MetricCorruptionsFound":           scrub.MetricCorruptionsFound,
	"scrub.MetricReadErrors":                 scrub.MetricReadErrors,
}

func TestAllMetricConstantsAreKebabCase(t *testing.T) {
	for where, name := range allMetricNames {
		if !metrics.ValidName(name) {
			t.Errorf("%s = %q is not kebab-case", where, name)
		}
	}
}

func TestMetricConstantsAreUnique(t *testing.T) {
	seen := map[string]string{}
	for where, name := range allMetricNames {
		if prev, dup := seen[name]; dup {
			t.Errorf("%s and %s both register %q", prev, where, name)
		}
		seen[name] = where
	}
}

// Registering every constant against one registry is the end-to-end check:
// nothing panics, everything lands as a distinct counter.
func TestMetricConstantsRegister(t *testing.T) {
	r := metrics.NewRegistry()
	for _, name := range allMetricNames {
		r.Counter(name).Inc()
	}
	for where, name := range allMetricNames {
		if got := r.Counter(name).Load(); got != 1 {
			t.Errorf("%s (%q) counter = %d after one Inc", where, name, got)
		}
	}
}
