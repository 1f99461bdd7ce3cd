package util

import "errors"

// Sentinel errors shared across URSA subsystems. Packages wrap these with
// context via fmt.Errorf("...: %w", err) so callers can match with
// errors.Is.
var (
	// ErrOutOfRange reports an offset/length outside a chunk or device.
	ErrOutOfRange = errors.New("ursa: offset out of range")
	// ErrClosed reports use of a closed component.
	ErrClosed = errors.New("ursa: component closed")
	// ErrNotFound reports a missing vdisk, chunk, or key.
	ErrNotFound = errors.New("ursa: not found")
	// ErrExists reports creation of an already-existing object.
	ErrExists = errors.New("ursa: already exists")
	// ErrStaleView reports a request carrying an outdated view number.
	ErrStaleView = errors.New("ursa: stale view number")
	// ErrFutureVersion reports a replica that lags the client's version and
	// needs incremental repair before serving.
	ErrFutureVersion = errors.New("ursa: replica behind client version")
	// ErrLeaseHeld reports a vdisk already leased to another client.
	ErrLeaseHeld = errors.New("ursa: lease held by another client")
	// ErrLeaseExpired reports an operation under an expired lease.
	ErrLeaseExpired = errors.New("ursa: lease expired")
	// ErrQuota reports journal quota exhaustion.
	ErrQuota = errors.New("ursa: journal quota exhausted")
	// ErrPartitioned reports an injected network partition.
	ErrPartitioned = errors.New("ursa: network partitioned")
	// ErrTimeout reports a replication or RPC timeout.
	ErrTimeout = errors.New("ursa: timed out")
	// ErrNoQuorum reports a write that failed to reach a majority.
	ErrNoQuorum = errors.New("ursa: no quorum")
	// ErrCorrupt reports data that failed integrity verification: a read
	// succeeded but the payload does not match its recorded checksum.
	ErrCorrupt = errors.New("ursa: data corruption detected")
	// ErrNotPrimary reports a metadata op sent to a master that is not the
	// current primary (standby or deposed); callers redirect.
	ErrNotPrimary = errors.New("ursa: not the primary master")
	// ErrStaleEpoch reports a master-driven command fenced off by a
	// chunkserver because it carried a deposed master's epoch.
	ErrStaleEpoch = errors.New("ursa: stale master epoch")
)
