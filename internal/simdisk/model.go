package simdisk

import (
	"time"

	"ursa/internal/util"
)

// SSDModel parameterizes the flash device simulation.
type SSDModel struct {
	// Capacity in bytes.
	Capacity int64
	// Parallelism is the number of independent service slots (channels ×
	// planes); requests beyond it queue.
	Parallelism int
	// ReadLatency / WriteLatency are the fixed per-op access costs.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// ReadBandwidth / WriteBandwidth are per-slot streaming rates in
	// bytes/second, applied to the transfer portion of each op.
	ReadBandwidth  float64
	WriteBandwidth float64
}

// HDDModel parameterizes the mechanical device simulation.
type HDDModel struct {
	// Capacity in bytes.
	Capacity int64
	// SeekMax is the full-stroke seek time; actual seeks scale with the
	// fraction of the capacity the head travels, plus SeekSettle.
	SeekMax    time.Duration
	SeekSettle time.Duration
	// RPM determines rotational delay (half a rotation on average after a
	// seek; modeled deterministically as half a rotation).
	RPM int
	// Bandwidth is the media transfer rate in bytes/second.
	Bandwidth float64
	// TrackSkip is the byte distance under which an access still counts
	// as sequential (track buffer / read-ahead window).
	TrackSkip int64
}

// DefaultSSD models a PCIe NVMe device in the Intel 750 class used by the
// paper: ~400 K 4 KB random read IOPS, ~230 K write IOPS, GB/s streaming.
func DefaultSSD() SSDModel {
	return SSDModel{
		Capacity:       400 * util.GiB,
		Parallelism:    32,
		ReadLatency:    80 * time.Microsecond,
		WriteLatency:   140 * time.Microsecond,
		ReadBandwidth:  2.2e9,
		WriteBandwidth: 1.2e9,
	}
}

// DefaultHDD models a 7200 RPM 1 TB SATA drive: ~8 ms average seek,
// 4.17 ms average rotational delay, ~150 MB/s media rate. Random 4 KB IOPS
// land near 80–120, sequential streaming near the media rate — the 2–3
// orders-of-magnitude gap the paper's journals exist to bridge.
func DefaultHDD() HDDModel {
	return HDDModel{
		Capacity:   1 * util.TiB,
		SeekMax:    16 * time.Millisecond,
		SeekSettle: 1 * time.Millisecond,
		RPM:        7200,
		Bandwidth:  150e6,
		TrackSkip:  512 * util.KiB,
	}
}

// rotationHalf returns half a platter rotation, the average rotational
// delay after a seek.
func (m HDDModel) rotationHalf() time.Duration {
	if m.RPM <= 0 {
		return 0
	}
	full := time.Duration(float64(time.Minute) / float64(m.RPM))
	return full / 2
}

// transfer returns the streaming time for n bytes at rate bw.
func transfer(n int, bw float64) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bw * float64(time.Second))
}
