package cloudsim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/util"
)

func TestDeviceRoundTrip(t *testing.T) {
	p := AWSProfile()
	p.ReadMedian, p.WriteMedian = time.Microsecond, time.Microsecond
	d := New(p, 64*util.MiB, clock.Realtime, 1)
	data := make([]byte, 8*util.KiB)
	util.NewRand(1).Fill(data)
	if err := d.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
	// Holes read as zero.
	hole := make([]byte, 512)
	if err := d.ReadAt(hole, 32*util.MiB); err != nil {
		t.Fatal(err)
	}
	for _, b := range hole {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
}

func TestDeviceBounds(t *testing.T) {
	d := New(AWSProfile(), util.MiB, clock.Realtime, 1)
	if err := d.WriteAt(make([]byte, 512), util.MiB); !errors.Is(err, util.ErrOutOfRange) {
		t.Errorf("write past end: %v", err)
	}
	if err := d.ReadAt(make([]byte, 100), 0); !errors.Is(err, util.ErrOutOfRange) {
		t.Errorf("unaligned read: %v", err)
	}
}

func TestLatencyEnvelope(t *testing.T) {
	// Medians must be respected within sampling noise and the QCloud
	// profile must be visibly slower with a heavier tail than AWS.
	aws := New(AWSProfile(), util.MiB, clock.Realtime, 42) // samples only: no op waits
	qc := New(QCloudProfile(), util.MiB, clock.Realtime, 43)
	hAWS, hQC := util.NewHist(), util.NewHist()
	buf := make([]byte, 4096)
	for i := 0; i < 1500; i++ {
		hAWS.Observe(aws.sample(aws.profile.ReadMedian))
		hQC.Observe(qc.sample(qc.profile.ReadMedian))
		_ = buf
	}
	if m := hAWS.Quantile(0.5); m < 350*time.Microsecond || m > 900*time.Microsecond {
		t.Errorf("AWS median = %v", m)
	}
	if hQC.Mean() < hAWS.Mean() {
		t.Error("QCloud mean faster than AWS")
	}
	// The p99/median ratio must show the heavy tail.
	ratio := float64(hQC.Quantile(0.99)) / float64(hQC.Quantile(0.5))
	if ratio < 2 {
		t.Errorf("QCloud p99/median = %.2f, want heavy tail", ratio)
	}
}
