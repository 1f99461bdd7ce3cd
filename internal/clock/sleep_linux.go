//go:build linux

package clock

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// A runtime timer's sleep lasts its duration plus up to one millisecond: the
// netpoller's epoll_wait takes its timeout in whole milliseconds and rounds a
// sub-millisecond remainder up to one more. A model wait on the real clock
// would last its model time plus that quantum. sleep parks instead on a
// CLOCK_MONOTONIC timerfd registered with the netpoller, which wakes it tens
// of µs after d.

// started is read at package init. A synctest bubble's clock starts at
// 2000-01-01, so a Now before started is a bubble's, where sleep must stay
// virtual. Unix() compares wall readings alone; Before compares monotonic
// readings when both times carry one, and those do not tell a bubble apart.
var started = time.Now()

// idleTimers holds the timerfds no sleeper holds. A sleeper that finds none
// opens one; one that finds the list full closes its own, so at most
// cap(idleTimers) stay open while idle. The four benchmark workloads peak
// at 11 to 16 sleepers at once; 128 keeps a wider burst from closing the
// fds the next one would reopen, at the cost of one idle fd each.
var idleTimers = make(chan *timerFD, 128)

// timerFD is one timerfd: the raw descriptor to arm, the same descriptor as a
// pollable os.File to wait on, and the buffers the two syscalls use, kept
// here so a warm sleep allocates nothing.
type timerFD struct {
	fd   uintptr
	f    *os.File
	spec struct{ interval, value syscall.Timespec }
	buf  [8]byte
}

// sleep blocks for at least d. On any syscall error it sleeps out what is
// still owed with time.Sleep.
func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	now := time.Now()
	if now.Unix() < started.Unix() {
		time.Sleep(d)
		return
	}
	deadline := now.Add(d)
	t := openTimer()
	if t == nil {
		time.Sleep(d)
		return
	}
	for rem := d; rem > 0; rem = time.Until(deadline) {
		if !t.wait(rem) {
			t.f.Close()
			time.Sleep(time.Until(deadline))
			return
		}
	}
	select {
	case idleTimers <- t:
	default:
		t.f.Close()
	}
}

// openTimer takes an idle timerfd or opens one, non-blocking so that
// os.NewFile registers it with the netpoller; nil if it cannot.
func openTimer() *timerFD {
	select {
	case t := <-idleTimers:
		return t
	default:
	}
	const clockMonotonic = 1
	fd, _, e := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil
	}
	return &timerFD{fd: fd, f: os.NewFile(fd, "timerfd")}
}

// wait arms t to expire once, d from now, and parks on it until it does;
// false on a syscall error.
func (t *timerFD) wait(d time.Duration) bool {
	t.spec.value = syscall.NsecToTimespec(int64(d))
	if _, _, e := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&t.spec)), 0, 0, 0); e != 0 {
		return false
	}
	_, err := t.f.Read(t.buf[:])
	return err == nil
}
