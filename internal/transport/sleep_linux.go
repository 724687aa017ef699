//go:build linux

package transport

import (
	"syscall"
	"time"
)

// sleep blocks the calling goroutine for d on the kernel's timer. A Go
// timer in an otherwise idle process fires from the netpoller, whose
// epoll wait rounds any delay under a millisecond up to one, so
// time.Sleep(200µs) returns after ≥ 1 ms exactly when the server is idle
// between events. nanosleep(2) is good to tens of microseconds.
// syscall.Nanosleep is a blocking Syscall, so the runtime can hand the P
// to another goroutine while this one sleeps; an EINTR resumes with the
// remainder.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
