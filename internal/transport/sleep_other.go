//go:build !linux

package transport

import "time"

// sleep blocks the calling goroutine for d. Off Linux it is time.Sleep;
// see sleep_linux.go for why Linux uses the kernel's timer instead.
func sleep(d time.Duration) { time.Sleep(d) }
