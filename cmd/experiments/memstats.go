package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// startHeapSampler polls the Go heap every 50 ms and, on stop, reports the
// peak heap observed alongside the process's peak RSS (VmHWM, which also
// counts resident mmap'd recording pages — the gap between the two numbers
// is the file-backed memory the recording store moved out of the heap).
func startHeapSampler() (stop func()) {
	var peak atomic.Int64
	done := make(chan struct{})
	finished := make(chan struct{})
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if h := int64(ms.HeapInuse); h > peak.Load() {
			peak.Store(h)
		}
	}
	go func() {
		defer close(finished)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		fmt.Printf("peak heap in use: %.1f MB\n", float64(peak.Load())/(1<<20))
		if hwm, ok := vmHWM(); ok {
			fmt.Printf("peak RSS (incl. mmap'd recordings): %.1f MB\n", float64(hwm)/(1<<20))
		}
	}
}

// vmHWM reads the process's peak resident set size from /proc (Linux).
func vmHWM() (int64, bool) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(blob), "\n") {
		var kb int64
		if n, _ := fmt.Sscanf(line, "VmHWM: %d kB", &kb); n == 1 {
			return kb * 1024, true
		}
	}
	return 0, false
}
