package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time
// in these units on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time a process has used, read
// from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// utime and stime are fields 14 and 15 of the full line.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) { return statusMB(pid, "VmHWM:") }

// statusMB reads one kB-valued field of /proc/<pid>/status, in MB.
func statusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssSampler samples the summed resident set (VmRSS) of some processes
// every rssEvery until stopped. The peak (VmHWM) of a garbage-collected
// process swings with GC timing from run to run; a high percentile of
// the samples is the steady figure.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

const rssEvery = 50 * time.Millisecond

func sampleRSS(pids []int) *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			var sum float64
			for _, pid := range pids {
				v, err := statusMB(pid, "VmRSS:")
				if err != nil {
					s.err = err
					return
				}
				sum += v
			}
			s.samples = append(s.samples, sum)
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the samples' p90.
func (s *rssSampler) stop() (float64, int, error) {
	close(s.stopc)
	<-s.done
	if s.err != nil {
		return 0, 0, s.err
	}
	v, err := percentile(s.samples, 0.9)
	return v, len(s.samples), err
}

// resetPeakRSS restarts a process's VmHWM from its current resident
// set, so a later peakRSSMB covers only what runs in between.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// runtimeSample holds this process's cumulative GC and total CPU
// seconds from runtime/metrics.
type runtimeSample struct {
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	return r
}

// heapAllocs reads the cumulative heap allocation count, cheaply enough
// to bracket a single call.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
