package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// userHZ is the unit of the CPU times in /proc/<pid>/stat; Linux fixes
// it at 100 on every architecture Go supports.
const userHZ = 100

// procCPU returns the user+system CPU time process pid has used, all its
// threads included, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// numbered from 3 (state), so utime (14) and stime (15) are at 11, 12.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the command name", pid, len(fields))
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// procPeakRSSMB returns the peak resident set (VmHWM) of process pid in
// MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM line", pid)
}

// resetPeakRSS restarts the peak-RSS mark (VmHWM) of process pid, so
// that procPeakRSSMB reports the peak since this call.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// gcClock reads the Go runtime's cumulative GC and total CPU estimates,
// whose deltas give the share of this process's CPU spent collecting.
func gcClock() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
