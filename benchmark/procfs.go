package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTick is USER_HZ: the unit of the CPU fields in /proc/<pid>/stat,
// fixed at 100 on Linux whatever the kernel's own tick rate.
const clockTick = 100

// procCPUms returns the user+system CPU time a process has consumed, in
// milliseconds, from /proc/<pid>/stat (fields 14 and 15; the command
// name in field 2 may itself contain spaces and parentheses, so fields
// are counted from the LAST closing parenthesis).
func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPUms(b)
}

func parseStatCPUms(stat []byte) (float64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("procfs: no command field in stat")
	}
	f := strings.Fields(string(stat[end+1:]))
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat has %d fields after the command", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return float64(utime+stime) * 1000 / clockTick, nil
}

// procPeakRSSmb returns a process's peak resident set (VmHWM) in MiB
// from /proc/<pid>/status.
func procPeakRSSmb(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWMmb(b)
}

func parseStatusHWMmb(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("procfs: no VmHWM line")
}
