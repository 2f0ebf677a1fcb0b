package main

import (
	"os"
	"testing"
)

func TestParseStat(t *testing.T) {
	// The command field may hold spaces and parentheses.
	stat := []byte("4242 (minsync) node) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 50 0 0 20 0 9 0 1000 123456789 4096 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	ms, err := parseStatCPUms(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(150+50) * 1000 / clockTick; ms != want {
		t.Errorf("cpu = %g ms, want %g", ms, want)
	}
	if _, err := parseStatCPUms([]byte("1 (x) S 1 2 3")); err == nil {
		t.Error("short stat line accepted")
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := []byte("Name:\tminsync-node\nVmPeak:\t 1234567 kB\nVmHWM:\t   65536 kB\nVmRSS:\t   60000 kB\n")
	mb, err := parseStatusHWMmb(status)
	if err != nil {
		t.Fatal(err)
	}
	if mb != 64 {
		t.Errorf("VmHWM = %g MiB, want 64", mb)
	}
	if _, err := parseStatusHWMmb([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

func TestReadOwnProcess(t *testing.T) {
	pid := os.Getpid()
	before, err := procCPUms(pid)
	if err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i
	}
	sink = x
	after, err := procCPUms(pid)
	if err != nil {
		t.Fatal(err)
	}
	if after < before {
		t.Errorf("CPU time went backwards: %g -> %g ms", before, after)
	}
	mb, err := procPeakRSSmb(pid)
	if err != nil {
		t.Fatal(err)
	}
	if mb <= 0 {
		t.Errorf("peak RSS = %g MiB", mb)
	}
}
