package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the fingerprint printed with every run, so host drift
// can be told apart from a regression: the reference kernel's time at
// the start and the end of the run, and what the process ran on.
type hostInfo struct {
	cpuModel   string
	nproc      int
	gomaxprocs int
	goVersion  string
	refStart   float64 // ms
	refEnd     float64 // ms
	// stealPct is the share of all CPU time over the run that the
	// hypervisor gave to other guests, from /proc/stat.
	stealPct float64
}

func newHostInfo() hostInfo {
	return hostInfo{
		cpuModel:   cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
	}
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s ref_start_ms=%.4f ref_end_ms=%.4f steal_pct=%.2f",
		h.cpuModel, h.nproc, h.gomaxprocs, h.goVersion, h.refStart, h.refEnd, h.stealPct)
}

// cpuTicks returns the steal ticks and the ticks of every kind from
// the aggregate line of /proc/stat, or zeros when it is unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest ...];
	// guest time is already counted in user.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealSince returns the steal share, in percent, of the CPU ticks
// since an earlier cpuTicks reading.
func stealSince(steal0, total0 uint64) float64 {
	steal, total := cpuTicks()
	if total <= total0 {
		return 0
	}
	return 100 * float64(steal-steal0) / float64(total-total0)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// refWords is the reference kernel's table: 4 MiB, larger than a
// typical per-core L2, so the kernel mixes arithmetic with cache
// misses the way the graph code does.
const refWords = 1 << 19

// refKernel is a fixed, standard-library-only workload: a SplitMix64
// stream drives dependent random reads and writes over a 4 MiB table.
// Its result is returned so the loop cannot be optimised away.
func refKernel(table []uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint64
	for i := 0; i < 1<<18; i++ {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		j := (z ^ acc) & (refWords - 1)
		acc += table[j]
		table[j] = z
	}
	return acc
}

var refSink uint64

// hostRefMS times the reference kernel five times and returns the
// median, in milliseconds.
func hostRefMS() float64 {
	table := make([]uint64, refWords)
	times := make([]float64, 5)
	for i := range times {
		t0 := time.Now()
		refSink += refKernel(table)
		times[i] = ms(time.Since(t0))
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in
// MiB, or 0 when /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
