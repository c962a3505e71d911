package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"scaledl"
	"scaledl/internal/par"
)

// printHost prints the host record every result carries. Numbers measured
// under different GEMM kernel tiers are never comparable.
func printHost(out io.Writer) {
	fmt.Fprintf(out, "host: nproc=%d gomaxprocs=%d par_width=%d kernel_tier=%s go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), par.Width(), scaledl.KernelTier(), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB. Where
// /proc is missing it falls back to the memory the Go runtime obtained.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
