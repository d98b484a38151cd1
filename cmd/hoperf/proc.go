package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is CPU time used so far, user mode and kernel mode apart:
// cpu_ms_per_op counts user time only. On the fsync-bound workload the
// kernel share is journal work that varied twofold between identical runs
// on the machine this was built on; it is reported per layer instead
// (proc.sys_cpu_ms_per_op), where it carries no bound.
type cpuTime struct{ user, sys time.Duration }

func (c cpuTime) plus(o cpuTime) cpuTime  { return cpuTime{c.user + o.user, c.sys + o.sys} }
func (c cpuTime) minus(o cpuTime) cpuTime { return cpuTime{c.user - o.user, c.sys - o.sys} }
func (c cpuTime) total() time.Duration    { return c.user + c.sys }

// selfCPU is this process's CPU time so far.
func selfCPU() cpuTime {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}
	}
	return cpuTime{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano())}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's CPU fields: fixed
// at 100 on every Linux ABI Go supports.
const clockTick = time.Second / 100

// procCPU is another process's CPU time, from /proc/<pid>/stat (zero once
// the process is gone).
func procCPU(pid int) cpuTime {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTime{}
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return cpuTime{}
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64) // field 14 of the full line
	stime, _ := strconv.ParseInt(f[12], 10, 64) // field 15
	return cpuTime{user: time.Duration(utime) * clockTick, sys: time.Duration(stime) * clockTick}
}

// peakRSSMB is a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// probeFsync is the median of raw 4 KiB write+fsync calls in dir, in µs:
// what one WAL Sync can cost at best on this medium. Below 20 µs the
// "disk" is not durable media and live_durable measures the code path
// only.
func probeFsync(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var samples []int64
	for i := 0; i < 64; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		samples = append(samples, int64(time.Since(start)))
	}
	return float64(quantile(samples, 0.50)) / 1e3
}

// fileSizes maps every regular file under dir (by relative path) to its
// length.
func fileSizes(dir string) (map[string]int64, error) {
	sizes := make(map[string]int64)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.Mode().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		sizes[rel] = info.Size()
		return err
	})
	return sizes, err
}

// restoreSizes cuts every file under dir back to the length sizes
// recorded and removes files it does not list.
func restoreSizes(dir string, sizes map[string]int64) error {
	now, err := fileSizes(dir)
	if err != nil {
		return err
	}
	for rel, size := range now {
		path := filepath.Join(dir, rel)
		want, known := sizes[rel]
		switch {
		case !known:
			err = os.Remove(path)
		case size > want:
			err = os.Truncate(path, want)
		case size < want:
			err = fmt.Errorf("%s shrank from %d to %d bytes", path, want, size)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
