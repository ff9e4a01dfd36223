package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the machine and runtime a report was produced on,
// so numbers from different boxes are never compared by accident.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	DataFS     string `json:"data_fs"` // filesystem type under the durable data directory
}

func takeFingerprint(dataDir string) fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Go:         runtime.Version(),
		CPU:        procField("/proc/cpuinfo", "model name"),
		DataFS:     fsType(dataDir),
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d kernel=%s %s cpu=%q data_fs=%s",
		f.NProc, f.GOMAXPROCS, f.Kernel, f.Go, f.CPU, f.DataFS)
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), which is
// why every workload run is its own process.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
