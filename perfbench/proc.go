package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// procSample is one reading of the process counters the per-layer
// metrics difference over the measured window.
type procSample struct {
	IO       map[string]int64 // /proc/self/io fields (rchar, wchar, syscr, syscw, ...)
	CPUTicks int64            // utime + stime from /proc/self/stat, in clock ticks
	Ctxsw    int64            // voluntary + nonvoluntary switches from /proc/self/status
	Mallocs  uint64
	AllocB   uint64
	PauseNs  uint64
	NumGC    uint32
	// Steal and Total are the machine's stolen and total CPU ticks from
	// /proc/stat: time the hypervisor gave to other guests.
	Steal, Total int64
	HaveIO       bool
	HaveStat     bool
	HaveCtxsw    bool
	HaveSteal    bool
}

func readProc() procSample {
	var p procSample
	if b, err := os.ReadFile("/proc/self/io"); err == nil {
		p.IO, p.HaveIO = parseProcIO(string(b)), true
	}
	if b, err := os.ReadFile("/proc/self/stat"); err == nil {
		if t, err := parseStatCPU(string(b)); err == nil {
			p.CPUTicks, p.HaveStat = t, true
		}
	}
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		if n, ok := parseCtxsw(string(b)); ok {
			p.Ctxsw, p.HaveCtxsw = n, true
		}
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		p.Steal, p.Total, p.HaveSteal = parseSteal(string(b))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Mallocs, p.AllocB, p.PauseNs, p.NumGC = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, ms.NumGC
	return p
}

// parseProcIO parses "key: value" lines.
func parseProcIO(s string) map[string]int64 {
	out := make(map[string]int64)
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil {
			out[strings.TrimSpace(k)] = n
		}
	}
	return out
}

// parseStatCPU returns utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(s string) (int64, error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command", len(f))
	}
	u, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return u + st, nil
}

// parseCtxsw sums voluntary and nonvoluntary context switches from
// /proc/<pid>/status.
func parseCtxsw(s string) (int64, bool) {
	var total int64
	found := 0
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || (k != "voluntary_ctxt_switches" && k != "nonvoluntary_ctxt_switches") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return 0, false
		}
		total += n
		found++
	}
	return total, found == 2
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc.
const clockTicks = 100

// fsTypeName names the file system holding dir, for the run record.
func fsTypeName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// parseSteal returns the steal and total ticks of the "cpu" line of
// /proc/stat (user nice system idle iowait irq softirq steal ...).
func parseSteal(s string) (steal, total int64, ok bool) {
	line, _, _ := strings.Cut(s, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i == 7 {
			steal = n
		}
		if i < 8 { // guest time is already counted in user and nice
			total += n
		}
	}
	return steal, total, true
}

// stealPct is the share of the machine's CPU time stolen between a and
// b, in percent; -1 when /proc/stat is unreadable.
func stealPct(a, b procSample) float64 {
	if !a.HaveSteal || !b.HaveSteal || b.Total <= a.Total {
		return -1
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total) * 100
}
