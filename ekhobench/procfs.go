package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every mainstream Linux build).
const clockTicks = 100

// procCPU returns a process's user + sys CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: malformed stat for pid %d", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: short stat for pid %d", pid)
	}
	// f[0] is state (field 3); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("procfs: bad cpu fields for pid %d", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procHWM returns a process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fs[1], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("procfs: no VmHWM for pid %d", pid)
}

// udpRcvbufErrors returns the network namespace's count of UDP
// datagrams dropped for a full socket receive buffer.
func udpRcvbufErrors() (int64, error) {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	var names []string
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "Udp:") {
			continue
		}
		fs := strings.Fields(line)[1:]
		if names == nil {
			names = fs
			continue
		}
		for i, n := range names {
			if n == "RcvbufErrors" && i < len(fs) {
				return strconv.ParseInt(fs[i], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("procfs: no Udp RcvbufErrors in /proc/net/snmp")
}

// selfCPU returns this process's user + sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sysctlInt reads an integer sysctl from /proc/sys (0 when unreadable).
func sysctlInt(path string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	return v
}

var httpc = &http.Client{Timeout: 5 * time.Second}

// scrapeMetrics fetches a Prometheus text exposition and returns every
// unlabeled sample by name.
func scrapeMetrics(addr string) (map[string]float64, error) {
	resp, err := httpc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fs[1], 64); err == nil {
			out[fs[0]] = v
		}
	}
	return out, sc.Err()
}

// sessionInfo is the subset of the hub's /sessions JSON the benchmark
// checks.
type sessionInfo struct {
	ID           uint32  `json:"id"`
	Measurements int     `json:"measurements"`
	Injected     int     `json:"markers_injected"`
	Matched      int     `json:"markers_matched"`
	ISDLastMS    float64 `json:"isd_last_ms"`
}

// scrapeSessions fetches the hub's per-session snapshots.
func scrapeSessions(addr string) ([]sessionInfo, error) {
	resp, err := httpc.Get("http://" + addr + "/sessions")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var infos []sessionInfo
	if err := json.Unmarshal(b, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}
