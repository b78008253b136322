package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Cleanup registry: every daemon started and every directory made is
// released on every exit path, so no orphan burns CPU in the next run.
var (
	cleanMu  sync.Mutex
	cleanFns []func()
)

func atCleanup(fn func()) {
	cleanMu.Lock()
	cleanFns = append(cleanFns, fn)
	cleanMu.Unlock()
}

// cleanup runs the registered functions, newest first, once each.
func cleanup() {
	cleanMu.Lock()
	fns := cleanFns
	cleanFns = nil
	cleanMu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// daemon is one msodd or msodgw child process.
type daemon struct {
	name  string
	cmd   *exec.Cmd
	addr  string // host:port of the API listener
	pprof string // host:port of the pprof listener
	done  chan struct{}
	log   string
	once  sync.Once
	err   error
}

var listenLine = regexp.MustCompile(`(pprof|listening) on ([0-9.]+:[0-9]+)`)

// spawn starts a daemon on loopback with ephemeral ports and returns
// once it logs its listen address: by then its own set-up (policy load,
// recovery) is done. Output goes to a log file in the run directory.
func spawn(cfg *config, name, bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0"}, args...)
	cmd := exec.Command(filepath.Join(cfg.bin, bin), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logPath := filepath.Join(cfg.work, name+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{}), log: logPath}
	atCleanup(d.kill)
	addrs := make(chan [2]string, 2)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addrs <- [2]string{m[1], m[2]}:
				default:
				}
			}
		}
		io.Copy(logf, stderr)
		d.err = cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	timeout := time.After(120 * time.Second)
	for d.addr == "" || d.pprof == "" {
		select {
		case a := <-addrs:
			if a[0] == "pprof" {
				d.pprof = a[1]
			} else {
				d.addr = a[1]
			}
		case <-d.done:
			return nil, fmt.Errorf("%s exited during start-up (%v): %s", name, d.err, tail(logPath))
		case <-timeout:
			d.kill()
			return nil, fmt.Errorf("%s did not start within 120s: %s", name, tail(logPath))
		}
	}
	return d, nil
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func (d *daemon) url() string { return "http://" + d.addr }

// stop ends the daemon with SIGTERM (graceful: stores compact, trails
// close) and waits for it, killing it if it hangs.
func (d *daemon) stop() error {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
			d.err = fmt.Errorf("%s ignored SIGTERM for 30s", d.name)
			return
		}
		var ee *exec.ExitError
		if errors.As(d.err, &ee) {
			d.err = fmt.Errorf("%s exited with %v: %s", d.name, d.err, tail(d.log))
		}
	})
	return d.err
}

// kill ends the daemon with SIGKILL, a crash, and waits for it.
func (d *daemon) kill() {
	d.once.Do(func() {
		_ = d.cmd.Process.Kill()
		<-d.done
	})
}

var httpc = &http.Client{Timeout: 60 * time.Second}

func httpGet(url string) (string, error) {
	resp, err := httpc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	return string(b), nil
}

// waitHealthy polls /v1/health until it answers 200.
func waitHealthy(base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, err := httpGet(base + "/v1/health")
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %w", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrape reads a Prometheus text exposition into name{labels} -> value,
// summing repeated series.
func scrape(base string) (map[string]float64, error) {
	body, err := httpGet(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out, nil
}

// memStats are the runtime.MemStats fields the benchmark reads.
type memStats struct {
	mallocs, totalAlloc, heapAlloc float64
}

var memLine = regexp.MustCompile(`(?m)^# (Mallocs|TotalAlloc|HeapAlloc) = ([0-9]+)`)

// daemonMem reads a daemon's MemStats from its loopback pprof
// listener; gc forces a collection first so HeapAlloc is the live heap.
func daemonMem(d *daemon, gc bool) (memStats, error) {
	url := "http://" + d.pprof + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	body, err := httpGet(url)
	if err != nil {
		return memStats{}, err
	}
	var m memStats
	found := 0
	for _, g := range memLine.FindAllStringSubmatch(body, -1) {
		v, _ := strconv.ParseFloat(g[2], 64)
		switch g[1] {
		case "Mallocs":
			m.mallocs = v
		case "TotalAlloc":
			m.totalAlloc = v
		case "HeapAlloc":
			m.heapAlloc = v
		}
		found++
	}
	if found < 3 {
		return m, fmt.Errorf("%s: no MemStats in heap profile", d.name)
	}
	return m, nil
}

// selfMem reads this process's MemStats.
func selfMem(gc bool) memStats {
	if gc {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memStats{float64(ms.Mallocs), float64(ms.TotalAlloc), float64(ms.HeapAlloc)}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a process's user+system CPU seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks, nil
}

// selfCPU returns this process's user+system CPU seconds at microsecond
// resolution.
func selfCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// procWriteBytes returns /proc/<pid>/io write_bytes: bytes the process
// caused to be sent to the storage layer.
func procWriteBytes(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// stealTicks returns the time, in USER_HZ ticks summed over CPUs, that
// the hypervisor has run other guests on this machine's CPUs.
func stealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// selfGCCPU returns the CPU seconds this process's garbage collector
// has used.
func selfGCCPU() float64 {
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return gcCPUSample[0].Value.Float64()
}

// quantile returns the q-quantile of sorted values by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

var runStart = time.Now()

// progress notes a phase on standard error with the time since start.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "msodperf: %6.2fs %s\n", time.Since(runStart).Seconds(), fmt.Sprintf(format, args...))
}

func sortFloats(v []float64) { sort.Float64s(v) }

func mean(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// timeIt runs fn and returns its wall time in seconds.
func timeIt(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}
