package main

// Running the program under test as black-box subprocesses: start,
// probe until the first correct answer, read /stats, stop, and collect
// rusage.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one started program process.
type proc struct {
	name  string
	cmd   *exec.Cmd
	log   string
	done  chan struct{}
	state *os.ProcessState
	err   error
}

// procs tracks every process a run starts, so every exit path can stop
// them all.
type procs struct {
	bin, dir string
	list     []*proc
}

// start launches bin/name with args, output to a log file in dir.
func (ps *procs) start(name string, args ...string) (*proc, error) {
	logPath := filepath.Join(ps.dir, fmt.Sprintf("%s-%d.log", filepath.Base(name), len(ps.list)))
	f, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("creating log: %w", err)
	}
	defer f.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(ps.bin, name), args...)
	cmd.Dir = ps.dir
	cmd.Stdout, cmd.Stderr = f, f
	// Children die with the benchmark even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	ps.list = append(ps.list, p)
	go func() {
		p.err = cmd.Wait()
		p.state = cmd.ProcessState
		close(p.done)
	}()
	return p, nil
}

// run starts a process and waits for it to exit successfully.
func (ps *procs) run(name string, args ...string) (*proc, error) {
	p, err := ps.start(name, args...)
	if err != nil {
		return nil, err
	}
	<-p.done
	if p.err != nil {
		return p, fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), p.err, p.tail())
	}
	return p, nil
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends sig and waits for the process to exit, escalating to
// SIGKILL after grace.
func (p *proc) stop(sig syscall.Signal, grace time.Duration) {
	if p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(sig) // it may have exited meanwhile; Wait reports that
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// stopAll stops every process still running.
func (ps *procs) stopAll() {
	for _, p := range ps.list {
		p.stop(syscall.SIGKILL, time.Second)
	}
}

// peakRSSMB is the process's peak resident set from rusage, after exit.
func (p *proc) peakRSSMB() float64 {
	if p.state == nil {
		return 0
	}
	ru, ok := p.state.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpu is the process's user+system CPU time: from /proc while it runs,
// from rusage once it has exited.
func (p *proc) cpu() time.Duration {
	if p.state != nil {
		return p.state.UserTime() + p.state.SystemTime()
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz).
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// runTime is the CPU time all threads of the running process have
// spent so far, from the scheduler's nanosecond counters
// (/proc/PID/task/*/schedstat), which leave out time the hypervisor
// stole; it falls back to the tick-granular cpu.
func (p *proc) runTime() time.Duration {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", p.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return p.cpu()
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			return p.cpu()
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return p.cpu()
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return p.cpu()
		}
		total += time.Duration(ns)
	}
	return total
}

// tail returns the end of the process's log, for error messages.
func (p *proc) tail() string {
	raw, _ := os.ReadFile(p.log)
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}

// freePort returns a loopback port that was free a moment ago.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

var probeClient = &http.Client{Timeout: 10 * time.Second}

// httpGet fetches base+path and returns the body of a 200 response.
func httpGet(base, path string) ([]byte, error) {
	resp, err := probeClient.Get(base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// httpPost posts body to base+path and returns the body of a 200 response.
func httpPost(base, path, ctype string, body []byte) ([]byte, error) {
	resp, err := probeClient.Post(base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// waitCorrect polls check until it succeeds, the process set dies, or
// the deadline passes; it returns when the first correct answer arrived.
func waitCorrect(check func() error, alive []*proc, deadline time.Duration) (time.Time, error) {
	limit := time.Now().Add(deadline)
	var last error
	for time.Now().Before(limit) {
		for _, p := range alive {
			if p.exited() {
				return time.Time{}, fmt.Errorf("%s exited during start-up: %v\n%s", p.name, p.err, p.tail())
			}
		}
		if last = check(); last == nil {
			return time.Now(), nil
		}
		var ne net.Error
		if !errors.As(last, &ne) && !errors.Is(last, syscall.ECONNREFUSED) && !strings.Contains(last.Error(), "status 503") {
			return time.Time{}, last // a wrong answer, not a server still booting
		}
		time.Sleep(time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("no correct answer within %s: %v", deadline, last)
}

// statsDoc is the part of /stats the benchmark reads.
type statsDoc struct {
	Overlay *struct {
		Compactions     uint64 `json:"compactions"`
		Compacting      bool   `json:"compacting"`
		LockHoldNsTotal int64  `json:"lock_hold_ns_total"`
		LockHoldNsMax   int64  `json:"lock_hold_ns_max"`
		Applied         uint64 `json:"applied"`
	} `json:"overlay"`
	Serving *struct {
		Shed      uint64                `json:"shed"`
		Endpoints map[string]routeStats `json:"endpoints"`
	} `json:"serving"`
}

type routeStats struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
}

func fetchStats(base string) (*statsDoc, error) {
	body, err := httpGet(base, "/stats")
	if err != nil {
		return nil, err
	}
	var st statsDoc
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	return &st, nil
}

// routeDelta is the count and handler-time sum of one route between
// two /stats snapshots.
func routeDelta(a, b *statsDoc, route string) (count uint64, sumUs float64) {
	if a == nil || b == nil || a.Serving == nil || b.Serving == nil {
		return 0, 0
	}
	ra, rb := a.Serving.Endpoints[route], b.Serving.Endpoints[route]
	return rb.Count - ra.Count, rb.MeanUs*float64(rb.Count) - ra.MeanUs*float64(ra.Count)
}

// meanUs is a delta's mean handler time, 0 without requests.
func meanUs(count uint64, sumUs float64) float64 {
	if count == 0 {
		return 0
	}
	return sumUs / float64(count)
}
