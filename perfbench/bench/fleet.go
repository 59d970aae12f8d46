package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running predintd process.
type proc struct {
	role string // "server", "front", "worker0", ...
	cmd  *exec.Cmd
	addr string // host:port it listens on
	log  *os.File
	done chan struct{}
}

// fleet is the set of predintd processes one workload runs against;
// entry is the process the generator talks to.
type fleet struct {
	procs   []*proc
	entry   *proc
	tickErr error
}

// fleetSpec says how to start a workload's processes: workers plain
// replicas, then one entry process with flags (given -workers when
// workers > 0).
type fleetSpec struct {
	workers     int
	flags       []string
	workerFlags []string
}

const readyTimeout = 30 * time.Second

// startProc spawns predintd on an ephemeral loopback port and waits for
// the "listening on" line that names the port.
func startProc(bin, logDir, role string, args []string) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, role+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	addrc := make(chan string, 1)
	cmd.Stdout = logf
	// A generator that dies unexpectedly must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = &addrWatcher{w: logf, addrc: addrc}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{role: role, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-addrc:
		p.addr = a
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening (see %s)", role, logf.Name())
	case <-time.After(readyTimeout):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within %v", role, readyTimeout)
	}
	return p, nil
}

// addrWatcher copies the process's stderr to its log and reports the
// address from the first "listening on" line.
type addrWatcher struct {
	w     io.Writer
	addrc chan string
	buf   []byte
	sent  bool
}

func (a *addrWatcher) Write(b []byte) (int, error) {
	if !a.sent {
		a.buf = append(a.buf, b...)
		const marker = "listening on http://"
		if i := bytes.Index(a.buf, []byte(marker)); i >= 0 {
			if j := bytes.IndexByte(a.buf[i:], '\n'); j >= 0 {
				a.addrc <- strings.TrimSpace(string(a.buf[i+len(marker) : i+j]))
				a.sent, a.buf = true, nil
			}
		}
	}
	return a.w.Write(b)
}

// stop drains the process with SIGTERM, kills it if the drain hangs,
// and waits until it has exited.
func (p *proc) stop() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

// startFleet launches the spec's processes and waits until every one
// answers GET /readyz with 200 (the entry's readiness in coordinator
// mode also waits for its first worker probe).
func startFleet(bin, logDir string, spec fleetSpec, cl *http.Client) (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := 0; i < spec.workers; i++ {
		p, err := startProc(bin, logDir, fmt.Sprintf("worker%d", i), spec.workerFlags)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		addrs = append(addrs, p.addr)
	}
	flags := spec.flags
	role := "server"
	if spec.workers > 0 {
		flags = append([]string{"-workers", strings.Join(addrs, ",")}, flags...)
		role = "front"
	}
	p, err := startProc(bin, logDir, role, flags)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.procs = append(f.procs, p)
	f.entry = p
	deadline := time.Now().Add(readyTimeout)
	for _, p := range f.procs {
		for {
			resp, err := cl.Get(p.url("/readyz"))
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				f.stop()
				return nil, fmt.Errorf("%s not ready within %v", p.role, readyTimeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return f, nil
}

func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

// metrics scrapes one process's /metrics snapshot (a flat name→int map).
func (p *proc) metrics(cl *http.Client) (map[string]int64, error) {
	resp, err := cl.Get(p.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]int64{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return m, nil
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// 100 on every mainstream Linux build.
const clockTicks = 100

// cpuTicks reads the process's user+system CPU ticks.
func (p *proc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	// fields[0] is state (field 3); utime and stime are fields 14, 15.
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat of %s", p.role)
	}
	return ut + st, nil
}

// peakRSSKiB reads VmHWM, the process's peak resident set.
func (p *proc) peakRSSKiB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.role)
}

// stealTicks sums the steal column of /proc/stat's aggregate cpu line:
// time the hypervisor ran something else while this VM wanted the CPU.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line := strings.SplitN(string(b), "\n", 2)[0]
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// snapshot is the per-process state read at a window boundary.
type snapshot struct {
	ticks   []int64
	metrics []map[string]int64
}

// snapshot reads every process's CPU ticks and /metrics. At the start
// of a window the scrape goes first and at the end the ticks do, so the
// scrapes' own CPU stays outside the window.
func (f *fleet) snapshot(cl *http.Client, start bool) (snapshot, error) {
	var s snapshot
	for _, p := range f.procs {
		var m map[string]int64
		var err error
		if start {
			if m, err = p.metrics(cl); err != nil {
				return s, err
			}
		}
		t, err := p.cpuTicks()
		if err != nil {
			return s, err
		}
		if !start {
			if m, err = p.metrics(cl); err != nil {
				return s, err
			}
		}
		s.ticks = append(s.ticks, t)
		s.metrics = append(s.metrics, m)
	}
	return s, nil
}

// ticks sums the fleet's CPU ticks. A process that cannot be read
// (it died) counts as 0 and its error is kept in tickErr, which fails
// the run.
func (f *fleet) ticks() int64 {
	var t int64
	for _, p := range f.procs {
		v, err := p.cpuTicks()
		if err != nil && f.tickErr == nil {
			f.tickErr = err
		}
		t += v
	}
	return t
}
