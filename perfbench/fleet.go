package main

import (
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

// The served model: a corpus small enough to generate and train in about
// a second, at window 20, the shape of the committed forward benchmarks.
const (
	servedChains = 24
	servedSteps  = 40
	servedWindow = 20
	servedEpochs = 1
	// setups is how many times a serving run stands the fleet up; setup_s
	// is their median and the last one serves the measurement.
	setups = 5
)

// fleet is two e2vserve backends behind one e2vproxy, started from the
// built binaries with no tuning flags, so the daemons run as shipped.
type fleet struct {
	procs                  []*exec.Cmd
	dataDir, snap          string
	backendURLs            []string
	backendWire            []string
	proxyURL, proxyWire    string
	http                   *http.Client
	logDir                 string
	serveFlags             []string
	withWire, sampleTraces bool
}

// setupFleet generates the served corpus, trains the snapshot, starts the
// daemons and waits until every /readyz answers OK.
func (r *run) setupFleet(dir string, serveFlags []string, withWire, sampleTraces bool) (*fleet, error) {
	f := &fleet{
		dataDir: filepath.Join(dir, "data"), snap: filepath.Join(dir, "served.snap"), logDir: dir,
		serveFlags: serveFlags, withWire: withWire, sampleTraces: sampleTraces,
		http: &http.Client{Timeout: 10 * time.Second},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := r.tool("generate", "-out", f.dataDir, "-chains", strconv.Itoa(servedChains),
		"-steps", strconv.Itoa(servedSteps), "-seed", strconv.FormatInt(r.seed, 10)); err != nil {
		return nil, err
	}
	if err := r.tool("train", "-data", f.dataDir, "-model", f.snap,
		"-epochs", strconv.Itoa(servedEpochs), "-window", strconv.Itoa(servedWindow)); err != nil {
		return nil, err
	}
	if err := f.start(r.bin); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// tool runs one env2vec subcommand to completion.
func (r *run) tool(args ...string) error {
	cmd := exec.Command(filepath.Join(r.bin, "env2vec"), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("env2vec %s: %v: %s", args[0], err, out)
	}
	return nil
}

func (f *fleet) start(bin string) error {
	ports, err := freePorts(6)
	if err != nil {
		return err
	}
	addr := func(i int) string { return "127.0.0.1:" + strconv.Itoa(ports[i]) }
	var traceFlags []string
	if f.sampleTraces {
		traceFlags = []string{"-trace-sample", "1"}
	}
	for i := 0; i < 2; i++ {
		args := []string{"-model", f.snap, "-addr", addr(i)}
		if f.withWire {
			args = append(args, "-wire-addr", addr(2+i))
			f.backendWire = append(f.backendWire, addr(2+i))
		}
		args = append(append(args, f.serveFlags...), traceFlags...)
		if err := f.spawn(bin, "e2vserve", i, args); err != nil {
			return err
		}
		f.backendURLs = append(f.backendURLs, "http://"+addr(i))
	}
	f.proxyURL = "http://" + addr(4)
	args := []string{"-addr", addr(4), "-backends", strings.Join(f.backendURLs, ",")}
	if f.withWire {
		f.proxyWire = addr(5)
		args = append(args, "-wire-addr", addr(5), "-wire-backends", strings.Join(f.backendWire, ","))
	}
	if err := f.spawn(bin, "e2vproxy", 0, append(args, traceFlags...)); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, u := range append(append([]string{}, f.backendURLs...), f.proxyURL) {
		if err := f.waitReady(u, deadline); err != nil {
			return err
		}
	}
	return nil
}

// spawn starts a daemon whose log goes to a file in the run directory. The
// child is killed if this process dies, so no daemon outlives a run.
func (f *fleet) spawn(bin, name string, i int, args []string) error {
	logf, err := os.Create(filepath.Join(f.logDir, fmt.Sprintf("%s-%d.log", name, i)))
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(bin, name), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", name, err)
	}
	f.procs = append(f.procs, cmd)
	return nil
}

func (f *fleet) waitReady(base string, deadline time.Time) error {
	for {
		resp, err := f.http.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not OK after 30s (last error: %v)", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates every daemon and waits for each to exit.
func (f *fleet) stop() {
	for _, c := range f.procs {
		_ = c.Process.Signal(syscall.SIGTERM)
	}
	for _, c := range f.procs {
		done := make(chan struct{})
		go func(c *exec.Cmd) { _ = c.Wait(); close(done) }(c)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = c.Process.Kill()
			<-done
		}
	}
	f.procs = nil
	f.http.CloseIdleConnections()
}

// peakRSSMB sums the daemons' peak resident set (VmHWM). The daemons
// export no heap figures, so resident memory is what can be read from
// outside them.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, c := range f.procs {
		kb, err := vmHWM(c.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return total / 1024, nil
}

// vmHWM reads a process's peak resident set in KiB.
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		}
	}
	return 0, errors.New("no VmHWM in " + path)
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// setupRepeated stands the fleet up `setups` times, reports the median
// set-up time, and returns the last fleet for the measurement.
func (r *run) setupRepeated(serveFlags []string, withWire bool) (*fleet, error) {
	var times []float64
	var f *fleet
	for i := 0; i < setups; i++ {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		var err error
		f, err = r.setupFleet(filepath.Join(r.work, fmt.Sprintf("setup-%d", i)), serveFlags, withWire, false)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", median(times), "s")
	return f, nil
}
