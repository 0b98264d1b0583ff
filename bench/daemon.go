package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"plasmahd/internal/server"
)

// node is one running plasmad: a subprocess of the binary built from
// ./cmd/plasmad, or (for the smoke test and the traced pass's server layer)
// an in-process server on a loopback listener.
type node struct {
	name  string
	url   string
	flags []string // the exact plasmad flags, for the output header

	cmd    *exec.Cmd
	stderr *tailBuffer
	exited chan struct{} // closed once cmd.Wait has returned

	inproc *httptest.Server
	srv    *server.Server
}

// tailBuffer keeps the last few KiB written to it: a daemon's stderr, shown
// only if the daemon dies.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailKeep = 4096

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailKeep {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailKeep:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// buildDaemon compiles ./cmd/plasmad of the checkout into outDir. It runs on
// every invocation: the go tool skips the work when the binary is current,
// and a stale binary from another commit can never be measured.
func buildDaemon(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "plasmad")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/plasmad")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building plasmad: %v\n%s", err, out)
	}
	return bin, nil
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them. Cluster nodes need their peers' addresses before any of them
// starts, so ":0" cannot be used there.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	listeners := make([]net.Listener, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return ports, nil
}

// topology describes the daemons one workload needs.
type topology struct {
	nodes    int
	capacity int
	stateDir string // shared blob dir (eviction spill, revive, cluster handoff)
}

// boot starts the topology and waits until every node answers /healthz.
// Flags are plasmad's defaults except the topology itself: -addr, -quiet,
// -state-dir, -capacity and, for a cluster, -node-id and -peers.
func boot(ctx context.Context, bin string, topo topology, inProcess bool) ([]*node, error) {
	if err := os.MkdirAll(topo.stateDir, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(topo.nodes)
	if err != nil {
		return nil, fmt.Errorf("reserving ports: %w", err)
	}
	nodes := make([]*node, topo.nodes)
	peers := make(map[string]string, topo.nodes)
	var peerFlag []string
	for i := range nodes {
		name := string(rune('a' + i))
		nodes[i] = &node{name: name, url: "http://127.0.0.1:" + strconv.Itoa(ports[i])}
		peers[name] = nodes[i].url
		peerFlag = append(peerFlag, name+"="+nodes[i].url)
	}
	for i, nd := range nodes {
		nd.flags = []string{"-addr", "127.0.0.1:" + strconv.Itoa(ports[i]), "-quiet",
			"-state-dir", topo.stateDir, "-capacity", strconv.Itoa(topo.capacity)}
		cfg := server.Config{Capacity: topo.capacity, StateDir: topo.stateDir}
		if topo.nodes > 1 {
			nd.flags = append(nd.flags, "-node-id", nd.name, "-peers", strings.Join(peerFlag, ","))
			cfg.NodeID, cfg.Peers = nd.name, peers
		}
		if inProcess {
			err = nd.startInProcess(cfg, ports[i])
		} else {
			err = nd.startProcess(bin)
		}
		if err != nil {
			stopAll(nodes)
			return nil, err
		}
	}
	for _, nd := range nodes {
		if err := nd.waitHealthy(ctx); err != nil {
			stopAll(nodes)
			return nil, err
		}
	}
	return nodes, nil
}

func (nd *node) startProcess(bin string) error {
	nd.cmd = exec.Command(bin, nd.flags...)
	nd.stderr = &tailBuffer{}
	nd.cmd.Stderr = nd.stderr
	// If the benchmark itself is killed outright, the kernel takes the
	// daemons down with it; no run leaves a plasmad behind.
	nd.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	nd.exited = make(chan struct{})
	started := make(chan error, 1)
	go func() {
		// Pdeathsig fires when the *thread* that forked the child ends, so
		// that thread is pinned to this goroutine until the child is reaped.
		runtime.LockOSThread()
		err := nd.cmd.Start()
		started <- err
		if err != nil {
			return
		}
		_ = nd.cmd.Wait() // the exit status is irrelevant: stop() kills on purpose, and an early death is reported by alive() with the stderr tail
		close(nd.exited)
	}()
	if err := <-started; err != nil {
		nd.cmd = nil
		return fmt.Errorf("starting plasmad %s: %w", nd.name, err)
	}
	return nil
}

func (nd *node) startInProcess(cfg server.Config, port int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
	if err != nil {
		return fmt.Errorf("in-process node %s: %w", nd.name, err)
	}
	nd.srv = server.New(cfg)
	nd.inproc = httptest.NewUnstartedServer(nd.srv.Handler())
	nd.inproc.Listener.Close()
	nd.inproc.Listener = ln
	nd.inproc.Start()
	return nil
}

// alive reports a daemon that has died, with the tail of its stderr.
func (nd *node) alive() error {
	if nd.exited == nil {
		return nil
	}
	select {
	case <-nd.exited:
		return fmt.Errorf("plasmad %s exited (%v); stderr tail:\n%s", nd.name, nd.cmd.ProcessState, nd.stderr)
	default:
		return nil
	}
}

func (nd *node) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(15 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		if err := nd.alive(); err != nil {
			return err
		}
		if resp, err := client.Get(nd.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("plasmad %s never became healthy at %s; stderr tail:\n%s", nd.name, nd.url, nd.stderr)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop terminates the daemon and waits until it has been reaped: SIGTERM
// first (sessions were already deleted, so the shutdown save is empty),
// SIGKILL if it lingers.
func (nd *node) stop() {
	if nd.inproc != nil {
		nd.inproc.Close()
		return
	}
	if nd.cmd == nil || nd.cmd.Process == nil {
		return
	}
	_ = nd.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine: the wait below returns at once
	select {
	case <-nd.exited:
	case <-time.After(5 * time.Second):
		_ = nd.cmd.Process.Kill() // same: nothing to do if it is already gone
		<-nd.exited
	}
}

func stopAll(nodes []*node) {
	for _, nd := range nodes {
		if nd != nil {
			nd.stop()
		}
	}
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM) from
// /proc. In-process nodes share the benchmark's own address space, so the
// benchmark's own mark stands in (smoke test only).
func (nd *node) peakRSSMB() (float64, error) {
	pid := os.Getpid()
	if nd.cmd != nil {
		pid = nd.cmd.Process.Pid
	}
	status, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(string(rest)), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
