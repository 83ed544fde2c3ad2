package main

// The server under test: the unmodified veridp-server binary, built from
// this checkout, run as a subprocess and observed only from outside —
// /metrics, /proc/<pid>/{stat,status} and /proc/net/udp.

import (
	"bufio"
	"bytes"
	"context"
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

const (
	buildDir        = ".bench_build"
	readyTimeout    = 20 * time.Second
	shutdownTimeout = 5 * time.Second // the server's own -shutdown-timeout default
	clockTick       = 100             // USER_HZ; fixed at 100 on every Linux ABI Go targets
)

// findRoot returns the checkout root: the working directory or its parent,
// whichever holds cmd/veridp-server (the parent when run from bench/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "veridp-server", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/veridp-server not found: run from the checkout root")
}

// buildServer compiles ./cmd/veridp-server into the checkout's build
// directory and returns the binary's path.
func buildServer(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, buildDir, "veridp-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/veridp-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/veridp-server: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port of the network.
func freePort(network string) (int, error) {
	if network == "udp" {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		return c.LocalAddr().(*net.UDPAddr).Port, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

type serverProc struct {
	cmd         *exec.Cmd
	stderr      bytes.Buffer
	proxyAddr   string
	reportsAddr string
	reportsPort int
	metricsURL  string
	client      *http.Client
	spawnReady  time.Duration
}

// startServer executes the binary with its default flags apart from the
// topology and the four addresses, stdout to /dev/null, and returns once
// the proxy and the metrics endpoint answer.
func startServer(ctx context.Context, bin, topoName, ctrlAddr string) (*serverProc, error) {
	var ports [3]int
	for i, network := range []string{"tcp", "udp", "tcp"} {
		p, err := freePort(network)
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	s := &serverProc{
		proxyAddr:   fmt.Sprintf("127.0.0.1:%d", ports[0]),
		reportsAddr: fmt.Sprintf("127.0.0.1:%d", ports[1]),
		reportsPort: ports[1],
		metricsURL:  fmt.Sprintf("http://127.0.0.1:%d/metrics", ports[2]),
		client:      &http.Client{Timeout: 5 * time.Second},
	}
	s.cmd = exec.Command(bin,
		"-topo", topoName,
		"-listen", s.proxyAddr,
		"-controller", ctrlAddr,
		"-reports", s.reportsAddr,
		"-metrics", fmt.Sprintf("127.0.0.1:%d", ports[2]))
	s.cmd.Stderr = &s.stderr // stdout stays nil: /dev/null
	s.cmd.SysProcAttr = childProcAttr()
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := start.Add(readyTimeout)
	for {
		if err := s.probeReady(ctx); err == nil {
			break
		} else if time.Now().After(deadline) || ctx.Err() != nil {
			s.kill()
			return nil, fmt.Errorf("server not ready after %v: %v\n%s", readyTimeout, err, s.stderr.Bytes())
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.spawnReady = time.Since(start)
	return s, nil
}

func (s *serverProc) probeReady(ctx context.Context) error {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", s.proxyAddr)
	if err != nil {
		return err
	}
	c.Close() // the proxy logs one failed handshake; harmless
	_, err = s.scrape()
	return err
}

// scrape is one parsed /metrics page.
type scrape struct {
	verified, violated uint64
	hits, misses       uint64
	pairs, paths       uint64
	blamed             map[string]uint64
	took               time.Duration
}

func (m *scrape) verdicts() uint64 { return m.verified + m.violated }

func (s *serverProc) scrape() (*scrape, error) {
	start := time.Now()
	resp, err := s.client.Get(s.metricsURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	m, err := parseMetrics(body)
	if err != nil {
		return nil, err
	}
	m.took = time.Since(start)
	return m, nil
}

// parseMetrics reads the Prometheus text page the Monitor writes.
func parseMetrics(body []byte) (*scrape, error) {
	m := &scrape{blamed: make(map[string]uint64)}
	plain := map[string]*uint64{
		"veridp_reports_verified_total": &m.verified,
		"veridp_reports_violated_total": &m.violated,
		"veridp_cache_hits_total":       &m.hits,
		"veridp_cache_misses_total":     &m.misses,
		"veridp_path_table_pairs":       &m.pairs,
		"veridp_path_table_paths":       &m.paths,
	}
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %v", line, err)
		}
		if dst, ok := plain[name]; ok {
			*dst = n
			seen++
		} else if rest, ok := strings.CutPrefix(name, `veridp_blamed_total{switch="`); ok {
			m.blamed[strings.TrimSuffix(rest, `"}`)] = n
		}
	}
	if seen != len(plain) {
		return nil, fmt.Errorf("/metrics: %d of %d expected series present", seen, len(plain))
	}
	return m, nil
}

// cpu returns the process's cumulative user and system time.
func (s *serverProc) cpu() (user, sys time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, so 11 and 12 after "pid (comm)".
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: unexpected format", s.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", s.cmd.Process.Pid)
	}
	tick := time.Second / clockTick
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// cpuTotal returns the process's cumulative on-CPU time at nanosecond
// resolution, summed over its threads' schedstat rows; where the kernel
// keeps no schedstat it falls back to the 10 ms ticks of stat.
func (s *serverProc) cpuTotal() (time.Duration, error) {
	rows, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	var total time.Duration
	for _, row := range rows {
		b, err := os.ReadFile(row)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", row, err)
		}
		total += time.Duration(ns)
	}
	if total > 0 {
		return total, nil
	}
	u, sy, err := s.cpu()
	return u + sy, err
}

// status returns the peak resident set (VmHWM, kB) and the thread count.
func (s *serverProc) status() (hwmKB, threads uint64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "VmHWM:":
			hwmKB, err = strconv.ParseUint(f[1], 10, 64)
		case "Threads:":
			threads, err = strconv.ParseUint(f[1], 10, 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if hwmKB == 0 || threads == 0 {
		return 0, 0, errors.New("/proc/<pid>/status: VmHWM or Threads missing")
	}
	return hwmKB, threads, nil
}

// rxq returns the report socket's receive-queue depth in bytes and its
// cumulative drop count, from the socket's /proc/net/udp row.
func (s *serverProc) rxq() (queued, drops uint64, err error) {
	return udpSocketStats(s.reportsPort)
}

func udpSocketStats(port int) (queued, drops uint64, err error) {
	b, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return 0, 0, err
	}
	want := fmt.Sprintf(":%04X", port)
	for _, line := range strings.Split(string(b), "\n")[1:] {
		f := strings.Fields(line)
		// sl local rem st tx:rx tr:when retrnsmt uid timeout inode ref pointer drops
		if len(f) < 13 || !strings.HasSuffix(f[1], want) || f[2] != "00000000:0000" {
			continue
		}
		_, rx, ok := strings.Cut(f[4], ":")
		if !ok {
			break
		}
		if queued, err = strconv.ParseUint(rx, 16, 64); err != nil {
			return 0, 0, err
		}
		drops, err = strconv.ParseUint(f[12], 10, 64)
		return queued, drops, err
	}
	return 0, 0, fmt.Errorf("/proc/net/udp: no unconnected socket on port %d", port)
}

// stop sends SIGINT and waits for a clean exit within the server's own
// shutdown grace period; anything else is an error.
func (s *serverProc) stop() (time.Duration, error) {
	start := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGINT); err != nil {
		s.kill()
		return 0, fmt.Errorf("server gone before SIGINT: %v\n%s", err, s.stderr.Bytes())
	}
	// chan: buffered 1 — the waiter sends once and exits even if stop has timed out and moved on to kill
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	t := time.NewTimer(shutdownTimeout + time.Second)
	defer t.Stop()
	select {
	case err := <-done:
		if err != nil {
			return 0, fmt.Errorf("server exit after SIGINT: %v\n%s", err, s.stderr.Bytes())
		}
		return time.Since(start), nil
	case <-t.C:
		_ = s.cmd.Process.Kill() // already past its grace period; the waiter reaps it
		<-done
		return 0, fmt.Errorf("server still running %v after SIGINT\n%s", shutdownTimeout+time.Second, s.stderr.Bytes())
	}
}

// kill is the error-path teardown: no grace, but the child is reaped.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill() // it may have exited already
	_ = s.cmd.Wait()         // reaping is all that matters here
}
