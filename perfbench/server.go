package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one rta-serve process started by the benchmark.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan struct{} // closed once stdout reaches EOF
}

// startServer launches bin on a free loopback port and returns once
// /healthz answers "ok".
func startServer(bin string, args ...string) (*server, error) {
	s := &server{cmd: exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...), done: make(chan struct{})}
	s.cmd.Stderr = &s.stderr
	// Should the benchmark die without stopping it, the kernel kills the
	// server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case s.base = <-addr:
	case <-s.done:
		s.kill()
		return nil, fmt.Errorf("rta-serve exited before listening: %s", s.stderr.String())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, errors.New("rta-serve did not start listening within 60s")
	}
	if err := s.awaitHealthy(60 * time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// awaitHealthy polls /healthz until it answers "ok".
func (s *server) awaitHealthy(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if resp, err := c.Get(s.base + "/healthz"); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.TrimSpace(string(body)) == "ok" {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("rta-serve not healthy within %s", limit)
}

// cpuSeconds is the process's user plus system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, in USER_HZ (100/s) ticks.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line %q", raw)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB is the process's VmHWM in MiB.
func (s *server) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// samplePeaks records the server's peak RSS per interval: every interval
// it reads VmHWM and restarts it from the current RSS. The returned stop
// ends the sampling and returns the per-interval peaks in MiB.
func (s *server) samplePeaks(interval time.Duration) (stop func() ([]float64, error)) {
	quit := make(chan struct{})
	type outcome struct {
		peaks []float64
		err   error
	}
	done := make(chan outcome, 1)
	pid := s.cmd.Process.Pid
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var o outcome
		sample := func() {
			if o.err != nil {
				return
			}
			var peak float64
			if peak, o.err = vmHWM(fmt.Sprintf("/proc/%d/status", pid)); o.err == nil {
				o.peaks = append(o.peaks, peak)
				o.err = resetPeakRSS(pid)
			}
		}
		if o.err = resetPeakRSS(pid); o.err != nil {
			done <- o
			return
		}
		for {
			select {
			case <-tick.C:
				sample()
			case <-quit:
				sample()
				done <- o
				return
			}
		}
	}()
	return func() ([]float64, error) {
		close(quit)
		o := <-done
		return o.peaks, o.err
	}
}

// resetPeakRSS restarts a process's VmHWM from its current RSS.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

func vmHWM(statusFile string) (float64, error) {
	raw, err := os.ReadFile(statusFile)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", statusFile)
}

// stop drains the server with SIGTERM and waits for it to exit; it kills
// a server that has not exited after 30s.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("rta-serve did not drain within 30s")
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("rta-serve: %w: %s", err, s.stderr.String())
	}
	return nil
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
	_ = s.cmd.Wait()
}

// conn is an HTTP client that holds at most one connection.
type conn struct{ c *http.Client }

func newConn() conn {
	return conn{&http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c conn) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (c conn) close() { c.c.CloseIdleConnections() }
