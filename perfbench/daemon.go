package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemon is a qpserved or qprouter child process.
type daemon struct {
	cmd  *exec.Cmd
	URL  string
	done chan struct{}
}

// startDaemon launches bin from binDir with args plus a free loopback
// listen address, reads the bound address it prints first, and waits
// until /healthz answers 200.
func startDaemon(binDir, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(binDir, bin), append(args, "-addr", "127.0.0.1:0")...)
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addr <- a
				break
			}
		}
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.URL = "http://" + a
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not report its address", bin)
	}
	if err := waitHealthy(d.URL); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s: %w", bin, err)
	}
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pid returns the daemon's process ID.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits for the daemon to drain and exit, and kills
// it if it has not exited within ten seconds.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// stopAll stops every daemon in ds.
func stopAll(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}
