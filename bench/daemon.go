package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildDaemon compiles cmd/dlsimd from the repository at root into dir
// and returns the binary's path.  go build leaves an up-to-date binary
// alone, so repeated runs pay only for the check.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "dlsimd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dlsimd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building dlsimd: %w", err)
	}
	return bin, nil
}

// daemon is one dlsimd process serving on a loopback port.
type daemon struct {
	cmd      *exec.Cmd
	dir      string // holds the store; removed by stop
	url      string
	launched time.Time
	ready    time.Time // first 200 from /readyz

	exited chan struct{} // closed once the process has been reaped
	err    error         // cmd.Wait's result, valid after exited closes
}

// The daemon's memory budget.  A retained result keeps its generated
// workload alive, about 10 MiB for a job with a fresh seed, so at the
// shipped retention bound of 4096 a minute of cold-small traffic would
// exhaust an 8 GiB host; results beyond maxRetained are demoted to the
// store, not lost.  The artifact pool's own bounds hold about 1.1 GiB
// live under cold traffic, which the default GC target lets grow past
// 3 GiB resident; memLimit caps that near 2 GiB.
const (
	maxRetained = 16
	memLimit    = "2GiB"
)

// launch starts dlsimd with its store in dir/store and waits until it
// answers /readyz.  Every flag but the address, the store directory and
// the retention bound stays at its shipped default; the Go runtime gets
// the memory limit.  The daemon's request log is discarded: writing a
// line per request to a file would add the host's disk to every
// measurement.
func launch(ctx context.Context, bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-store-dir", filepath.Join(dir, "store"),
		"-max-retained", strconv.Itoa(maxRetained))
	cmd.Env = append(os.Environ(), "GOMEMLIMIT="+memLimit)
	d := &daemon{cmd: cmd, dir: dir, url: "http://" + addr, exited: make(chan struct{})}
	d.launched = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dlsimd: %w", err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(ctx); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz every 2 ms until it answers 200.
func (d *daemon) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	hc := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Now()
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("dlsimd exited during start-up: %v", d.err)
		case <-ctx.Done():
			return fmt.Errorf("dlsimd not ready: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGINT, which drains in-flight jobs and flushes the store,
// waits for the process to exit and removes its directory unless keep
// is set.  A daemon that does not exit within a minute is killed.
func (d *daemon) stop(keep bool) error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signalling dlsimd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		d.kill()
		return errors.New("dlsimd did not exit within a minute of SIGINT")
	}
	if d.err != nil {
		return fmt.Errorf("dlsimd exited with %v", d.err)
	}
	if keep {
		return nil
	}
	return os.RemoveAll(d.dir)
}

// kill ends the process without a drain and waits until it is reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	<-d.exited
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns the daemon's user plus system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it do not.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat: %q", b)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS returns the daemon's peak resident set size (VmHWM) in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}
