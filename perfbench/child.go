package main

import (
	"bufio"
	"bytes"
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

// child is one running hyperdomd process.
type child struct {
	cmd     *exec.Cmd
	addr    string // 127.0.0.1:port
	base    string // http://addr
	done    chan struct{}
	waitErr error
}

// startServer execs hyperdomd on the fixture's corpus with its serving
// defaults and returns once /readyz answers 200, with the time from exec
// to that first 200. The server's access log goes to a file in the run
// directory so the log writes cost it what they cost in production and
// nothing in this process has to drain them.
func startServer(bin string, fx *fixture, boot int) (*child, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr}
	if fx.w.snapshot {
		args = append(args, "-snapshot-dir", fx.snapDir)
	} else {
		args = append(args, "-data", fx.csvPath)
	}
	logPath := filepath.Join(fx.dir, fmt.Sprintf("hyperdomd-%d.log", boot))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()

	c := &child{addr: addr, base: "http://" + addr, done: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stdout = logf
	c.cmd.Stderr = logf
	// The server must not outlive the benchmark, however it ends.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start hyperdomd: %w", err)
	}
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.done)
	}()

	poll := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(120 * time.Second)
	for {
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("hyperdomd exited before ready (%v); log %s:\n%s", c.waitErr, logPath, tail(logPath))
		default:
		}
		resp, err := poll.Get(c.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(start)
				if fx.w.snapshot && !logContains(logPath, "loaded snapshot") {
					c.stop()
					return nil, 0, fmt.Errorf("hyperdomd did not boot from the snapshot; log %s:\n%s", logPath, tail(logPath))
				}
				return c, setup, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, 0, errors.New("hyperdomd not ready after 120s")
		}
		// nanosleep, not time.Sleep: an idle runtime rounds short sleeps
		// up to a millisecond, a tenth of a snapshot boot.
		ts := syscall.NsecToTimespec((250 * time.Microsecond).Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// stop sends SIGTERM (graceful drain), escalates to SIGKILL after 10 s,
// and returns once the process has exited.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func logContains(path, s string) bool {
	b, err := os.ReadFile(path)
	return err == nil && bytes.Contains(b, []byte(s))
}

// tail returns the last lines of a log for error messages.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}
