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
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildNocd compiles cmd/nocd into dir once per run. The go tool's build
// cache makes a rebuild of unchanged sources a link check; either way the
// time is spent before set-up is timed. The build is registered with clean
// like a child, so an interrupt does not leave it running.
func buildNocd(clean *cleanups, dir string) (string, error) {
	bin := filepath.Join(dir, "nocd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nocd")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := clean.acquire(func() (func(), error) { return func() { cmd.Process.Kill() }, cmd.Start() })
	if err == nil {
		err = cmd.Wait()
	}
	if err != nil {
		return "", fmt.Errorf("building cmd/nocd: %v\n%s", err, out.String())
	}
	return bin, nil
}

// child is a running nocd under test.
type child struct {
	cmd  *exec.Cmd
	url  string
	exit chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after exit is closed

	mu  sync.Mutex
	log bytes.Buffer // everything nocd wrote to stderr
}

var servingLine = regexp.MustCompile(`serving designs on (\S+)`)

// startChild launches nocd on a loopback port of the kernel's choosing,
// reads the bound address from its log line, and waits for /v1/healthz. The
// process is started under clean's lock with its stop registered, so an
// interrupt at any point either finds it registered or keeps it from
// starting.
func startChild(clean *cleanups, bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exit: make(chan struct{})}
	if err := clean.acquire(func() (func(), error) { return c.stop, cmd.Start() }); err != nil {
		return nil, fmt.Errorf("starting nocd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		// The reader must finish before Wait closes the pipe.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.log.WriteString(line + "\n")
			c.mu.Unlock()
			if m := servingLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		c.err = cmd.Wait()
		close(c.exit)
	}()
	select {
	case a := <-addr:
		c.url = "http://" + a
	case <-c.exit:
		return nil, fmt.Errorf("nocd exited before serving: %v\n%s", c.err, c.logs())
	case <-time.After(20 * time.Second):
		c.stop()
		return nil, fmt.Errorf("nocd did not report its address within 20s\n%s", c.logs())
	}
	for start := time.Now(); ; {
		resp, err := http.Get(c.url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if !c.alive() || time.Since(start) > 20*time.Second {
			c.stop()
			return nil, fmt.Errorf("nocd never became healthy: %v\n%s", err, c.logs())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *child) logs() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.String()
}

func (c *child) alive() bool {
	select {
	case <-c.exit:
		return false
	default:
		return true
	}
}

// stop drains nocd with SIGTERM, kills it if it has not exited in ten
// seconds, and returns once the process has been reaped. Safe to call twice.
func (c *child) stop() {
	if c == nil {
		return
	}
	if c.alive() {
		c.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-c.exit:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.exit
	}
}

// procUsage reads a live process's cumulative user+system CPU time from
// /proc/<pid>/stat and its peak resident set (VmHWM) from /proc/<pid>/status.
func procUsage(pid int) (cpu time.Duration, peakRSSMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesized command name: utime and stime are the
	// 14th and 15th of the line, so the 12th and 13th after ") ".
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, errors.New("unparsable /proc stat times")
	}
	const clockTick = 100 // USER_HZ on every Linux the toolchain supports
	cpu = time.Duration(utime+stime) * time.Second / clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return 0, 0, err
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, errors.New("no VmHWM in /proc status")
}
