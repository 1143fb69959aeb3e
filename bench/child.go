package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/dews"
	"repro/internal/loadgen"
)

// childEnv marks a re-exec of this binary as the server child; its
// value is "<logDir>\n<graphDir>". An environment variable (not a flag)
// so the smoke test's binary can serve as the child too.
const childEnv = "DEWSBENCH_CHILD"

// runChild is the server process of the serving workloads: the real
// assembly — dews.NewSystem over the given durable directories and
// System.ServeMux, no Run — on a loopback port of the kernel's choosing.
// It prints the base URL on stdout and serves until stdin closes or
// SIGTERM arrives, then shuts down cleanly so the directories can be
// reopened cold by the oracles.
func runChild(spec string) error {
	logDir, graphDir, ok := strings.Cut(spec, "\n")
	if !ok {
		return fmt.Errorf("child: bad %s", childEnv)
	}
	sys, err := dews.NewSystem(dews.Config{LogDir: logDir, GraphDir: graphDir})
	if err != nil {
		return err
	}
	mux, gw, err := sys.ServeMux()
	if err != nil {
		return errors.Join(err, sys.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errors.Join(err, sys.Close())
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Printf("http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stdinClosed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(stdinClosed)
	}()
	select {
	case err := <-served:
		return errors.Join(err, sys.Close())
	case <-ctx.Done():
	case <-stdinClosed:
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = gw.Shutdown(shutCtx)
	err = errors.Join(err, srv.Shutdown(shutCtx))
	return errors.Join(err, sys.Close())
}

// child is the parent's handle on a running server process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string
	// readyS is spawn → first 200 from /healthz.
	readyS float64
	// stop runs once; later calls return the first call's error, so a
	// deferred stop can back up the checked one.
	stopOnce sync.Once
	stopErr  error
}

// startChild re-execs this binary as a server over the two directories
// and waits until it answers /healthz.
func startChild(ctx context.Context, client *http.Client, logDir, graphDir string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+logDir+"\n"+graphDir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	started := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return nil, errors.Join(fmt.Errorf("child printed no address: %w", err), c.stop())
	}
	c.base = strings.TrimSpace(line)
	if err := loadgen.WaitHealthy(ctx, client, c.base, 60*time.Second); err != nil {
		return nil, errors.Join(err, c.stop())
	}
	c.readyS = time.Since(started).Seconds()
	return c, nil
}

// stop asks the child to shut down cleanly and waits until it has
// exited; a child that does not exit in time is killed.
func (c *child) stop() error {
	c.stopOnce.Do(func() {
		_ = c.stdin.Close()
		done := make(chan error, 1)
		go func() { done <- c.cmd.Wait() }()
		select {
		case c.stopErr = <-done:
		case <-time.After(20 * time.Second):
			_ = c.cmd.Process.Kill()
			<-done
			c.stopErr = errors.New("child did not exit within 20s of stdin closing; killed")
		}
	})
	return c.stopErr
}

// cpuSeconds is the child's on-CPU time so far, summed over its threads
// from /proc/<pid>/task/*/schedstat: nanosecond resolution, where the
// utime/stime ticks of /proc/<pid>/stat would quantize a half-second
// phase to ±4%.
func (c *child) cpuSeconds() (float64, error) {
	return procCPUSeconds(c.cmd.Process.Pid)
}

func procCPUSeconds(pid int) (float64, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d (%v)", pid, err)
	}
	var ns uint64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // thread exited between glob and read
		}
		field, _, _ := strings.Cut(string(b), " ")
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// peakRSSMB reads a process's resident-set high-water mark.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}
