package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// daemon is a running debug-session service the benchmark drives over
// loopback TCP: the real mcd process, or an in-process server.Server in
// tests. The traffic code is the same for both.
type daemon interface {
	addr() string
	// pid is the process serving; its /proc status gives its peak memory.
	pid() int
	stop() error
}

// buildMCD builds cmd/mcd from the repository at root into dir.
func buildMCD(root, dir string) (string, error) {
	bin := filepath.Join(dir, "mcd")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/mcd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building mcd: %w", err)
	}
	return bin, nil
}

// procDaemon is one mcd process listening on an ephemeral loopback port.
type procDaemon struct {
	cmd     *exec.Cmd
	address string
	exited  chan struct{} // closed once the process is reaped
	waitErr error
}

// startDaemon execs bin with -listen 127.0.0.1:0 plus args and returns
// once it is listening.
func startDaemon(bin string, args []string) (*procDaemon, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	// If mcperf dies without stopping the daemon, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &procDaemon{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		const prefix = "mcd: listening on "
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, prefix) {
				ready <- strings.TrimPrefix(line, prefix)
				break
			} else {
				fmt.Fprintln(os.Stderr, line)
			}
		}
		close(ready)
		io.Copy(os.Stderr, stderr) //nolint:errcheck // the daemon's own diagnostics
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a, ok := <-ready:
		if !ok {
			d.kill()
			return nil, errors.New("mcd exited before listening")
		}
		d.address = a
		return d, nil
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("mcd did not start listening within 30s")
	}
}

func (d *procDaemon) addr() string { return d.address }

func (d *procDaemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain and exit, and kills it if it does not.
func (d *procDaemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may already be gone
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("mcd did not exit on SIGTERM")
	}
}

// kill ends the process at once and waits until it is reaped.
func (d *procDaemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // it may already be gone
	<-d.exited
}

// vmHWM reads a process's peak resident set size from /proc, in MB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverOptions parses the subset of mcd's flags the workloads use into
// the options mcd would build from them, so an in-process server runs the
// workload's configuration.
func serverOptions(args []string) (server.Options, error) {
	fs := flag.NewFlagSet("mcd", flag.ContinueOnError)
	var o server.Options
	fs.IntVar(&o.CompileWorkers, "compile-workers", 0, "")
	fs.IntVar(&o.AnalysisWorkers, "workers", 0, "")
	fs.IntVar(&o.Shards, "shards", server.DefaultShards, "")
	fs.Int64Var(&o.MemoryBudget, "mem-budget", 0, "")
	fs.StringVar(&o.SpillDir, "spill-dir", "", "")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, nil
}

// inProcDaemon serves an in-process server.Server on loopback TCP: a
// traced replay's servers, and the daemon of the tests.
type inProcDaemon struct {
	s    *server.Server
	l    net.Listener
	done chan error
}

// serveInProc serves s on l until stop.
func serveInProc(s *server.Server, l net.Listener) *inProcDaemon {
	d := &inProcDaemon{s: s, l: l, done: make(chan error, 1)}
	go func() { d.done <- s.ListenAndServe(l) }()
	return d
}

func (d *inProcDaemon) addr() string { return d.l.Addr().String() }

func (d *inProcDaemon) pid() int { return os.Getpid() }

func (d *inProcDaemon) stop() error {
	d.s.Close()
	return <-d.done
}
