package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// daemonProcs is the GOMAXPROCS every shipped daemon runs under, so the
// capacity figures do not change with the size of the host.
const daemonProcs = 2

// sandbox owns everything the benchmark leaves outside its own process:
// the built daemon binaries, the scratch directory holding WAL and lease
// files, and every child process. close undoes all of it; main arranges
// for close to run on return, panic and signal alike.
type sandbox struct {
	root   string // repository checkout
	binDir string // built daemons, kept between runs so later runs skip the link
	work   string // per-run scratch, removed by close

	mu       sync.Mutex
	children []*daemon
	closed   bool
}

// repoRoot finds the checkout from the two places the benchmark is
// started from: the checkout itself (the driver) and bench/ (go run .).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "coordinator", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("bench: run from the repository root or from bench/ (cmd/coordinator not found)")
}

// newSandbox builds the shipped daemons once and creates the scratch
// directory. Everything lives under <root>/.bench_build: on the real
// filesystem of the checkout (the WAL must see a real fsync, not tmpfs)
// and inside the only tree the benchmark may write to.
func newSandbox() (*sandbox, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	binDir := filepath.Join(base, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/coordinator", "./cmd/aggregator")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: building the daemons: %v\n%s", err, out)
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &sandbox{root: root, binDir: binDir, work: work}, nil
}

var errClosed = errors.New("bench: sandbox closed")

// dir creates a fresh, empty scratch subdirectory.
func (s *sandbox) dir(prefix string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errClosed
	}
	return os.MkdirTemp(s.work, prefix+"-")
}

// close kills and reaps every child and removes the scratch directory.
// Safe to call more than once and from the signal goroutine. Once closed
// is set nothing creates files under work any more (dir and start check
// it under the same lock), so the removal cannot race a late creation.
func (s *sandbox) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	children := s.children
	s.mu.Unlock()
	for _, d := range children {
		d.kill()
	}
	_ = os.RemoveAll(s.work)
}

// closeOnSignal tears the sandbox down when the benchmark is
// interrupted, then exits non-zero. The returned stop function detaches
// the handler once main is on its normal exit path.
func (s *sandbox) closeOnSignal() (stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		select {
		case got := <-sig:
			s.close()
			fmt.Fprintf(os.Stderr, "bench: %v: children stopped, scratch removed\n", got)
			os.Exit(130)
		case <-done:
		}
	}()
	return func() { signal.Stop(sig); close(done) }
}

// daemon is one child process: a shipped binary, its log and its URL.
type daemon struct {
	name    string
	url     string
	logPath string
	cmd     *exec.Cmd
	logFile *os.File

	waitOnce sync.Once
	exited   chan struct{}
}

// freeAddr reserves a loopback port by binding and releasing it. The
// window between release and the daemon's own bind is short and the
// benchmark owns the host, so a clash is a start-up error, not a hang.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches bin with args, logging to <work>/<name>.log (appended:
// a daemon restarted under the same name keeps one log).
func (s *sandbox) start(name, bin, addr string, args ...string) (*daemon, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	logPath := filepath.Join(s.work, name+".log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(s.binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs))
	// If the benchmark itself is SIGKILLed no Go code runs; the kernel
	// still takes the children down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, url: "http://" + addr, logPath: logPath, cmd: cmd,
		logFile: logFile, exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("bench: starting %s: %w", name, err)
	}
	s.children = append(s.children, d)
	go d.reap()
	return d, nil
}

func (d *daemon) reap() {
	d.waitOnce.Do(func() {
		_ = d.cmd.Wait()
		d.logFile.Close()
		close(d.exited)
	})
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill sends SIGKILL and waits until the process has been reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// ready polls path until the daemon answers 200, it exits, or the
// deadline passes. On failure the error carries the tail of the log.
func (d *daemon) ready(path string, within time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(within)
	for {
		resp, err := client.Get(d.url + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("bench: %s exited before serving %s\n%s", d.name, path, d.logTail(20))
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s not serving %s after %v\n%s", d.name, path, within, d.logTail(20))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// logTail returns the last n lines of the daemon's log.
func (d *daemon) logTail(n int) string {
	raw, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return fmt.Sprintf("--- %s log tail ---\n%s", d.name, bytes.Join(lines, []byte("\n")))
}

// coordinator starts cmd/coordinator on addr over walDir with every
// shipped default left alone; extra carries the replication flags.
func (s *sandbox) coordinator(name, addr, walDir string, extra ...string) (*daemon, error) {
	args := append([]string{"-listen", addr, "-wal-dir", walDir}, extra...)
	d, err := s.start(name, "coordinator", addr, args...)
	if err != nil {
		return nil, err
	}
	// /v1/metrics is served by leader and standby alike and takes no
	// part in any workload's measurements before they start.
	return d, d.ready("/v1/metrics", 15*time.Second)
}

// aggregator starts cmd/aggregator in front of upstream.
func (s *sandbox) aggregator(name, addr, upstream string, flush time.Duration) (*daemon, error) {
	d, err := s.start(name, "aggregator", addr,
		"-listen", addr, "-upstream", upstream, "-id", name, "-flush", flush.String())
	if err != nil {
		return nil, err
	}
	return d, d.ready("/v1/stats", 15*time.Second)
}
