package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"viewmat/internal/client"
)

// --- exit-path hygiene ------------------------------------------------------

// cleanups run, last registered first, on every way out of the process:
// normal return, fatal error, SIGINT/SIGTERM. They kill the child and
// remove the run directory.
var cleanups struct {
	mu   sync.Mutex
	fns  []func()
	done bool // the cleanups have run; a late registration runs at once
}

func onExit(fn func()) {
	cleanups.mu.Lock()
	late := cleanups.done
	if !late {
		cleanups.fns = append(cleanups.fns, fn)
	}
	cleanups.mu.Unlock()
	if late {
		// A signal arrived while the main goroutine was still starting
		// something: do not leave it behind.
		fn()
	}
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns, cleanups.done = nil, true
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// cleanupOnSignal makes SIGINT and SIGTERM run the cleanups before the
// process dies.
func cleanupOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "bench: caught %v, cleaning up\n", sig)
		runCleanups()
		os.Exit(130)
	}()
}

// --- locating and building the program --------------------------------------

// repoRoot walks up from the working directory to the directory that
// holds cmd/viewmatd — the program under test.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "viewmatd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/viewmatd not found above the working directory: the benchmark must run inside the repository")
		}
		dir = parent
	}
}

// outDir is bench/out under root: build outputs, run directories,
// trace files and captured server logs. Nothing is written elsewhere.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// buildServer compiles cmd/viewmatd from source into bench/out and
// returns the binary's path and the build's wall time.
func buildServer(root string) (string, time.Duration, error) {
	bin := filepath.Join(outDir(root), "viewmatd")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/viewmatd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/viewmatd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// --- the child process -------------------------------------------------------

// child is one running viewmatd.
type child struct {
	cmd  *exec.Cmd
	addr string
	log  *bytes.Buffer
	done chan struct{} // closed when the process has been waited for
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer lis.Close()
	return lis.Addr().String(), nil
}

// startServer spawns viewmatd on walDir and waits until it answers a
// ping. The port is picked free and then bound by the child, so another
// process can take it in between; that start fails fast and is retried
// on a fresh port.
func startServer(bin, walDir string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		ch := &child{addr: addr, log: &bytes.Buffer{}, done: make(chan struct{})}
		ch.cmd = exec.Command(bin,
			"-addr", addr, "-wal", walDir,
			"-pool-frames", strconv.Itoa(poolFrames),
			"-page-size", strconv.Itoa(pageSize),
			"-checkpoint-every", strconv.Itoa(checkpointEvery))
		ch.cmd.Stdout = ch.log
		ch.cmd.Stderr = ch.log
		if err := ch.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting viewmatd: %w", err)
		}
		go func() {
			_ = ch.cmd.Wait() // the exit status of a killed child is not news
			close(ch.done)
		}()
		onExit(ch.kill)
		if err := ch.awaitReady(30 * time.Second); err != nil {
			ch.kill()
			lastErr = fmt.Errorf("%w\n--- viewmatd output ---\n%s", err, ch.log.String())
			continue
		}
		return ch, nil
	}
	return nil, lastErr
}

// awaitReady polls until the server answers a ping, the process dies or
// the deadline passes.
func (ch *child) awaitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-ch.done:
			return errors.New("viewmatd exited before serving")
		default:
		}
		if c, err := client.DialOptions(ch.addr, client.Options{Timeout: time.Second}); err == nil {
			err = c.Ping()
			c.Close()
			if err == nil {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("viewmatd did not answer a ping in time")
}

// kill SIGKILLs the child — the crash path — and waits for it to be
// gone. Safe to call more than once.
func (ch *child) kill() {
	_ = ch.cmd.Process.Kill() // already-exited is fine
	<-ch.done
}

func (ch *child) pid() int { return ch.cmd.Process.Pid }

// --- /proc readers -------------------------------------------------------------

// procIO is the part of /proc/<pid>/io the benchmark reads.
type procIO struct {
	rchar, wchar int64 // bytes through read/write syscalls, sockets included
	writeBytes   int64 // bytes this process caused to be sent to storage
}

func readProcIO(pid string) (procIO, error) {
	var io procIO
	data, err := os.ReadFile("/proc/" + pid + "/io")
	if err != nil {
		return io, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(val, 10, 64)
		switch name {
		case "rchar":
			io.rchar = n
		case "wchar":
			io.wchar = n
		case "write_bytes":
			io.writeBytes = n
		}
	}
	return io, nil
}

// clockTick is USER_HZ, which Linux fixes at 100 on every architecture
// Go supports.
const clockTick = 10 * time.Millisecond

// readProcCPU returns the user and system CPU time a process has used.
func readProcCPU(pid int) (user, sys time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64) // field 14: utime
	st, _ := strconv.ParseInt(f[12], 10, 64) // field 15: stime
	return time.Duration(ut) * clockTick, time.Duration(st) * clockTick, nil
}

// readPeakRSSMB returns a process's VmHWM in MB.
func readPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if val, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 64)
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
