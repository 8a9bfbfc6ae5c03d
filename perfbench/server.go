package main

import (
	"bufio"
	"context"
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

// server is a `pubopt serve` child process on a loopback port, started with
// the default flags (cache bound 2048, workers = GOMAXPROCS).
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer launches the server and waits until /healthz answers.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	// If the benchmark dies, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// The server logs one line per cold solve at the default level;
		// read everything so it never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "msg=listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						addr <- a
					}
				}
			}
		}
		io.Copy(io.Discard, stderr)
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case err := <-s.done:
		return nil, fmt.Errorf("server exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("server did not report its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server not healthy within 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("server did not drain within 20s; killed")
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// procStatus reads a "Name: value kB" field of /proc/<pid>/status in MiB.
func (s *server) procStatusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// cpuSeconds is the server's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100, nil // USER_HZ is 100 on Linux
}

// scrape reads /metrics into series → value.
func scrape(ctx context.Context, hc *http.Client, base string) (promSample, error) {
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/metrics", nil)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(b)), nil
}

// promSample maps a Prometheus series (name plus labels, as printed) to
// its value.
type promSample map[string]float64

func parseProm(text string) promSample {
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// workCounters are the deterministic work counts read from /metrics.
var workCounters = []string{
	"pubopt_solver_solves_total",
	"pubopt_solver_constrained_total",
	"pubopt_solver_evals_total",
	"pubopt_solver_warm_brackets_total",
	"pubopt_solver_cold_brackets_total",
	"pubopt_solver_bisections_total",
	"pubopt_solver_cycle_restarts_total",
	"pubopt_sim_ticks_total",
	"pubopt_refine_points_solved_total",
	"pubopt_refine_points_reused_total",
	"pubopt_refine_probe_solves_total",
	"pubopt_refine_cells_split_total",
	"pubopt_refine_cells_interpolated_total",
	"pubopt_refine_cells_verified_total",
	"pubopt_cache_hits_total",
	"pubopt_cache_misses_total",
	"pubopt_cache_coalesced_total",
	"pubopt_cache_evictions_total",
}

// delta returns after − before for each work counter.
func delta(before, after promSample) map[string]float64 {
	out := make(map[string]float64, len(workCounters))
	for _, k := range workCounters {
		out[k] = after[k] - before[k]
	}
	return out
}
