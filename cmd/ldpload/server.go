package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module ldprecover.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module ldprecover\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing ldprecover module: run from the repository root")
		}
		dir = parent
	}
}

// buildServer compiles cmd/ldprecover from the tree at root into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "ldprecover")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ldprecover")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/ldprecover: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one spawned `ldprecover serve` process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	log  *os.File
}

// addrWriter receives the server's stdout, copies it to the log and
// hands over the base URL from the "... on http://host:port" line.
type addrWriter struct {
	log  io.Writer
	buf  []byte
	addr chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if j := strings.Index(line, " on http://"); j >= 0 && w.addr != nil {
			w.addr <- strings.Fields(line[j+len(" on "):])[0]
			w.addr = nil
		}
	}
	return w.log.Write(p)
}

// startServer spawns `serve` on a loopback port with the driver issuing
// every seal (-epoch 0) and waits for the first 200 from /v1/stats. The
// server logs to, and keeps its temporary files in, workDir. It returns
// the server and the set-up time: spawn to that first 200, including any
// WAL replay.
func startServer(c *client, bin, workDir string, args []string) (*server, time.Duration, error) {
	logPath := filepath.Join(workDir, "serve.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	argv := append([]string{"serve", "-addr", "127.0.0.1:0", "-epoch", "0"}, args...)
	cmd := exec.Command(bin, argv...)
	addr := make(chan string, 1)
	cmd.Stdout = &addrWriter{log: logf, addr: addr}
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), "TMPDIR="+workDir)
	// The server dies with the driver, whatever ends the driver.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server is expected
		close(s.done)
	}()
	select {
	case s.base = <-addr:
	case <-s.done:
		s.stop()
		return nil, 0, fmt.Errorf("serve exited before listening; see %s", logPath)
	}
	for {
		code, _, err := c.do(http.MethodGet, s.base+"/v1/stats", nil)
		if err == nil && code == http.StatusOK {
			return s, since(start), nil
		}
		if since(start) > time.Minute {
			s.stop()
			return nil, 0, fmt.Errorf("serve never answered /v1/stats (last status %d, %v)", code, err)
		}
		sleep(100 * time.Microsecond) // a cold boot takes a few ms: poll finely enough to resolve it
	}
}

// stop SIGKILLs the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.done
	s.log.Close()
}

// syncFiles fsyncs every regular file under dir.
func syncFiles(dir string) error {
	return filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		return errors.Join(f.Sync(), f.Close())
	})
}

// pid returns the server's process id.
func (s *server) pid() int { return s.cmd.Process.Pid }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 10 * time.Millisecond

// procCPU returns the process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procRSS returns the process's resident set (VmRSS) in MB.
func procRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// client is the driver's HTTP client: one transport, at most two
// connections to the server.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}}
}

// do sends one request and returns the status and the whole body.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// statsDoc is the part of /v1/stats the driver reads.
type statsDoc struct {
	Epochs        int   `json:"epochs"`
	IngestedTotal int64 `json:"ingested_total"`
	QueueDepth    int   `json:"queue_depth"`
	BufPoolHits   int64 `json:"buf_pool_hits"`
	BufPoolMisses int64 `json:"buf_pool_misses"`
}

// estimateDoc is the JSON shape of a window estimate (seal and estimate
// responses).
type estimateDoc struct {
	Seq              int       `json:"seq"`
	Epochs           int       `json:"epochs"`
	Total            int64     `json:"total"`
	Poisoned         []float64 `json:"poisoned"`
	Recovered        []float64 `json:"recovered"`
	Targets          []int     `json:"targets"`
	PartialKnowledge bool      `json:"partial_knowledge"`
}

// getJSON GETs url and decodes a 200 body into v.
func (c *client) getJSON(url string, v any) error {
	code, b, err := c.do(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, code, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}
