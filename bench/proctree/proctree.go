// Package proctree builds the daemons and runs the process tree the
// benchmark measures: mcgate over two mcqueue shards, one mcworker per
// shard, on free loopback ports, each daemon logging to its own file in a
// per-run directory. It also reads what can be read of the tree from
// outside: /metrics of every daemon and CPU and memory from /proc.
package proctree

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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

// Build compiles the daemons from the repository at root into binDir and
// returns how long that took. The go command's own cache makes a second
// build of an unchanged tree a matter of a second.
func Build(ctx context.Context, root, binDir string) (time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(os.PathSeparator),
		"./cmd/mcgate", "./cmd/mcqueue", "./cmd/mcworker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build of the daemons in %s: %w\n%s", root, err, out)
	}
	return time.Since(start), nil
}

// Config describes one tree.
type Config struct {
	BinDir string
	// RunDir receives logs, journals and checkpoints; the caller owns it.
	RunDir      string
	Shards      int
	GateFlags   []string
	QueueFlags  []string
	WorkerFlags []string
	// TenantsJSON, when set, is written to RunDir and handed to mcgate
	// with -tenants.
	TenantsJSON []byte
}

// proc is one running daemon.
type proc struct {
	Role string // mcgate, mcqueue or mcworker
	Name string // role plus shard index
	cmd  *exec.Cmd
	log  string
	// Metrics is the base URL serving /metrics.
	Metrics string
	done    chan struct{}
}

// Tree is a running process tree.
type Tree struct {
	Gateway string   // base URL of mcgate
	shards  []string // base URLs of the shards' HTTP APIs
	procs   []*proc
	client  *http.Client
}

// freePorts asks the kernel for n unused loopback ports. All n listeners
// are held until every port is known — a port given back early could be
// handed out again for the next request, before the daemon meant to have
// it has bound it — and closed together just before the daemons start. A
// race with an unrelated process remains possible; Start then fails with
// that daemon's log.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

func (t *Tree) spawn(cfg *Config, role, name, metrics string, args ...string) error {
	logPath := filepath.Join(cfg.RunDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(cfg.BinDir, role), args...)
	cmd.Dir = cfg.RunDir
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group: Stop signals the group, so nothing a daemon might
	// fork outlives it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{Role: role, Name: name, cmd: cmd, log: logPath, Metrics: metrics, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	t.procs = append(t.procs, p)
	return nil
}

// Start boots the tree and returns once the gateway reports ready and
// lists one worker per shard. On any failure everything started so far is
// stopped and the error carries the daemons' log tails.
func Start(ctx context.Context, cfg Config) (*Tree, error) {
	t := &Tree{client: &http.Client{Timeout: 5 * time.Second}}
	fail := func(err error) (*Tree, error) {
		tails := t.LogTails(15)
		t.Stop()
		return nil, fmt.Errorf("%w\n%s", err, tails)
	}
	gateFlags := append([]string(nil), cfg.GateFlags...)
	if cfg.TenantsJSON != nil {
		path := filepath.Join(cfg.RunDir, "tenants.json")
		if err := os.WriteFile(path, cfg.TenantsJSON, 0o644); err != nil {
			return nil, err
		}
		gateFlags = append(gateFlags, "-tenants", path)
	}

	// Per shard a fleet port, an HTTP port and its worker's debug port;
	// one more for the gateway.
	ports, err := freePorts(3*cfg.Shards + 1)
	if err != nil {
		return nil, err
	}
	fleet, debug, g := ports[:cfg.Shards], ports[cfg.Shards:2*cfg.Shards], ports[3*cfg.Shards]
	for i := 0; i < cfg.Shards; i++ {
		f, h := fleet[i], ports[2*cfg.Shards+i]
		t.shards = append(t.shards, "http://"+h)
		name := fmt.Sprintf("mcqueue%d", i)
		args := append([]string{
			"-addr", f, "-http", h,
			"-wal-dir", filepath.Join(cfg.RunDir, name+"-wal"), "-wal-fsync", "interval",
			"-checkpoint-dir", filepath.Join(cfg.RunDir, name+"-ckpt"),
		}, cfg.QueueFlags...)
		if err := t.spawn(&cfg, "mcqueue", name, "http://"+h, args...); err != nil {
			return fail(err)
		}
	}
	// Workers dial under exponential backoff, so they start only once
	// their shard listens: a first dial that fails would add a random
	// fraction of a second to the set-up time.
	for _, base := range t.shards {
		if err := t.waitOK(ctx, base+"/readyz"); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		name := fmt.Sprintf("mcworker%d", i)
		args := append([]string{"-addr", fleet[i], "-name", name, "-debug-addr", debug[i]}, cfg.WorkerFlags...)
		if err := t.spawn(&cfg, "mcworker", name, "http://"+debug[i], args...); err != nil {
			return fail(err)
		}
	}
	t.Gateway = "http://" + g
	args := []string{"-http", g}
	for _, h := range t.shards {
		args = append(args, "-shard", h)
	}
	if err := t.spawn(&cfg, "mcgate", "mcgate", t.Gateway, append(args, gateFlags...)...); err != nil {
		return fail(err)
	}
	if err := t.waitOK(ctx, t.Gateway+"/readyz"); err != nil {
		return fail(err)
	}
	if err := t.waitWorkers(ctx, cfg.Shards); err != nil {
		return fail(err)
	}
	return t, nil
}

// waitOK polls url until it answers 200, a daemon dies, or ctx ends.
func (t *Tree) waitOK(ctx context.Context, url string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := t.client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p := t.dead(); p != nil {
			return fmt.Errorf("%s exited while waiting for %s", p.Name, url)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout waiting for %s (last error: %v)", url, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (t *Tree) waitWorkers(ctx context.Context, n int) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		var fleet struct {
			Workers []json.RawMessage `json:"workers"`
		}
		if err := t.getJSON(t.Gateway+"/fleet", &fleet); err == nil && len(fleet.Workers) >= n {
			return nil
		}
		if p := t.dead(); p != nil {
			return fmt.Errorf("%s exited while waiting for the workers", p.Name)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout: gateway /fleet lists %d of %d workers", len(fleet.Workers), n)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// getJSON fetches url and decodes its JSON body into v.
func (t *Tree) getJSON(url string, v any) error {
	resp, err := t.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (t *Tree) dead() *proc {
	for _, p := range t.procs {
		select {
		case <-p.done:
			return p
		default:
		}
	}
	return nil
}

// Dead names a daemon that has exited, or returns "".
func (t *Tree) Dead() string {
	if p := t.dead(); p != nil {
		return p.Name
	}
	return ""
}

// Stop kills every daemon's process group and waits until each has ended.
// The tree holds nothing worth a graceful drain: its journals live in a
// directory the caller deletes.
func (t *Tree) Stop() {
	if t == nil {
		return
	}
	for _, p := range t.procs {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	}
	for _, p := range t.procs {
		<-p.done
	}
}

// LogTails returns the last n lines of every daemon's log.
func (t *Tree) LogTails(n int) string {
	var b strings.Builder
	for _, p := range t.procs {
		data, err := os.ReadFile(p.log)
		if err != nil {
			continue
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) > n {
			lines = lines[len(lines)-n:]
		}
		fmt.Fprintf(&b, "--- %s ---\n%s\n", p.Name, strings.Join(lines, "\n"))
	}
	return b.String()
}

// Usage is what /proc says of one role, summed over its instances.
type Usage struct {
	CPU   float64 // utime+stime, seconds
	RSSMB float64 // peak resident set, MiB
}

// Usage reads CPU time and peak memory of every live daemon, by role.
func (t *Tree) Usage() (map[string]Usage, error) {
	out := make(map[string]Usage)
	for _, p := range t.procs {
		cpu, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		rss, err := procPeakRSS(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		u := out[p.Role]
		u.CPU += cpu
		u.RSSMB += rss
		out[p.Role] = u
	}
	return out, nil
}

// clockTick is USER_HZ, which Linux fixes at 100 for every architecture Go
// supports.
const clockTick = 100

// procCPU returns utime+stime of pid in seconds.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return (utime + stime) / clockTick, nil
}

// SelfCPU returns utime+stime of this process in seconds.
func SelfCPU() (float64, error) { return procCPU(os.Getpid()) }

// procPeakRSS returns VmHWM of pid in MiB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %d", pid)
}

// Scrape maps every series of every daemon's /metrics to its value. Keys
// are "role:series", as in `mcqueue:wal_appends_total`, with the series'
// labels kept verbatim; instances of a role are summed.
type Scrape map[string]float64

// Scrape reads /metrics of every daemon.
func (t *Tree) Scrape() (Scrape, error) {
	out := make(Scrape)
	for _, p := range t.procs {
		resp, err := t.client.Get(p.Metrics + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", p.Name, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
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
			out[p.Role+":"+line[:i]] += v
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("scrape %s: %w", p.Name, err)
		}
	}
	return out, nil
}

// Sub returns s minus before, series by series.
func (s Scrape) Sub(before Scrape) Scrape {
	out := make(Scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// Sum adds every series whose key starts with prefix: a whole labelled
// family, as in Sum("mcqueue:service_jobs_shed_total").
func (s Scrape) Sum(prefix string) float64 {
	total := 0.0
	for k, v := range s {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			total += v
		}
	}
	return total
}
