// Command mctop is a live terminal dashboard for an mcqueue service: top
// for the photon fleet. It polls the HTTP API — GET /fleet for per-worker
// telemetry profiles, GET /stats for queue health, GET /metrics for the
// service-plane counters — and repaints a flicker-free ANSI view each
// interval: fleet-wide photons/sec (counter deltas), job and chunk queue
// depths, one row per connected worker contrasting the rate the worker
// reports against the rate the server infers from ack timing, and — when
// the server runs per-tenant admission control — a tenant rollup with
// live token-bucket levels.
//
// Example:
//
//	mctop -addr http://localhost:8080 -interval 1s
//
// -once prints a single plain-text snapshot and exits — for scripts,
// smoke tests and terminals without ANSI. mctop needs nothing beyond the
// standard library and the service's response types, and never talks to
// workers directly; everything it shows rides the same introspection
// surface any curl user gets.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// sample is one poll of the service's introspection surface.
type sample struct {
	at      time.Time
	fleet   service.FleetBody
	stats   service.Stats
	metrics map[string]float64
	version string // server build, from mc_build_info's version label
	err     error
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "mcqueue HTTP API base URL")
	interval := flag.Duration("interval", time.Second, "poll and repaint interval")
	once := flag.Bool("once", false, "print one plain-text snapshot and exit")
	flag.Parse()

	base := strings.TrimSuffix(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}

	if *once {
		s := poll(client, base)
		if s.err != nil {
			fmt.Fprintln(os.Stderr, "mctop:", s.err)
			os.Exit(1)
		}
		os.Stdout.WriteString(render(s, sample{}, false))
		return
	}

	// Flicker-free repaint: hide the cursor, clear once, then home the
	// cursor each frame and erase to end-of-line per line (plus erase-below
	// at the end) instead of clearing the whole screen — a full clear every
	// frame is exactly what makes naive dashboards strobe.
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprint(out, "\x1b[?25l\x1b[2J")
	out.Flush()
	restore := func() {
		fmt.Fprint(os.Stdout, "\x1b[?25h\x1b[0m\n")
	}
	defer restore()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var prev sample
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		cur := poll(client, base)
		frame := render(cur, prev, true)
		fmt.Fprint(out, "\x1b[H", frame, "\x1b[J")
		out.Flush()
		if cur.err == nil {
			prev = cur
		}
		select {
		case <-sig:
			restore()
			os.Exit(0)
		case <-tick.C:
		}
	}
}

// poll fetches one snapshot; a failed endpoint poisons the sample with an
// error the dashboard shows in place of stale numbers.
func poll(client *http.Client, base string) sample {
	s := sample{at: time.Now(), metrics: map[string]float64{}}
	if s.err = getJSON(client, base+"/fleet", &s.fleet); s.err != nil {
		return s
	}
	if s.err = getJSON(client, base+"/stats", &s.stats); s.err != nil {
		return s
	}
	s.metrics, s.version, s.err = getMetrics(client, base+"/metrics")
	return s
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// getMetrics parses the Prometheus text exposition into a name→value map
// (unlabelled series only, which covers every counter the dashboard
// reads) and extracts the server's build version from mc_build_info.
func getMetrics(client *http.Client, url string) (map[string]float64, string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	m := map[string]float64{}
	version := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if base, labels, lab := strings.Cut(name, "{"); lab {
			if base == "mc_build_info" {
				version = labelValue(labels, "version")
			}
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			m[name] = v
		}
	}
	return m, version, sc.Err()
}

// labelValue pulls one label's value out of a `k="v",k2="v2"}` tail.
func labelValue(labels, key string) string {
	for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
		k, v, ok := strings.Cut(kv, "=")
		if ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// render lays out one frame. In ANSI mode every line ends with
// erase-to-EOL so a shorter line fully overwrites its predecessor.
func render(cur, prev sample, ansi bool) string {
	eol := "\n"
	if ansi {
		eol = "\x1b[K\n"
	}
	var b strings.Builder
	line := func(format string, args ...any) {
		fmt.Fprintf(&b, format, args...)
		b.WriteString(eol)
	}

	if cur.err != nil {
		line("mctop  %s", cur.at.Format("15:04:05"))
		line("")
		line("  unreachable: %v", cur.err)
		return b.String()
	}

	// Fleet-wide photons/sec from the reduced-photon counter delta between
	// the last two polls — the server-truth rate, independent of what any
	// worker claims about itself.
	rate := 0.0
	if !prev.at.IsZero() {
		if dt := cur.at.Sub(prev.at).Seconds(); dt > 0 {
			d := cur.metrics["service_photons_reduced_total"] - prev.metrics["service_photons_reduced_total"]
			if d > 0 {
				rate = d / dt
			}
		}
	}

	ver := cur.version
	if ver != "" {
		ver = "  build " + ver
	}
	up := ""
	if u := cur.metrics["process_uptime_seconds"]; u > 0 {
		up = "  up " + (time.Duration(u) * time.Second).String()
	}
	line("mctop  %s%s%s  policy %s", cur.at.Format("15:04:05"), up, ver, cur.stats.Policy)
	line("jobs   %d queued  %d running  %d done  %d canceled",
		cur.stats.JobsQueued, cur.stats.JobsRunning, cur.stats.JobsDone, cur.stats.JobsCanceled)
	line("chunks %d pending  %d outstanding  %s photons reduced  %s photons/s",
		cur.stats.PendingChunks, cur.stats.OutstandingChunks,
		humanCount(float64(cur.stats.PhotonsCompleted)), humanCount(rate))
	line("")

	ws := cur.fleet.Workers
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
	line("%-4s %-14s %-12s %-9s %10s %10s %7s %5s %6s %8s %s",
		"ID", "WORKER", "REMOTE", "STATE", "REP-PPS", "INF-PPS", "CHUNKS", "HELD", "GORO", "HEAP", "SEEN")
	if len(ws) == 0 {
		line("  (no workers connected)")
	}
	for _, w := range ws {
		seen := time.Since(w.LastSeen).Round(time.Second)
		if seen < 0 {
			seen = 0
		}
		line("%-4d %-14s %-12s %-9s %10s %10s %7d %5d %6d %8s %s ago",
			w.ID, clip(w.Name, 14), clip(w.Remote, 12), w.State,
			humanCount(w.ReportedPhotonsPerSec), humanCount(w.InferredPhotonsPerSec),
			w.ChunksCompleted, w.ChunksHeld, w.Goroutines, humanBytes(w.HeapBytes), seen)
	}

	// Per-tenant admission rollup — only drawn once the server reports
	// tenants, so a pre-tenancy server renders exactly the classic frame.
	if ts := cur.fleet.Tenants; len(ts) > 0 {
		line("")
		line("%-14s %6s %6s %9s %6s %10s %9s %9s",
			"TENANT", "WEIGHT", "ACTIVE", "SUBMITTED", "SHED", "PHOTONS", "JOB-TOK", "PHOT-TOK")
		for _, t := range ts {
			line("%-14s %6.1f %6d %9d %6d %10s %9s %9s",
				clip(t.Name, 14), t.Weight, t.ActiveJobs, t.Submitted, t.Shed,
				humanCount(float64(t.Photons)), tokens(t.JobTokens), tokens(t.PhotonTokens))
		}
	}
	return b.String()
}

// tokens renders a bucket level; "∞" when the admission policy keeps no
// bucket for the dimension (nil in the JSON).
func tokens(v *float64) string {
	switch {
	case v == nil:
		return "∞"
	case *v == 0: // a drained bucket is news, not absence
		return "0"
	default:
		return humanCount(*v)
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// humanCount renders a rate or count with k/M/G suffixes; "-" for zero so
// a worker that has not reported yet reads as absent, not as slow.
func humanCount(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func humanBytes(v uint64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.0fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}
