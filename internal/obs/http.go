package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Readiness is a set of named readiness conditions; the /readyz probe is
// ready only when every condition has been set true. Conditions start
// false, so a daemon is unready until each startup stage (listener bound,
// journal replayed, session established) reports in.
type Readiness struct {
	mu    sync.Mutex
	conds map[string]bool
}

// NewReadiness returns a probe with the given conditions, all unready.
func NewReadiness(conds ...string) *Readiness {
	r := &Readiness{conds: make(map[string]bool, len(conds))}
	for _, c := range conds {
		r.conds[c] = false
	}
	return r
}

// Set marks one condition ready or unready (unknown names are added — a
// late subsystem can register itself by its first Set).
func (r *Readiness) Set(name string, ok bool) {
	r.mu.Lock()
	r.conds[name] = ok
	r.mu.Unlock()
}

// Ready reports overall readiness and the names of unready conditions.
func (r *Readiness) Ready() (bool, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var waiting []string
	for name, ok := range r.conds {
		if !ok {
			waiting = append(waiting, name)
		}
	}
	sort.Strings(waiting)
	return len(waiting) == 0, waiting
}

// Handler returns the GET /readyz endpoint: 200 "ok" when ready, 503
// listing the unready conditions otherwise.
func (r *Readiness) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		ok, waiting := r.Ready()
		if ok {
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		for _, name := range waiting {
			fmt.Fprintf(w, "waiting: %s\n", name)
		}
	})
}

// HealthHandler returns the GET /healthz liveness endpoint: 200 "ok"
// whenever the process can serve HTTP at all.
func HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
}

// RegisterDebug mounts the shared debug surface on mux: GET /metrics
// (text exposition of reg), GET /healthz, GET /readyz (ready), and the
// net/http/pprof profiling endpoints under /debug/pprof/. A nil ready
// makes /readyz track liveness only.
//
// It also registers the process-identity series every daemon shares:
// mc_build_info{version,goversion} (constant 1, version from the
// link-time Version stamp) and process_uptime_seconds (seconds since this
// RegisterDebug call — daemons mount their debug surface at startup, so
// that is process start for practical purposes).
func RegisterDebug(mux *http.ServeMux, reg *Registry, ready *Readiness) {
	reg.GaugeVec("mc_build_info",
		"Build identity; constant 1 with version and Go toolchain labels.",
		"version", "goversion").With(Version, runtime.Version()).Set(1)
	start := time.Now()
	reg.GaugeFunc("process_uptime_seconds",
		"Seconds since the process mounted its debug surface.",
		func() float64 { return time.Since(start).Seconds() })
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /healthz", HealthHandler())
	if ready != nil {
		mux.Handle("GET /readyz", ready.Handler())
	} else {
		mux.Handle("GET /readyz", HealthHandler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
