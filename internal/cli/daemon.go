package cli

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
)

// ServeDebug mounts the debug surface — /metrics, /healthz, /readyz and
// /debug/pprof — where a daemon's -debug-addr says: on its own listener at
// addr, returning that server for whoever drains it, or with addr empty on
// apiMux, the daemon's API listener (nil: nowhere).
func ServeDebug(apiMux *http.ServeMux, addr string, reg *obs.Registry, ready *obs.Readiness, logger *slog.Logger) (*http.Server, error) {
	if addr == "" {
		if apiMux != nil {
			obs.RegisterDebug(apiMux, reg, ready)
		}
		return nil, nil
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	obs.RegisterDebug(mux, reg, ready)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(l)
	logger.Info("debug listener up", "addr", l.Addr().String())
	return srv, nil
}

// DrainOnSignal waits in the background for SIGINT or SIGTERM, then shuts
// the given servers down (nil entries skipped), five seconds for requests
// in flight, and closes the returned channel. Serve returns the instant
// Shutdown begins, so work that must follow the drain waits on the channel.
func DrainOnSignal(logger *slog.Logger, servers ...*http.Server) <-chan struct{} {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		s := <-sig
		logger.Info("shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, srv := range servers {
			if srv != nil {
				srv.Shutdown(ctx)
			}
		}
		close(drained)
	}()
	return drained
}
