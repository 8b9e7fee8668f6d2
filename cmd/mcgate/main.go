// Command mcgate is the stateless gateway over a sharded control plane:
// N mcqueue shards, each owning a contiguous slice of the key space,
// behind one HTTP endpoint that speaks the exact same job API.
// Clients cannot tell it from a single mcqueue — POST /jobs routes by
// the submission's routing key (service.RouteKey: the physics key of a
// moments-tracking spec, the content key of any other), GET/DELETE
// /jobs/{id}... routes by the ID (an ID's shard bits are that key's, so no
// table is needed), and /stats, /fleet, /tenants and GET /jobs fan out and
// merge.
//
// Each -shard flag names one shard as a comma-separated replica list:
// the primary first, then any lease-file standbys sharing its -wal-dir.
// The gateway fails a request over on connection errors and 503s — never
// on 4xx — so a kill -9'd primary is invisible to clients once its
// standby has replayed the journal and taken the lease:
//
//	mcqueue -addr :9876 -http :8081 -wal-dir s0 -lease-file s0.lease
//	mcqueue -addr :9877 -http :8082 -wal-dir s1 -lease-file s1.lease   # primary
//	mcqueue -addr :9878 -http :8083 -wal-dir s1 -lease-file s1.lease   # standby (blocks)
//	mcworker -addr localhost:9876
//	mcworker -addr localhost:9877,localhost:9878
//	mcgate -http :8080 -shard http://localhost:8081 -shard http://localhost:8082,http://localhost:8083
//
// The gateway holds no results: a resubmission, or a looser precision
// target over physics any shard ran, is routed to the shard that ran it
// and answered from that shard's cache — a job born done there, nothing
// run.
//
// -tenants moves admission control to the gateway (the only place that
// sees every shard's arrival stream): the named token buckets run here,
// sheds are 429 + Retry-After, and the shards behind it should run
// without -tenants so tenants are not charged twice. GET /tenants then
// reports the gateway's authoritative bucket levels over the merged
// per-shard accounting.
//
// The debug surface (GET /metrics with gateway_* counters, /healthz,
// /readyz with one condition per shard, pprof) multiplexes on -http or
// moves to -debug-addr. /readyz goes ready when every shard answers its
// probe; a shard mid-failover flips its condition false and back.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/service"
)

// shardList collects repeated -shard flags, each a comma-separated
// replica list for one shard.
type shardList [][]string

func (s *shardList) String() string { return fmt.Sprintf("%v", [][]string(*s)) }

func (s *shardList) Set(v string) error {
	var replicas []string
	for _, r := range strings.Split(v, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		if !strings.HasPrefix(r, "http://") && !strings.HasPrefix(r, "https://") {
			r = "http://" + r
		}
		replicas = append(replicas, r)
	}
	if len(replicas) == 0 {
		return fmt.Errorf("empty shard replica list %q", v)
	}
	*s = append(*s, replicas)
	return nil
}

func main() {
	fs := flag.NewFlagSet("mcgate", flag.ExitOnError)
	httpAddr := fs.String("http", ":8080", "HTTP API listen address")
	debugAddr := fs.String("debug-addr", "",
		"separate listener for /metrics, /healthz, /readyz and /debug/pprof (empty: multiplexed on -http)")
	var shards shardList
	fs.Var(&shards, "shard",
		"one shard's replica base URLs, comma-separated, primary first (repeat per shard; order fixes the key ranges)")
	tenantsFile := fs.String("tenants", "",
		"JSON tenant table: run token-bucket admission at the gateway (shards should then run without -tenants)")
	// Parsed and ignored: bench/ still passes -cache to mcgate. Delete the
	// flag together with that caller.
	fs.Int("cache", 0, "ignored (the gateway holds no results; each shard's -cache sizes its own)")
	maxTarget := fs.Int64("target-max-photons", 0,
		"precision-target photon cap; must match the shards' flag (it participates in the routing key)")
	maxBody := fs.Int64("max-body-bytes", 0,
		"POST /jobs body size cap, 413 beyond it (0: 32 MiB default, negative: unbounded)")
	probeEvery := fs.Duration("probe-interval", 2*time.Second,
		"how often the readiness probe checks each shard")
	var lf cli.LogFlags
	lf.Register(fs)
	fs.Parse(os.Args[1:])

	logger, err := lf.Build(os.Stderr)
	if err != nil {
		fatal(err)
	}
	if len(shards) == 0 {
		fatal(fmt.Errorf("at least one -shard is required"))
	}
	var admission service.AdmissionPolicy
	if *tenantsFile != "" {
		table, err := service.LoadTenantTable(*tenantsFile)
		if err != nil {
			fatal(err)
		}
		admission = service.NewTokenBucket(table, nil)
	}

	oreg := obs.NewRegistry()
	gw, err := gateway.New(gateway.Options{
		Shards:           shards,
		Admission:        admission,
		MaxTargetPhotons: *maxTarget,
		MaxBodyBytes:     *maxBody,
		Obs:              oreg,
		Logger:           logger,
	})
	if err != nil {
		fatal(err)
	}
	ready := obs.NewReadiness(gw.ShardConds()...)
	gw.Probe(ready)
	go func() {
		for range time.Tick(*probeEvery) {
			gw.Probe(ready)
		}
	}()

	hl, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal(err)
	}
	mux := http.NewServeMux()
	gw.Register(mux)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	debugSrv, err := cli.ServeDebug(mux, *debugAddr, oreg, ready, logger)
	if err != nil {
		fatal(err)
	}
	logger.Info("mcgate up", "http", hl.Addr().String(), "shards", gw.Shards())

	// The gateway holds no durable state, so shutdown is only an HTTP
	// drain: in-flight proxied requests finish, then the process exits.
	drained := cli.DrainOnSignal(logger, srv, debugSrv)
	if err := srv.Serve(hl); err != http.ErrServerClosed {
		fatal(err)
	}
	<-drained
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcgate:", err)
	os.Exit(1)
}
