// The fleet-introspection end-to-end test lives in an external test
// package because it drives the real production worker (distsys.Work)
// against a service Registry, and distsys imports service's sibling
// packages from above it in the import graph.
package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/distsys"
	"repro/internal/mc"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/source"
	"repro/internal/tissue"
)

type fleetRow struct {
	Name                  string  `json:"name"`
	State                 string  `json:"state"`
	ChunksCompleted       int     `json:"chunksCompleted"`
	ReportedPhotonsPerSec float64 `json:"reportedPhotonsPerSec"`
	InferredPhotonsPerSec float64 `json:"inferredPhotonsPerSec"`
	ChunkSeconds          float64 `json:"chunkSeconds"`
	Version               string  `json:"version"`
}

type spanRow struct {
	Chunk          int     `json:"chunk"`
	Worker         string  `json:"worker"`
	QueueSeconds   float64 `json:"queueSeconds"`
	WireSeconds    float64 `json:"wireSeconds"`
	ComputeSeconds float64 `json:"computeSeconds"`
	ReduceSeconds  float64 `json:"reduceSeconds"`
}

func decodeInto(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: http %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestFleetIntrospectionEndToEnd is the PR acceptance test: a real
// production worker (distsys.Work, telemetry on by default) drains a job,
// after which GET /fleet shows the worker's self-reported throughput,
// GET /jobs/{id}/spans decomposes every chunk into positive segments, and
// a report-less v4-style TaskRequest on a raw protocol connection is
// still served — the telemetry fields are additive, not required.
func TestFleetIntrospectionEndToEnd(t *testing.T) {
	reg := service.New(service.Options{})
	ts := httptest.NewServer(service.NewAPI(reg).Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		server, client := net.Pipe()
		go reg.HandleConn(server)
		go distsys.Work(client, distsys.WorkerOptions{Name: fmt.Sprintf("e2e-%d", i)})
		t.Cleanup(func() { client.Close() })
	}

	spec := mc.NewSpec(tissue.HomogeneousSlab("slab", tissue.ScalpProps, 6),
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
	const chunks = 8
	body, _ := json.Marshal(map[string]any{
		"spec": spec, "photons": 4000, "chunkPhotons": 500, "seed": 11,
	})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: http %d", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		var st struct {
			State string `json:"state"`
		}
		decodeInto(t, ts.URL+"/jobs/"+acc.ID, &st)
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Every chunk got a span, and every span decomposes into positive
	// queue, compute and reduce segments (wire may round to ~0 on an
	// in-memory pipe, but can never be negative).
	var spans struct {
		Spans []spanRow `json:"spans"`
	}
	decodeInto(t, ts.URL+"/jobs/"+acc.ID+"/spans", &spans)
	if len(spans.Spans) != chunks {
		t.Fatalf("got %d spans for %d chunks", len(spans.Spans), chunks)
	}
	for _, sp := range spans.Spans {
		if sp.QueueSeconds <= 0 || sp.ComputeSeconds <= 0 || sp.ReduceSeconds <= 0 {
			t.Fatalf("span has non-positive segments: %+v", sp)
		}
		if sp.WireSeconds < 0 {
			t.Fatalf("span has negative wire time: %+v", sp)
		}
		if sp.Worker == "" {
			t.Fatalf("span lost its worker: %+v", sp)
		}
	}

	// After the job the workers' requests are parked; a report rides the
	// next request at most a park limit (1 s) later. /fleet must then show
	// a nonzero self-reported rate next to the server-inferred one.
	var fleet struct {
		Workers []fleetRow `json:"workers"`
	}
	reportDeadline := time.Now().Add(15 * time.Second)
	for {
		decodeInto(t, ts.URL+"/fleet", &fleet)
		reported := 0
		for _, w := range fleet.Workers {
			if w.ReportedPhotonsPerSec > 0 {
				reported++
			}
		}
		if len(fleet.Workers) == 2 && reported == 2 {
			break
		}
		if time.Now().After(reportDeadline) {
			t.Fatalf("worker reports never surfaced on /fleet: %+v", fleet.Workers)
		}
		time.Sleep(25 * time.Millisecond)
	}
	completed := 0
	for _, w := range fleet.Workers {
		completed += w.ChunksCompleted
		if w.ChunkSeconds <= 0 || w.Version == "" {
			t.Fatalf("worker profile incomplete: %+v", w)
		}
		if w.ChunksCompleted > 0 && w.InferredPhotonsPerSec <= 0 {
			t.Fatalf("no inferred rate for a worker that completed chunks: %+v", w)
		}
	}
	if completed != chunks {
		t.Fatalf("fleet completed %d chunks, job had %d", completed, chunks)
	}

	// The report is optional: a TaskRequest without one must still be
	// served — with nothing queued, that is a parked request like any other
	// idle worker's.
	server, client := net.Pipe()
	go reg.HandleConn(server)
	defer client.Close()
	pc := protocol.NewConn(client)
	defer pc.Close()
	if err := pc.Send(&protocol.Message{Type: protocol.MsgHello,
		Hello: &protocol.Hello{Version: protocol.Version, Name: "legacy"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := pc.Send(&protocol.Message{Type: protocol.MsgTaskRequest,
		Request: &protocol.TaskRequest{Want: 1}}); err != nil {
		t.Fatal(err)
	}
	legacyDeadline := time.Now().Add(15 * time.Second)
	for parked := false; !parked; time.Sleep(5 * time.Millisecond) {
		decodeInto(t, ts.URL+"/fleet", &fleet)
		for _, w := range fleet.Workers {
			if w.Name == "legacy" && w.State == "parked" {
				parked = true
				if w.ReportedPhotonsPerSec != 0 {
					t.Fatalf("report-less session grew a reported rate: %+v", w)
				}
			}
		}
		if time.Now().After(legacyDeadline) {
			t.Fatalf("report-less request not served (never parked): %+v", fleet.Workers)
		}
	}
	if len(fleet.Workers) != 3 {
		t.Fatalf("legacy session missing from /fleet: %+v", fleet.Workers)
	}
}
