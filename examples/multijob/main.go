// Multijob: the simulation service end to end, in one process. A job
// registry with weighted fair-share scheduling serves three workers; two
// different head-model jobs (one weighted 3×) run concurrently over the
// shared fleet, a third identical submission is answered with the job that
// ran it, and the HTTP API reports fleet health.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	phomc "repro"
)

func main() {
	reg := phomc.NewJobRegistry(phomc.RegistryOptions{
		Policy: phomc.FairSharePolicy(),
	})

	// The shared worker fleet (in-process TCP, as mcworker would connect).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go reg.Serve(l)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			phomc.WorkTCP(l.Addr().String(), phomc.WorkerOptions{
				Name: fmt.Sprintf("pc-%d", i),
			})
		}(i)
	}

	// Two concurrent jobs: the adult head (weight 3) and a neonate head.
	adult := phomc.NewSpec(phomc.AdultHead(),
		phomc.SourceSpec{Kind: "pencil"},
		phomc.DetectorSpec{Kind: "annulus", RMin: 10, RMax: 30})
	neonate := phomc.NewSpec(phomc.Neonate(),
		phomc.SourceSpec{Kind: "pencil"},
		phomc.DetectorSpec{Kind: "annulus", RMin: 5, RMax: 15})

	a, err := reg.Submit(phomc.ServiceJobSpec{
		Spec: adult, TotalPhotons: 40_000, ChunkPhotons: 2_000, Seed: 1,
		Weight: 3, Label: "adult-head",
	})
	if err != nil {
		log.Fatal(err)
	}
	b, err := reg.Submit(phomc.ServiceJobSpec{
		Spec: neonate, TotalPhotons: 40_000, ChunkPhotons: 2_000, Seed: 2,
		Weight: 1, Label: "neonate",
	})
	if err != nil {
		log.Fatal(err)
	}

	resA, err := a.Job.Wait(5 * time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	resB, err := b.Job.Wait(5 * time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adult-head: %d photons, detected fraction %.4g (%v)\n",
		resA.Tally.Launched, resA.Tally.DetectedFraction(), resA.Elapsed.Round(time.Millisecond))
	fmt.Printf("neonate:    %d photons, detected fraction %.4g (%v)\n",
		resB.Tally.Launched, resB.Tally.DetectedFraction(), resB.Elapsed.Round(time.Millisecond))

	// Resubmit the adult head verbatim: the job that ran it, no photons
	// launched.
	dup, err := reg.Submit(phomc.ServiceJobSpec{
		Spec: adult, TotalPhotons: 40_000, ChunkPhotons: 2_000, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resubmission: cached=%v\n", dup.Cached)

	// Fleet health over the HTTP API, exactly as cmd/mcqueue serves it.
	ts := httptest.NewServer(phomc.NewServiceHandler(reg))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats phomc.RegistryStats
	json.NewDecoder(resp.Body).Decode(&stats)
	fmt.Printf("stats: %d jobs done, %d chunks assigned, %d cache hit(s), policy %s\n",
		stats.JobsDone, stats.ChunksAssigned, stats.CacheHits, stats.Policy)
}
