package service

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/wal"
)

// BenchmarkServicePlaneBatched mirrors cmd/mcbench's service-plane
// workload (many 1-photon chunks so dispatch overhead dominates) for
// profiling the registry hot path in isolation.
func BenchmarkServicePlaneBatched(b *testing.B) {
	const jobs, chunksPerJob, workers = 48, 16, 4
	for n := 0; n < b.N; n++ {
		reg := New(Options{DrainOnEmpty: true})
		handles := make([]*Job, 0, jobs)
		for i := 0; i < jobs; i++ {
			out, err := reg.Submit(JobSpec{
				Spec:         slabSpec(5),
				TotalPhotons: chunksPerJob,
				ChunkPhotons: 1,
				Seed:         uint64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			handles = append(handles, out.Job)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			server, client := net.Pipe()
			go reg.HandleConn(server)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, _ = batchClient(client, fmt.Sprintf("bench-%d", w), 4)
			}(w)
		}
		for _, j := range handles {
			if _, err := j.Wait(0); err != nil {
				b.Fatal(err)
			}
		}
		wg.Wait()
	}
}

// BenchmarkServicePlaneWAL is the same workload with the crash journal
// armed (interval fsync) — the WAL-on half of cmd/mcbench's A/B, kept
// here so the journal's hot-path cost is profileable in isolation.
func BenchmarkServicePlaneWAL(b *testing.B) {
	const jobs, chunksPerJob, workers = 48, 16, 4
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		wlog, _, err := wal.Open(wal.Options{Dir: b.TempDir(), Fsync: wal.FsyncInterval})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		reg := New(Options{
			DrainOnEmpty: true,
			Journal:      NewJournal(wlog, JournalOptions{}),
		})
		handles := make([]*Job, 0, jobs)
		for i := 0; i < jobs; i++ {
			out, err := reg.Submit(JobSpec{
				Spec:         slabSpec(5),
				TotalPhotons: chunksPerJob,
				ChunkPhotons: 1,
				Seed:         uint64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			handles = append(handles, out.Job)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			server, client := net.Pipe()
			go reg.HandleConn(server)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, _ = batchClient(client, fmt.Sprintf("bench-%d", w), 4)
			}(w)
		}
		for _, j := range handles {
			if _, err := j.Wait(0); err != nil {
				b.Fatal(err)
			}
		}
		wg.Wait()
		b.StopTimer()
		wlog.Close()
		b.StartTimer()
	}
}
