// Package distsys implements the paper's distributed computing element: a
// DataManager server that assigns Monte Carlo simulation chunks to client
// PCs and reduces the returned partial tallies, and the worker ("Algorithm")
// client that computes them. Workers are assumed non-dedicated and
// unreliable: chunks that do not return within a deadline are reassigned,
// duplicate results are deduplicated so the reduction is exactly-once, and
// results that do not match a current assignment (a stale worker from a
// previous run, a forged JobID) are rejected outright.
//
// Since the service layer landed, DataManager is a thin single-job facade
// over service.Registry — the multi-tenant job registry and shared-fleet
// dispatcher in internal/service. One DataManager is one registry holding
// one job and draining its fleet when the job completes; cmd/mcqueue runs
// the same machinery as a long-lived, many-job service.
//
// The worker's batch is its grant: a task request asks for up to a window
// of chunks of one job, each granted as its id — the chunk's RNG stream —
// and its photons; their streams — a fanned chunk's fan of RNG
// sub-streams — are computed one per core (mc.Runner.RunChunks) and
// pre-reduced in grant order into one tally, and that ResultBatch (compact
// codec) rides the next task request, whose reply carries each chunk's
// accepted, duplicate or rejected verdict. A worker holds a runtime for each
// job whose descriptor — the job's submission bytes — it keeps (the last
// protocol.MaxDescriptors): a config, a stream cache and the job's chunk
// count, which bounds a granted chunk id, and no kernel scratch — each unit's kernel
// borrows its buffers from one pool shared by every job that runs there.
//
// A DataManager given a JournalDir survives its own death: the job's
// accept record, reduced batches and tally snapshots are written ahead to
// the service journal there, and a manager restarted on the same
// directory replays it and continues the job. Because a chunk's id is its
// RNG stream, the resumed job produces exactly the tally the
// uninterrupted job would have.
package distsys

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wal"
)

// JobOptions configure a distributed simulation job.
type JobOptions struct {
	Spec         *mc.Spec
	TotalPhotons int64
	// ChunkPhotons is the number of photons per work unit. The paper's
	// platform uses dynamic self-scheduling: fixed-size chunks pulled by
	// idle clients.
	ChunkPhotons int64
	Seed         uint64
	// ChunkTimeout reassigns a chunk if its result has not arrived in time
	// (non-dedicated clients may slow down or vanish). Zero disables
	// reassignment.
	ChunkTimeout time.Duration
	// JournalDir, when set, holds the job's write-ahead journal. A new
	// manager replays whatever it finds there: an unfinished job with the
	// same content key (spec, photons, chunking, seed) continues where it
	// stopped — keeping its journaled ChunkTimeout — and a journal holding
	// any other job is refused. Completion removes the directory. Empty
	// means the job lives only in memory.
	JournalDir string
	// Obs receives the underlying registry's service-plane metrics; nil
	// instruments into a private registry.
	Obs *obs.Registry
	// Logger, if set, receives structured progress logging (nil discards).
	Logger *slog.Logger
}

// WorkerInfo summarises one connected client.
type WorkerInfo = service.WorkerInfo

// Result is the outcome of a completed job.
type Result = service.Result

// DataManager is the single-job server. Create with NewDataManager, serve
// connections with Serve or HandleConn, then Wait for the reduced result.
type DataManager struct {
	reg *service.Registry
	job *service.Job
	log *slog.Logger

	journal     *service.Journal // nil without a JournalDir
	journalDir  string
	journalOnce sync.Once
}

// NewDataManager validates the job and prepares the chunk queue — or, when
// opts.JournalDir already holds this job, restores its reduced chunks and
// queues only the rest.
func NewDataManager(opts JobOptions) (*DataManager, error) {
	dm := &DataManager{log: opts.Logger, journalDir: opts.JournalDir}
	if dm.log == nil {
		dm.log = obs.NopLogger()
	}
	var journaled []wal.Record
	if opts.JournalDir != "" {
		wlog, replay, err := wal.Open(wal.Options{Dir: opts.JournalDir, Obs: opts.Obs, Logger: opts.Logger})
		if err != nil {
			return nil, fmt.Errorf("distsys: open journal: %w", err)
		}
		// One job, chunks worth seconds of compute each: snapshot after
		// every reduced batch, so a kill recomputes only what was in flight.
		dm.journal = service.NewJournal(wlog, service.JournalOptions{SnapshotEvery: 1, Logger: opts.Logger})
		journaled = replay.Records
	}
	dm.reg = service.New(service.Options{
		DrainOnEmpty: true,
		Obs:          opts.Obs,
		Logger:       opts.Logger,
		Journal:      dm.journal,
	})
	var err error
	dm.job, err = dm.adopt(service.JobSpec{
		Spec:         opts.Spec,
		TotalPhotons: opts.TotalPhotons,
		ChunkPhotons: opts.ChunkPhotons,
		Seed:         opts.Seed,
		ChunkTimeout: opts.ChunkTimeout,
	}, journaled)
	if err != nil {
		dm.journal.Close()
		return nil, err
	}
	return dm, nil
}

// adopt replays the journal and returns the job this manager serves: the
// replayed one when it is the requested job, a fresh submission when the
// journal is empty.
func (dm *DataManager) adopt(spec service.JobSpec, records []wal.Record) (*service.Job, error) {
	if _, err := dm.journal.Replay(dm.reg, records); err != nil {
		return nil, fmt.Errorf("distsys: replay journal: %w", err)
	}
	restored := dm.reg.List()
	if len(restored) == 0 {
		out, err := dm.reg.Submit(spec)
		if err != nil {
			return nil, err
		}
		return out.Job, nil
	}
	want := spec // RoutingKeys normalizes in place
	key, pkey, err := service.RoutingKeys(&want, 0)
	if err != nil {
		return nil, err
	}
	if len(restored) != 1 || restored[0].ID != service.JobID(&want, key, pkey) {
		return nil, fmt.Errorf("distsys: journal %s holds a different job (%s, %d photons in %d-photon chunks); "+
			"rerun it with its original parameters or remove the directory",
			dm.journalDir, restored[0].IDHex, restored[0].TotalPhotons, restored[0].ChunkPhotons)
	}
	return dm.reg.Get(restored[0].ID), nil
}

// Close makes the journal ready for the next manager — compacted to the
// job's latest snapshot, then closed — and is what a server calls on
// SIGINT/SIGTERM before exiting with the job unfinished. It is a no-op
// without a JournalDir or after the job completed.
func (dm *DataManager) Close() error { return dm.closeJournal(false) }

// closeJournal closes the journal once; remove deletes it instead of
// compacting it (the job is done, there is nothing left to resume).
func (dm *DataManager) closeJournal(remove bool) error {
	if dm.journal == nil {
		return nil
	}
	var err error
	dm.journalOnce.Do(func() {
		if remove {
			err = errors.Join(dm.journal.Close(), os.RemoveAll(dm.journalDir))
		} else {
			err = errors.Join(dm.reg.CompactJournal(), dm.journal.Close())
		}
	})
	return err
}

// NumChunks returns the total number of work units.
func (dm *DataManager) NumChunks() int { return dm.job.NumChunks() }

// Serve accepts worker connections on l until the job completes or l is
// closed. Each connection is handled on its own goroutine.
func (dm *DataManager) Serve(l net.Listener) error { return dm.reg.Serve(l) }

// HandleConn speaks the protocol with one worker over any stream transport
// (TCP connection or in-memory pipe).
func (dm *DataManager) HandleConn(rw io.ReadWriteCloser) error { return dm.reg.HandleConn(rw) }

// Done returns a channel closed when every chunk has been reduced.
func (dm *DataManager) Done() <-chan struct{} { return dm.job.Done() }

// Wait blocks until the job completes or the timeout elapses (zero waits
// forever), then returns the reduced result. Completion removes the
// journal: a finished job has nothing left to resume.
func (dm *DataManager) Wait(timeout time.Duration) (*Result, error) {
	res, err := dm.job.Wait(timeout)
	if err != nil {
		return nil, err
	}
	if err := dm.closeJournal(true); err != nil {
		// The tally is complete either way; a leftover journal replays to
		// this same finished job on the next start.
		dm.log.Warn("journal not removed", "dir", dm.journalDir, "err", err)
	}
	return res, nil
}

// Progress returns the number of reduced chunks (for status displays).
func (dm *DataManager) Progress() (completed, total int) { return dm.job.Progress() }

// Stats exposes the underlying registry's fleet counters (rejected
// results, chunks assigned, connected workers).
func (dm *DataManager) Stats() service.Stats { return dm.reg.Stats() }
