package phomc

import (
	"io"
	"net"

	"repro/internal/distsys"
	"repro/internal/mc"
)

// Distributed execution, re-exported from the DataManager/worker subsystem.
type (
	// JobOptions configure a distributed simulation job on the server.
	JobOptions = distsys.JobOptions
	// DataManager is the server that assigns chunks and reduces results.
	DataManager = distsys.DataManager
	// JobResult is a completed distributed job's outcome. Its Tally is
	// read-only — the manager's job holds the same one; Clone before
	// merging into it.
	JobResult = distsys.Result
	// WorkerOptions configure a worker client.
	WorkerOptions = distsys.WorkerOptions
	// WorkerStats summarise one worker session.
	WorkerStats = distsys.WorkerStats
)

// NewSpec packages a model, source spec and detector spec into the
// serialisable Spec a DataManager distributes to its workers.
func NewSpec(model *Model, src SourceSpec, det DetectorSpec) *Spec {
	return mc.NewSpec(model, src, det)
}

// NewDataManager prepares a distributed job. With JobOptions.JournalDir
// set the job is write-ahead journaled there, and a manager started on a
// directory that already holds the same unfinished job resumes it:
// already-reduced chunks stay reduced and the completed tally is
// bit-identical to an uninterrupted run's.
func NewDataManager(opts JobOptions) (*DataManager, error) {
	return distsys.NewDataManager(opts)
}

// Work runs a worker session over any stream transport until the job
// completes.
func Work(rw io.ReadWriteCloser, opts WorkerOptions) (*WorkerStats, error) {
	return distsys.Work(rw, opts)
}

// WorkTCP dials the DataManager at addr and runs a worker session.
func WorkTCP(addr string, opts WorkerOptions) (*WorkerStats, error) {
	return distsys.WorkTCP(addr, opts)
}

// ServeJob is the one-call server convenience: it listens on addr (e.g.
// ":9876"), serves workers until the job completes, and returns the reduced
// result. The returned address is useful with addr ":0".
func ServeJob(addr string, opts JobOptions) (*JobResult, error) {
	dm, err := distsys.NewDataManager(opts)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go dm.Serve(l)
	return dm.Wait(0)
}
