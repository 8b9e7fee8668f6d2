package distsys

import (
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"time"

	"repro/internal/obs"
)

// Reconnect defaults: backoff starts at Base, doubles per consecutive
// failure with full jitter, caps at Max, and resets after a healthy
// session (one that reduced at least a chunk or survived HealthyAfter).
const (
	DefaultReconnectBase    = 500 * time.Millisecond
	DefaultReconnectMax     = 30 * time.Second
	DefaultHealthyAfter     = 5 * time.Second
	reconnectBackoffFactor  = 2
	reconnectJitterFraction = 2 // sleep drawn from [d/jitterFraction, d)
)

// LoopOptions configure WorkLoop's reconnect behaviour.
type LoopOptions struct {
	// Reconnect keeps the worker alive across dial failures and dropped
	// sessions; false reproduces the old run-once behaviour.
	Reconnect bool
	// Base and Max bound the exponential backoff between attempts
	// (defaults DefaultReconnectBase / DefaultReconnectMax).
	Base time.Duration
	Max  time.Duration
	// HealthyAfter is the session age past which the backoff resets even
	// if no chunk happened to reduce (default DefaultHealthyAfter).
	HealthyAfter time.Duration
}

// WorkLoop runs worker sessions against dial until the server reports
// the service done, the session drains via opts.Stop, the server refuses
// the Hello (ErrHelloRejected), or — with Reconnect off — the first error.
// With Reconnect on, dial failures and
// mid-session IO errors (a restarting mcqueue, a flaky link) retry under
// exponential backoff with full jitter so a fleet of workers does not
// stampede the server the instant it returns. Stats accumulate across
// sessions.
func WorkLoop(dial func() (io.ReadWriteCloser, error), opts WorkerOptions, lo LoopOptions) (*WorkerStats, error) {
	if lo.Base <= 0 {
		lo.Base = DefaultReconnectBase
	}
	if lo.Max <= 0 {
		lo.Max = DefaultReconnectMax
	}
	if lo.HealthyAfter <= 0 {
		lo.HealthyAfter = DefaultHealthyAfter
	}
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	total := &WorkerStats{}
	delay := lo.Base
	for {
		start := time.Now()
		var stats *WorkerStats
		conn, err := dial()
		if err == nil {
			stats, err = Work(conn, opts)
			if stats != nil {
				total.Chunks += stats.Chunks
				total.Photons += stats.Photons
				total.Compute += stats.Compute
				total.Batches += stats.Batches
				total.Rejected += stats.Rejected
			}
		}
		if err == nil {
			return total, nil // service done or graceful drain
		}
		if !lo.Reconnect || errors.Is(err, ErrHelloRejected) {
			return total, err
		}
		select {
		case <-opts.Stop:
			// A drain request that raced the session's death: leave now
			// rather than redial (there is no buffered batch to flush — it
			// died with the connection).
			return total, nil
		default:
		}
		// A session that did real work (or at least held for a while)
		// proves the server healthy; start the next backoff run fresh.
		if (stats != nil && stats.Chunks > 0) || time.Since(start) >= lo.HealthyAfter {
			delay = lo.Base
		}
		// Full jitter: sleep in [delay/2, delay), then grow the ceiling.
		sleep := delay/reconnectJitterFraction +
			rand.N(delay-delay/reconnectJitterFraction)
		log.Warn("worker session ended; reconnecting", "err", err, "backoff", sleep)
		select {
		case <-opts.Stop:
			return total, nil
		case <-time.After(sleep):
		}
		if delay *= reconnectBackoffFactor; delay > lo.Max {
			delay = lo.Max
		}
	}
}

// WorkLoopTCPMulti is WorkLoop over a list of candidate fleet addresses —
// a shard primary and its standbys. Each dial attempt tries the next
// address in rotation, so when the primary dies the ordinary reconnect
// backoff lands the worker on whichever standby inherited the shard; no
// address is privileged and none needs to be up at start.
func WorkLoopTCPMulti(addrs []string, opts WorkerOptions, lo LoopOptions) (*WorkerStats, error) {
	if len(addrs) == 0 {
		return nil, errors.New("distsys: no fleet addresses")
	}
	next := 0
	return WorkLoop(func() (io.ReadWriteCloser, error) {
		addr := addrs[next%len(addrs)]
		next++
		return net.Dial("tcp", addr)
	}, opts, lo)
}
