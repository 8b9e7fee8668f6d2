package sched

// FairShare implements weighted start-time fair queueing over abstract
// flows. Each flow carries a virtual-time tag: the virtual instant at which
// its next quantum of work should begin if every flow received service
// exactly proportional to its weight. Picking the flow with the smallest
// tag and charging it tag += work/weight yields long-run service shares
// proportional to the weights, regardless of quantum sizes.
//
// Flows that join late start at the current global virtual time, so a new
// flow competes fairly from its arrival instead of monopolising the server
// while it "catches up" on service it never queued for. TwoLevel, the
// service's scheduler, stacks two instances (string-keyed tenants over
// uint64-keyed jobs, work = photons granted).
//
// FairShare is not goroutine-safe; callers serialise access (the service
// registry holds its own lock across Pick/Charge).
type FairShare[K comparable] struct {
	vtime float64
	flows map[K]*fsFlow
}

type fsFlow struct {
	weight float64
	tag    float64 // virtual start time of the flow's next quantum
}

// NewFairShare returns an empty scheduler at virtual time zero.
func NewFairShare[K comparable]() *FairShare[K] {
	return &FairShare[K]{flows: make(map[K]*fsFlow)}
}

// Observe registers flow with the given weight (weight <= 0 is treated as
// 1). A new flow's tag starts at the current virtual time; an existing flow
// keeps its tag but adopts the new weight.
func (fs *FairShare[K]) Observe(flow K, weight float64) { fs.observe(flow, weight) }

func (fs *FairShare[K]) observe(flow K, weight float64) *fsFlow {
	if weight <= 0 {
		weight = 1
	}
	f, ok := fs.flows[flow]
	if !ok {
		f = &fsFlow{tag: fs.vtime}
		fs.flows[flow] = f
	}
	f.weight = weight
	return f
}

// Forget drops a finished flow's accounting state.
func (fs *FairShare[K]) Forget(flow K) { delete(fs.flows, flow) }

// Len reports the number of registered flows.
func (fs *FairShare[K]) Len() int { return len(fs.flows) }

// Pick returns the index into candidates of the flow that should be served
// next (smallest tag; earlier candidate wins ties) or -1 if candidates is
// empty. Unregistered candidates are Observed with weight 1 first.
func (fs *FairShare[K]) Pick(candidates []K) int {
	best := -1
	for i, id := range candidates {
		if _, ok := fs.flows[id]; !ok {
			fs.Observe(id, 1)
		}
		if best == -1 || fs.flows[id].tag < fs.flows[candidates[best]].tag {
			best = i
		}
	}
	return best
}

// Charge accounts work units of service to flow and advances the global
// virtual time to the served flow's start tag (the start-time fair queueing
// rule), so late joiners enter at the service frontier.
func (fs *FairShare[K]) Charge(flow K, work float64) {
	f, ok := fs.flows[flow]
	if !ok {
		f = fs.observe(flow, 1)
	}
	if f.tag > fs.vtime {
		fs.vtime = f.tag
	}
	f.tag += work / f.weight
}
