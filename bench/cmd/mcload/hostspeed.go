package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/bench/report"
)

// The host this benchmark runs on is a small guest of a shared machine, and
// what one of its CPUs gets done in a second of CPU time moves by 20–40 %
// for minutes at a time with what the other guests do (bench/README.md,
// calibration record). A closed loop always has work outstanding, so its
// throughput and latency are set by that speed and follow it run by run. A
// speedometer therefore runs beside every closed-loop run: four times a
// second one goroutine does a fixed piece of arithmetic that shares no code
// with the programs and notes the CPU time its thread spent on it. The
// run's time-based metrics are then reported as they would read at the
// reference speed; the raw readings and the factor are printed beside them.

// refKernelIters sizes the reference kernel to about 10 ms of CPU time.
const refKernelIters = 1 << 20

// refKernelMS is the reference speed: the CPU milliseconds one reference
// kernel takes beside a bulk-head run on the calibration host at the fastest
// it was seen (bench/README.md, calibration record). A host speed of 1
// means this; any other constant would scale every closed-loop metric of
// every run alike.
const refKernelMS = 9.2

// speedEvery is the speedometer's period: ~4 % of one CPU.
const speedEvery = 250 * time.Millisecond

var refSink float64

// refKernel draws refKernelIters xorshift numbers and sums a square root
// and a logarithm of each: the instruction mix of a Monte Carlo kernel, in
// a few registers and no memory.
func refKernel() {
	x, s := 0.5, uint64(88172645463325252)
	for i := 0; i < refKernelIters; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		u := float64(s>>11) / (1 << 53)
		x += math.Sqrt(u) * math.Log(u+1e-9)
	}
	refSink = x
}

// threadCPU is the CPU time of the calling thread.
func threadCPU() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// speedometer samples the host's speed until stopped.
type speedometer struct {
	stop    chan struct{}
	samples chan []float64
	once    sync.Once
	speed   float64
	n       int
}

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), samples: make(chan []float64, 1)}
	go func() {
		// Thread CPU time is only the kernel's if the goroutine stays put.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var ms []float64
		tick := time.NewTicker(speedEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.samples <- ms
				return
			case <-tick.C:
				before := threadCPU()
				refKernel()
				ms = append(ms, float64(threadCPU()-before)/float64(time.Millisecond))
			}
		}
	}()
	return s
}

// Stop ends the sampling, the first time it is called, and returns the
// host's speed over it as a share of the reference speed (below 1: a slower
// host) with the sample count. Without samples, or on a nil speedometer,
// the speed is taken as 1.
func (s *speedometer) Stop() (float64, int) {
	if s == nil {
		return 1, 0
	}
	s.once.Do(func() {
		close(s.stop)
		ms := <-s.samples
		s.speed, s.n = 1, len(ms)
		if med := report.Median(ms); med > 0 {
			s.speed = refKernelMS / med
		}
	})
	return s.speed, s.n
}
