package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"kex/internal/exec"
)

// The untraced data plane: a closed loop with one producer goroutine and
// a fixed window of batches in flight per shard. A slot is one batch's
// buffers. Each shard has one slot more than its window, so the producer
// assembles the next batch while the window is full and submits it the
// moment a batch completes; the window semaphore is separate.

// slot is one in-flight batch.
type slot struct {
	lg     *leg
	calls  []call
	reqs   []exec.Request
	start  time.Time
	record bool
	tally  *tally
	free   chan *slot
	// inflight is the shard's window semaphore.
	inflight chan struct{}
	done     func([]exec.BatchResult)
}

// tally accumulates one shard's completions. Only that shard's worker
// writes it; the producer reads it after Flush.
type tally struct {
	ops, failed uint64
	latUs       []float64
}

// loop is one leg's sharded plane and its producer state.
type loop struct {
	lg      *leg
	sh      *exec.Sharded
	pools   []chan *slot
	windows []chan struct{}
	tallies []tally
	// busy is the recorded virtual CPU time per shard, for simulated
	// throughput.
	busy []int64
	// Recorded figures: per-slice wall throughput and the total op count.
	sliceOps []float64
	ops      uint64
}

// newLoop starts a plane of the given shard count over the leg's core.
func newLoop(lg *leg, shards int, conc exec.ConcMode) *loop {
	l := &loop{
		lg:      lg,
		sh:      exec.NewSharded(lg.core, lg.sup, exec.ShardedConfig{Shards: shards, Conc: conc}),
		pools:   make([]chan *slot, shards),
		windows: make([]chan struct{}, shards),
		tallies: make([]tally, shards),
		busy:    make([]int64, shards),
	}
	for cpu := range l.pools {
		l.pools[cpu] = make(chan *slot, window+1)
		l.windows[cpu] = make(chan struct{}, window)
		for i := 0; i < window+1; i++ {
			s := &slot{
				lg: lg, calls: make([]call, batchSize), reqs: make([]exec.Request, batchSize),
				tally: &l.tallies[cpu], free: l.pools[cpu], inflight: l.windows[cpu],
			}
			s.done = s.complete
			l.pools[cpu] <- s
		}
	}
	return l
}

// complete is the batch's Done callback, run on the shard worker.
func (s *slot) complete(results []exec.BatchResult) {
	lat := time.Since(s.start)
	t := s.tally
	for i := range results {
		if !s.lg.ok(&s.calls[i], results[i]) {
			t.failed++
		}
	}
	t.ops += uint64(len(results))
	if s.record {
		t.latUs = append(t.latUs, float64(lat.Nanoseconds())/1e3)
	}
	s.free <- s
	<-s.inflight
}

// run drives the closed loop for d and waits for every batch to finish.
// A recorded run contributes one throughput sample, its batch latencies
// and its virtual CPU time.
func (l *loop) run(d time.Duration, record bool) error {
	lg, shards := l.lg, len(l.pools)
	goruntime.GC() // start every slice from a collected heap
	before := l.completed()
	busy0 := make([]int64, shards)
	for cpu := range busy0 {
		busy0[cpu] = l.sh.BusyNs(cpu)
	}
	start := time.Now()
	deadline := start.Add(d)
	for cpu := 0; time.Now().Before(deadline); cpu = (cpu + 1) % shards {
		s := <-l.pools[cpu]
		for i := range s.calls {
			s.calls[i] = lg.newCall(int(lg.calls % uint64(len(lg.want))))
			s.reqs[i] = s.calls[i].req
		}
		s.record = record
		l.windows[cpu] <- struct{}{}
		s.start = time.Now()
		err := l.sh.Submit(cpu, exec.Batch{Engine: lg.engine, Reqs: s.reqs, Reload: lg.reload, Done: s.done})
		if err != nil {
			<-l.windows[cpu]
			l.sh.Flush()
			return fmt.Errorf("%s submit refused: %w", lg.stack, err)
		}
	}
	l.sh.Flush()
	wall := time.Since(start)
	if record {
		ops := l.completed() - before
		l.ops += ops
		l.sliceOps = append(l.sliceOps, float64(ops)/wall.Seconds())
		for cpu := range busy0 {
			l.busy[cpu] += l.sh.BusyNs(cpu) - busy0[cpu]
		}
	}
	return nil
}

// completed is the number of invocations the workers have finished.
func (l *loop) completed() uint64 {
	var n uint64
	for i := range l.tallies {
		n += l.tallies[i].ops
	}
	return n
}

// failed is the number of invocations whose result missed the reference.
func (l *loop) failed() uint64 {
	var n uint64
	for i := range l.tallies {
		n += l.tallies[i].failed
	}
	return n
}

// latencies pools every recorded batch latency, in µs.
func (l *loop) latencies() []float64 {
	var out []float64
	for i := range l.tallies {
		out = append(out, l.tallies[i].latUs...)
	}
	return out
}

// simOpsPerSec is recorded ops over the busiest shard's virtual CPU time.
func (l *loop) simOpsPerSec() float64 {
	var max int64
	for _, b := range l.busy {
		if b > max {
			max = b
		}
	}
	if max == 0 {
		return 0
	}
	return float64(l.ops) / (float64(max) / 1e9)
}

// close stops the plane and releases the leg's program.
func (l *loop) close() {
	l.sh.Close()
	l.lg.close()
}
