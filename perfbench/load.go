package main

import (
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// outcome is what one request answered, reduced to what the oracle and
// the recovery check compare: the decision, the live partitions, and the
// admitted rows as a count plus an order-independent hash.
type outcome struct {
	allowed bool
	live    string // sorted partition names, comma-joined
	rows    int
	hash    uint64
	err     string // transport error, non-2xx status or per-query error
}

// clientLog is one client's record of a run.
type clientLog struct {
	// out[i] answers the client's i-th op: len(out) ops were sent. Ops
	// [warmup, timedEnd) were timed; the ones after them are the tail.
	out      []outcome
	timedEnd int
	// submits and installs are the latencies of the timed requests.
	submits, installs []time.Duration
	// submitEnds and installEnds are the completion times of the timed
	// requests, as offsets from the start of the timed phase.
	submitEnds, installEnds []time.Duration
	failed                  int
	exhausted               bool
	// lives interns the live-partition keys of out: a run has only a few
	// distinct ones, so the log's size does not grow with them.
	lives map[string]string
}

// newClientLogs allocates every client's log for its whole stream up
// front, so the harness's share of the heap does not depend on how many
// requests the timed phase completes.
func newClientLogs(st *stream) []*clientLog {
	logs := make([]*clientLog, len(st.ops))
	for c, ops := range st.ops {
		n := len(ops)
		logs[c] = &clientLog{
			out:     make([]outcome, 0, n),
			submits: make([]time.Duration, 0, n), installs: make([]time.Duration, 0, n),
			submitEnds: make([]time.Duration, 0, n), installEnds: make([]time.Duration, 0, n),
			lives: make(map[string]string),
		}
	}
	return logs
}

// intern returns the log's copy of the live-partition key k.
func (lg *clientLog) intern(k string) string {
	if s, ok := lg.lives[k]; ok {
		return s
	}
	lg.lives[k] = k
	return k
}

// heapInuse is HeapInuse after a garbage collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// phase is the measured part of one run.
type phase struct {
	logs    []*clientLog
	elapsed time.Duration
	// spans are the measurement windows of the timed phase: the clients
	// are paused between them while the calibration kernel runs.
	spans []timedWindow
	heap  uint64 // HeapInuse after GC at the end of the timed phase
	// before and after are /metrics scrapes of the primary around the
	// timed phase.
	before, after scrape
	diskBefore    int64
	diskAfter     int64
}

// rowHash is an order-independent hash of a row multiset: the sum of the
// FNV-1a hashes of the rows.
func rowHash[R ~[]string](rows []R) uint64 {
	var sum uint64
	h := fnv.New64a()
	for _, r := range rows {
		h.Reset()
		for _, v := range r {
			h.Write([]byte(v))
			h.Write([]byte{0})
		}
		sum += h.Sum64()
	}
	return sum
}

func liveKey(live []string) string {
	live = append([]string(nil), live...)
	sort.Strings(live)
	return strings.Join(live, ",")
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs the closed loop, recording into logs (see newClientLogs):
// cfg.clients clients, each on its own
// connection, each sending its stream one request at a time and waiting
// for the answer. Every client sends its warm-up ops first; the timed
// phase starts when all are warm and runs for cfg.seconds of measurement
// windows (or until cfg.ops timed ops per client in count-bounded mode).
// Before every window and after the last, the clients pause and cal runs
// one burst. After the timed phase a durable primary checkpoints, and
// every client sends a fixed untimed tail of cfg.tail ops, so a crash
// after drive leaves a log of fixed length past the checkpoint whatever
// the throughput was.
func drive(cfg config, d *deployment, st *stream, logs []*clientLog, cal *calibrator) (*phase, error) {
	ph := &phase{logs: logs}
	var warm, timed, finished sync.WaitGroup
	start, tail := make(chan struct{}), make(chan struct{})
	var t0 time.Time // the timed phase's start
	var stop atomic.Bool
	// gate is held shared by every timed request and exclusively by a
	// calibration burst, so no request is in flight during a burst.
	var gate sync.RWMutex
	for c := 0; c < cfg.clients; c++ {
		lg := logs[c]
		hc := newHTTPClient()
		defer hc.CloseIdleConnections()
		admin := &server.Client{BaseURL: d.base, Token: adminToken, HTTP: hc}
		apps := make(map[int32]*server.Client)
		for i, a := range st.apps {
			if a.client == c {
				apps[int32(i)] = &server.Client{BaseURL: d.base, Token: a.token, HTTP: hc}
			}
		}
		warm.Add(1)
		timed.Add(1)
		finished.Add(1)
		go func(ops []op) {
			defer finished.Done()
			exec := func(i int, timed bool) {
				o := ops[i]
				sent := time.Now()
				var out outcome
				if o.kind == opInstall {
					a := st.apps[o.app]
					if err := admin.SetPolicy(a.name, a.token, o.parts); err != nil {
						out.err = err.Error()
					}
				} else if res, err := apps[o.app].Submit(o.query); err != nil {
					out.err = err.Error()
				} else if res.Error != "" {
					out.err = res.Error
				} else {
					out.allowed, out.live = res.Allowed, lg.intern(liveKey(res.Live))
					out.rows, out.hash = len(res.Rows), rowHash(res.Rows)
				}
				done := time.Now()
				lat := done.Sub(sent)
				if out.err != "" {
					lg.failed++
				}
				lg.out = append(lg.out, out)
				if timed {
					if o.kind == opInstall {
						lg.installs = append(lg.installs, lat)
						lg.installEnds = append(lg.installEnds, done.Sub(t0))
					} else {
						lg.submits = append(lg.submits, lat)
						lg.submitEnds = append(lg.submitEnds, done.Sub(t0))
					}
				}
			}
			for i := 0; i < st.warmup; i++ {
				exec(i, false)
			}
			warm.Done()
			<-start
			// The last cfg.tail ops are reserved for the tail.
			for i := st.warmup; i < len(ops)-cfg.tail; i++ {
				gate.RLock()
				if stop.Load() {
					gate.RUnlock()
					break
				}
				exec(i, true)
				gate.RUnlock()
			}
			if len(lg.out) == len(ops)-cfg.tail && cfg.ops == 0 {
				// Out of stream before the deadline: end the timed phase
				// for every client, so each window still sees all of them.
				lg.exhausted = true
				stop.Store(true)
			}
			lg.timedEnd = len(lg.out)
			timed.Done()
			<-tail
			for n := 0; n < cfg.tail; n++ {
				exec(len(lg.out), false)
			}
		}(st.ops[c])
	}
	warm.Wait()
	var err error
	abort := func(err error) (*phase, error) {
		stop.Store(true)
		select {
		case <-start:
		default:
			close(start)
		}
		close(tail)
		finished.Wait()
		return nil, err
	}
	if ph.before, err = fetchMetrics(d.base); err != nil {
		return abort(err)
	}
	ph.diskBefore = dirBytes(d.dir)
	t0 = time.Now()
	now := func() tick { return tick{time.Since(t0), cpuTime()} }
	if err := cal.burst(); err != nil {
		return abort(err)
	}
	n, length := windowsOf(cfg.seconds)
	stopTicks := make(chan struct{})
	tickerDone := make(chan struct{})
	var calErr error
	lo := now()
	close(start)
	go func() {
		defer close(tickerDone)
		tm := time.NewTimer(length)
		defer tm.Stop()
		for {
			select {
			case <-stopTicks:
				if len(ph.spans) == 0 {
					// A phase shorter than one window (count-bounded
					// smoke runs) is one window.
					ph.spans = append(ph.spans, timedWindow{lo, now()})
				}
				return
			case <-tm.C:
			}
			gate.Lock()
			ph.spans = append(ph.spans, timedWindow{lo, now()})
			if cfg.ops == 0 && len(ph.spans) == n {
				stop.Store(true)
			}
			if calErr = cal.burst(); calErr != nil {
				stop.Store(true)
			}
			lo = now()
			gate.Unlock()
			if stop.Load() {
				return
			}
			tm.Reset(length)
		}
	}()
	timed.Wait()
	close(stopTicks)
	<-tickerDone
	ph.elapsed = time.Since(t0)
	if calErr != nil {
		return abort(calErr)
	}
	ph.heap = heapInuse()
	ph.diskAfter = dirBytes(d.dir)
	if ph.after, err = fetchMetrics(d.base); err != nil {
		return abort(err)
	}
	if d.dur != nil {
		// The checkpoint a long-running deployment takes periodically: the
		// crash after the tail then recovers a fixed amount of work.
		if err := d.dur.Checkpoint(); err != nil {
			return abort(err)
		}
	}
	progress("timed phase: %.2f s", ph.elapsed.Seconds())
	close(tail)
	finished.Wait()
	return ph, nil
}

// timedOps sums the timed requests of all clients.
func (ph *phase) timedOps() (submits, installs int) {
	for _, lg := range ph.logs {
		submits += len(lg.submits)
		installs += len(lg.installs)
	}
	return submits, installs
}

// window is the nominal length of the timed phase's measurement windows.
const window = time.Second

// windowsOf splits a timed phase of the given seconds into n windows of
// equal length, as close to window as the phase allows.
func windowsOf(seconds float64) (n int, length time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	n = max(1, int((total+window/2)/window))
	return n, total / time.Duration(n)
}

// tick is one window boundary: its offset into the timed phase and the
// process CPU time then.
type tick struct {
	at  time.Duration
	cpu time.Duration
}

// timedWindow is one measurement window.
type timedWindow struct{ lo, hi tick }

// windowStats are per-window values of the timed phase. Reporting their
// medians keeps a run's figures steady when the shared machine stalls the
// process for part of a run.
type windowStats struct {
	qps, p50, p99, cpu []float64
}

// windows computes each measurement window's submission rate, latency
// percentiles and CPU per request.
func (ph *phase) windows() windowStats {
	var w windowStats
	for _, sp := range ph.spans {
		lo, hi := sp.lo.at, sp.hi.at
		var lat []time.Duration
		ops := 0
		for _, lg := range ph.logs {
			for j, e := range lg.submitEnds {
				if e >= lo && e < hi {
					lat = append(lat, lg.submits[j])
				}
			}
			for _, e := range lg.installEnds {
				if e >= lo && e < hi {
					ops++
				}
			}
		}
		ops += len(lat)
		if ops == 0 {
			continue
		}
		secs := (hi - lo).Seconds()
		w.qps = append(w.qps, float64(len(lat))/secs)
		w.cpu = append(w.cpu, (sp.hi.cpu-sp.lo.cpu).Seconds()*1e6/float64(ops))
		if len(lat) > 0 {
			w.p50 = append(w.p50, percentile(lat, 0.50))
			w.p99 = append(w.p99, percentile(lat, 0.99))
		}
	}
	return w
}
