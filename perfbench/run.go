package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// graphSeed seeds the WatDiv generator in every run (see makeInputs).
const graphSeed = 1

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int
	setups   int
	// spans is the file a traced run writes its spans to.
	spans string
	// log receives diagnostics: wrong answers and failed operations.
	log io.Writer
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts wrong answers and logs the first few.
type checker struct {
	log   io.Writer
	wrong int
}

func (c *checker) note(o op, err error) {
	c.wrong++
	if c.wrong <= 5 {
		fmt.Fprintf(c.log, "wrong answer: %v\n  query: %s\n", err, oneLine(o.text))
	}
}

// verify checks one answer against its text's expectation; fixSim
// lets the answer fix the text's SimTime when nothing has yet.
func (c *checker) verify(w workload, o op, a answer, fixSim bool) {
	if w.http && !a.streamed {
		c.note(o, fmt.Errorf("response does not report streamed"))
		return
	}
	if err := o.exp.check(a, fixSim); err != nil {
		c.note(o, err)
	}
}

// run generates the inputs from the seed, sets the system up, checks
// and warms it, and measures one workload.
func run(cfg config) (report, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (want watdiv-mix, adhoc-stream or sharded-mix)", cfg.workload)
	}
	nt, round, err := makeInputs(w, cfg.seed, cfg.scale)
	if err != nil {
		return report{}, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	sys, setup, err := setUpMedian(w, nt, cfg.setups, tr)
	if err != nil {
		return report{}, err
	}
	defer sys.close()

	chk := &checker{log: cfg.log}
	if sys.coord != nil {
		if err := sys.checkSingleProcess(w, round, chk); err != nil {
			return report{}, err
		}
	}
	// Warm-up: lazy set-up finishes and the plan cache fills. A query
	// that fails here fails again, and is counted, in the timed loop.
	for r := 0; r < w.warmRounds; r++ {
		for _, o := range round {
			res, err := sys.execute(w, o.text, nil)
			if err != nil {
				fmt.Fprintf(cfg.log, "warm-up query failed: %v\n  query: %s\n", err, oneLine(o.text))
				continue
			}
			chk.verify(w, o, res.ans, r > 0)
		}
	}

	l := layerFigures{setup: setup}
	cacheBefore := sys.store.PlanCacheMetrics()
	var netBefore core.NetworkStats
	if sys.coord != nil {
		netBefore = sys.coord.NetworkStats()
	}
	runtime.GC()
	cpuBefore := readCPU()
	l.run = sys.measure(w, round, cfg.seconds, tr, chk)
	cpuAfter := readCPU()

	rep := report{Correct: chk.wrong == 0, Attempted: l.run.ops, Failed: l.run.failed}
	if !cfg.trace {
		rep.Metrics = endToEnd(l.run, setup)
		return rep, nil
	}
	l.cache = delta(cacheBefore, sys.store.PlanCacheMetrics())
	if busy := (cpuAfter.total - cpuBefore.total) - (cpuAfter.idle - cpuBefore.idle); busy > 0 {
		l.gcShare = (cpuAfter.gc - cpuBefore.gc) / busy
	}
	l.cpuPerQuery = (cpuAfter.process - cpuBefore.process) / time.Duration(max(l.run.ops, 1))
	if sys.coord != nil {
		l.net = netDelta(netBefore, sys.coord.NetworkStats())
	}
	l.parseUS = tr.durations("sparql.Parse")
	l.planUS = tr.durations("core.Plan")
	if err := l.profile(sys, w, round); err != nil {
		return report{}, err
	}
	rep.Metrics = l.metrics()
	if err := tr.write(cfg.spans); err != nil {
		return report{}, fmt.Errorf("writing spans: %w", err)
	}
	return rep, nil
}

// makeInputs generates what the program receives: the WatDiv graph as
// an N-Triples document and one round of query texts, each with the
// reference evaluator's expectation. The graph's content is fixed, so
// runs with different seeds measure the same work; the seed orders its
// triples in the document (and so the dictionary IDs and partition
// placement the store assigns) and draws the adhoc-stream constants.
func makeInputs(w workload, seed int64, scale int) ([]byte, []op, error) {
	g, err := watdiv.Generate(watdiv.Config{Scale: scale, Seed: graphSeed})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	triples := append([]rdf.Triple(nil), g.Triples()...)
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
	shuffled := rdf.NewGraph(len(triples))
	for _, t := range triples {
		shuffled.Add(t)
	}
	var nt bytes.Buffer
	if err := rdf.WriteNTriples(&nt, shuffled); err != nil {
		return nil, nil, err
	}
	round, err := w.round(rng, scale)
	if err != nil {
		return nil, nil, err
	}
	ref := newRefStore(triples)
	exps := map[string]*expectation{}
	for i, o := range round {
		e := exps[o.text]
		if e == nil {
			if e, err = newExpectation(ref, o.text); err != nil {
				return nil, nil, fmt.Errorf("reference evaluation of %s: %w", oneLine(o.text), err)
			}
			exps[o.text] = e
		}
		round[i].exp = e
	}
	return nt.Bytes(), round, nil
}

// checkSingleProcess runs every distinct text of the round in process,
// with re-planning off as sharded execution has it: the rows must pass
// the reference check, and fix the SimTime every sharded answer must
// then report exactly.
func (s *system) checkSingleProcess(w workload, round []op, chk *checker) error {
	opts := w.opts
	opts.ReplanThreshold = -1
	done := map[*expectation]bool{}
	for _, o := range round {
		if done[o.exp] {
			continue
		}
		done[o.exp] = true
		q, err := sparql.Parse(o.text)
		if err != nil {
			return err
		}
		res, err := s.store.Query(q, opts)
		if err != nil {
			return fmt.Errorf("single-process baseline of %s: %w", oneLine(o.text), err)
		}
		if err := o.exp.check(answer{rows: res.Rows, sim: res.SimTime}, true); err != nil {
			chk.note(o, fmt.Errorf("single-process baseline: %w", err))
		}
	}
	return nil
}

// runStats is what the timed loop measured.
type runStats struct {
	ops, failed int
	elapsed     time.Duration
	latMS       []float64
	alloc       uint64
	sim         time.Duration
	ok          int
	// queryMS sums the store's query time per family letter; familyOps
	// counts the operations behind each sum.
	queryMS   map[string]float64
	familyOps map[string]int
	// roundtripMS, overheadMS and bodyBytes describe HTTP responses.
	roundtripMS, overheadMS []float64
	bodyBytes               int64
}

// measure runs whole rounds, at least one, until at least seconds have
// passed. The client sends each query after the previous answer
// arrived (a closed loop with one client) and checks every answer
// between requests.
func (s *system) measure(w workload, round []op, seconds float64, tr *tracer, chk *checker) runStats {
	st := runStats{queryMS: map[string]float64{}, familyOps: map[string]int{}}
	start := time.Now()
	for st.ops == 0 || time.Since(start).Seconds() < seconds {
		for _, o := range round {
			st.ops++
			r, err := s.execute(w, o.text, tr)
			if err != nil {
				st.failed++
				if st.failed <= 5 {
					fmt.Fprintf(chk.log, "query failed: %v\n  query: %s\n", err, oneLine(o.text))
				}
				continue
			}
			chk.verify(w, o, r.ans, false)
			st.ok++
			st.latMS = append(st.latMS, ms(r.latency))
			st.alloc += r.alloc
			st.sim += r.ans.sim
			st.queryMS[o.family] += ms(r.query)
			st.familyOps[o.family]++
			if w.http {
				st.roundtripMS = append(st.roundtripMS, ms(r.latency))
				st.overheadMS = append(st.overheadMS, ms(r.latency)-r.ans.wallMS)
				st.bodyBytes += int64(r.ans.bodyBytes)
			}
		}
	}
	st.elapsed = time.Since(start)
	return st
}

// endToEnd derives the metrics a user of the system sees.
func endToEnd(st runStats, setup setupReport) map[string]metric {
	lat := append([]float64(nil), st.latMS...)
	sort.Float64s(lat)
	ok := float64(max(st.ok, 1))
	return map[string]metric{
		"setup_s":               {setup.total.Seconds(), "s"},
		"qps":                   {float64(st.ok) / st.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":        {quantile(lat, 0.50), "ms"},
		"latency_p99_ms":        {quantile(lat, 0.99), "ms"},
		"sim_ms_per_query":      {ms(st.sim) / ok, "ms"},
		"alloc_kb_per_query":    {float64(st.alloc) / 1024 / ok, "kB"},
		"heap_bytes_per_triple": {setup.heapPerTrip, "bytes"},
	}
}

// layerFigures collects a traced run's per-layer numbers.
type layerFigures struct {
	setup   setupReport
	run     runStats
	cache   core.CacheMetrics
	parseUS []float64
	planUS  []float64
	net     core.NetworkStats
	// gcShare is the GC's share of the CPU time the process used in the
	// timed loop; cpuPerQuery is process CPU time per operation.
	gcShare       float64
	cpuPerQuery   time.Duration
	scanRows      int64
	joinRows      int64
	nodeRows      int64
	resultRows    int64
	qErrors       []float64
	replans       int
	stages        int
	peakMem       int64
	profiledQuery int
}

// profile runs one round in process with the workload's options, after
// timing, to read the executed plans' actual cardinalities, re-plans,
// stages and peak memory from core.Result.
func (l *layerFigures) profile(s *system, w workload, round []op) error {
	opts := w.opts
	if s.coord != nil {
		opts.Dist = s.coord
	}
	for _, o := range round {
		q, err := sparql.Parse(o.text)
		if err != nil {
			return err
		}
		res, err := s.store.QueryContext(context.Background(), q, opts)
		if err != nil {
			return fmt.Errorf("profiling %s: %w", oneLine(o.text), err)
		}
		l.profiledQuery++
		l.resultRows += int64(len(res.Rows))
		l.replans += len(res.Replans)
		l.stages += len(res.Clock.Stages())
		l.peakMem += res.PeakMemBytes
		var walk func(n *plan.Node)
		walk = func(n *plan.Node) {
			if n.Actual >= 0 {
				l.nodeRows += n.Actual
				switch n.Op {
				case plan.OpScan:
					l.scanRows += n.Actual
				case plan.OpJoin, plan.OpLeftJoin:
					l.joinRows += n.Actual
				}
				est, act := math.Max(n.Est, 1), math.Max(float64(n.Actual), 1)
				l.qErrors = append(l.qErrors, math.Max(est/act, act/est))
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(res.Plan.Root)
	}
	return nil
}

// metrics renders the per-layer figures. A layer the workload does not
// reach (the HTTP server outside adhoc-stream, the shard wire outside
// sharded-mix) reads 0.
func (l *layerFigures) metrics() map[string]metric {
	st := l.run
	ok := float64(max(st.ok, 1))
	prof := float64(max(l.profiledQuery, 1))
	sort.Float64s(l.parseUS)
	sort.Float64s(l.planUS)
	sort.Float64s(l.qErrors)
	sort.Float64s(st.roundtripMS)
	sort.Float64s(st.overheadMS)
	var queryMS float64
	for _, v := range st.queryMS {
		queryMS += v
	}
	m := map[string]metric{
		"rdf.parse_s":                 {l.setup.phases.parse.Seconds(), "s"},
		"core.load_s":                 {l.setup.phases.load.Seconds(), "s"},
		"shard.boot_s":                {0, "s"},
		"core.store_bytes_per_triple": {l.setup.storePerTrip, "bytes"},
		"sparql.parse_us":             {quantile(l.parseUS, 0.5), "us"},
		"core.plan_us":                {quantile(l.planUS, 0.5), "us"},
		"core.plan_cache_hit_ratio":   {l.cache.HitRate(), "ratio"},
		"core.plan_cache_lookups":     {float64(l.cache.Hits + l.cache.Misses), "count"},
		"core.query_ms":               {queryMS / ok, "ms"},
		"engine.scan_rows_per_query":  {float64(l.scanRows) / prof, "rows"},
		"engine.join_rows_per_query":  {float64(l.joinRows) / prof, "rows"},
		"plan.rows_examined_per_row":  {float64(l.nodeRows) / float64(max(l.resultRows, 1)), "ratio"},
		"plan.q_error_p50":            {quantile(l.qErrors, 0.5), "ratio"},
		"core.replans_per_query":      {float64(l.replans) / prof, "count"},
		"cluster.stages_per_query":    {float64(l.stages) / prof, "count"},
		"core.peak_intermediate_kb":   {float64(l.peakMem) / 1024 / prof, "kB"},
		"runtime.gc_cpu_share":        {l.gcShare, "ratio"},
		"runtime.cpu_ms_per_query":    {ms(l.cpuPerQuery), "ms"},
		"serve.roundtrip_ms":          {quantile(st.roundtripMS, 0.5), "ms"},
		"serve.overhead_ms":           {quantile(st.overheadMS, 0.5), "ms"},
		"serve.response_kb":           {float64(st.bodyBytes) / 1024 / ok, "kB"},
		"shard.wire_kb_per_query":     {float64(l.net.BytesSent+l.net.BytesReceived) / 1024 / ok, "kB"},
		"shard.exchanges_per_query":   {float64(l.net.Exchanges) / ok, "count"},
		"shard.rtt_p50_us":            {0, "us"},
		"shard.calibration_error":     {l.net.CalibrationError, "ratio"},
		"bench.traced_qps":            {float64(st.ok) / st.elapsed.Seconds(), "1/s"},
	}
	if len(l.net.ShardRTT) > 0 {
		m["shard.boot_s"] = metric{l.setup.phases.boot.Seconds(), "s"}
		var p50 float64
		for _, r := range l.net.ShardRTT {
			p50 += float64(r.P50) / float64(time.Microsecond)
		}
		m["shard.rtt_p50_us"] = metric{p50 / float64(len(l.net.ShardRTT)), "us"}
	}
	for _, f := range []string{"C", "F", "L", "S", "E"} {
		m["core.query_ms."+f] = metric{st.queryMS[f] / float64(max(st.familyOps[f], 1)), "ms"}
	}
	return m
}

// delta is the plan-cache activity between two snapshots.
func delta(a, b core.CacheMetrics) core.CacheMetrics {
	return core.CacheMetrics{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses}
}

// netDelta is the wire activity between two snapshots; RTT quantiles
// and the calibration error are the later snapshot's.
func netDelta(a, b core.NetworkStats) core.NetworkStats {
	b.Exchanges -= a.Exchanges
	b.BytesSent -= a.BytesSent
	b.BytesReceived -= a.BytesReceived
	return b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// oneLine shortens a query text for diagnostics: the prologue goes,
// and whitespace runs become single spaces.
func oneLine(text string) string {
	if i := strings.Index(text, "SELECT"); i >= 0 {
		text = text[i:]
	}
	return strings.Join(strings.Fields(text), " ")
}
