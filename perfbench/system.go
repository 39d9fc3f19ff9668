package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/serve"
	"repro/internal/shard"
)

// system is one set-up instance of the program under test: a store
// loaded from N-Triples, plus the shard servers and coordinator or the
// HTTP server a workload talks to.
type system struct {
	store   *core.Store
	shards  []*shard.Server
	coord   *shard.Coordinator
	httpSrv *http.Server
	client  *http.Client
	url     string
	wg      sync.WaitGroup
}

// setupPhases is how long one set-up spent in each phase.
type setupPhases struct {
	parse, load, boot time.Duration
}

func (p setupPhases) total() time.Duration { return p.parse + p.load + p.boot }

// setUp turns the N-Triples bytes into a ready system for w: parse,
// load, then boot the shards and dial them, or start the HTTP server
// and wait until it answers /readyz.
func setUp(w workload, nt []byte) (*system, setupPhases, error) {
	var ph setupPhases
	t0 := time.Now()
	g, err := rdf.NewNTriplesReader(bytes.NewReader(nt)).ReadAll()
	if err != nil {
		return nil, ph, fmt.Errorf("parsing N-Triples: %w", err)
	}
	ph.parse = time.Since(t0)

	t1 := time.Now()
	cl, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		return nil, ph, err
	}
	store, err := core.Load(g, core.Options{Cluster: cl})
	if err != nil {
		return nil, ph, fmt.Errorf("loading: %w", err)
	}
	ph.load = time.Since(t1)

	s := &system{store: store}
	t2 := time.Now()
	switch {
	case w.shards > 0:
		err = s.bootShards(w.shards)
	case w.http:
		err = s.startHTTP()
	}
	if err != nil {
		s.close()
		return nil, ph, err
	}
	ph.boot = time.Since(t2)
	return s, ph, nil
}

// bootShards starts n shard servers on loopback over the store (loading
// is deterministic, so a shared store answers as n separate loads
// would) and dials them with the handshake.
func (s *system) bootShards(n int) error {
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := shard.NewServer(s.store, i, n)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.shards = append(s.shards, srv)
		addrs[i] = ln.Addr().String()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			srv.Serve(ln)
		}()
	}
	coord, err := shard.Dial(s.store, addrs)
	if err != nil {
		return fmt.Errorf("dialing shards: %w", err)
	}
	s.coord = coord
	return nil
}

// startHTTP serves the store on loopback and makes the single client:
// one connection, kept alive between requests.
func (s *system) startHTTP() error {
	handler, err := serve.New(serve.Config{Store: s.store})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.httpSrv = &http.Server{Handler: handler}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.httpSrv.Serve(ln)
	}()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	resp, err := s.client.Get(s.url + "/readyz")
	if err != nil {
		return fmt.Errorf("HTTP server not ready: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP server not ready: %s", resp.Status)
	}
	return nil
}

// close stops the servers and waits for their serving goroutines.
func (s *system) close() {
	if s.coord != nil {
		s.coord.Close()
	}
	for _, srv := range s.shards {
		srv.Close()
	}
	if s.httpSrv != nil {
		s.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.httpSrv.Close()
		}
		cancel()
	}
	s.wg.Wait()
}

// setupReport is the median of several set-ups.
type setupReport struct {
	phases       setupPhases
	total        time.Duration
	heapPerTrip  float64
	storePerTrip float64
}

// setUpMedian sets the system up reps times, each from a collected
// heap, and keeps the last instance. Every set-up is timed. The live
// heap the first set-up added, measured after a forced GC, gives heap
// bytes per triple: only then is no closed instance left whose
// connection goroutines may still hold it.
func setUpMedian(w workload, nt []byte, reps int, tr *tracer) (*system, setupReport, error) {
	var (
		sys                       *system
		parse, load, boot, totals []time.Duration
		rep                       setupReport
	)
	for i := 0; i < reps; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		base := liveHeap()
		start := time.Now()
		s, ph, err := setUp(w, nt)
		if err != nil {
			return nil, rep, err
		}
		sys = s
		tr.setup(start, ph, bootSpan(w))
		parse = append(parse, ph.parse)
		load = append(load, ph.load)
		boot = append(boot, ph.boot)
		totals = append(totals, ph.total())
		lr := s.store.LoadReport()
		rep.storePerTrip = float64(lr.SizeBytes) / float64(lr.Triples)
		if i == 0 {
			rep.heapPerTrip = float64(liveHeap()-base) / float64(lr.Triples)
		}
	}
	rep.phases = setupPhases{parse: medianDur(parse), load: medianDur(load), boot: medianDur(boot)}
	rep.total = medianDur(totals)
	return sys, rep, nil
}

// bootSpan names the set-up phase after loading: booting shards or
// starting the HTTP server.
func bootSpan(w workload) string {
	if w.shards > 0 {
		return "shard.boot"
	}
	return "serve.start"
}

// liveHeap forces a GC and returns the live heap bytes it marked.
func liveHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
