package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// result is one operation as the client saw it: the answer, the time
// the request took, and the bytes the heap allocated meanwhile.
type result struct {
	ans     answer
	latency time.Duration
	alloc   uint64
	// query is the time the store's query call took: measured around
	// QueryContext in process, the server-reported wallMs over HTTP.
	query time.Duration
}

// execute sends one query the way workload w does and waits for the
// whole answer. A traced run also times the benchmark's own call into
// Store.Plan, and records a span around every call into the program;
// the spans of one operation share its ID.
func (s *system) execute(w workload, text string, tr *tracer) (result, error) {
	var r result
	qid := tr.begin()
	before := heapAllocs()
	start := time.Now()
	var (
		raw []byte
		res *core.Result
		err error
	)
	if w.http {
		if tr != nil {
			err = s.parseAndPlan(w, text, qid, tr)
		}
		if err == nil {
			t := time.Now()
			raw, err = s.roundTrip(text)
			r.latency = time.Since(t)
			tr.span(qid, "serve.roundtrip", t)
		}
	} else {
		var q *sparql.Query
		q, err = sparql.Parse(text)
		tr.span(qid, "sparql.Parse", start)
		if err == nil && tr != nil {
			t := time.Now()
			_, err = s.store.Plan(q, w.opts)
			tr.span(qid, "core.Plan", t)
		}
		if err == nil {
			opts := w.opts
			if s.coord != nil {
				opts.Dist = s.coord
			}
			t := time.Now()
			res, err = s.store.QueryContext(context.Background(), q, opts)
			r.query = time.Since(t)
			tr.span(qid, "core.QueryContext", t)
		}
		r.latency = time.Since(start)
	}
	r.alloc = heapAllocs() - before
	tr.end(qid, start)
	if err != nil {
		return r, err
	}
	if res != nil {
		r.ans = answer{rows: res.Rows, sim: res.SimTime, streamed: res.Streamed}
		return r, nil
	}
	r.ans, err = decodeSPARQLJSON(raw)
	r.ans.bodyBytes = len(raw)
	r.query = time.Duration(r.ans.wallMS * float64(time.Millisecond))
	return r, err
}

// parseAndPlan times the parser and planner on a text the HTTP server
// is about to receive, for the traced run's layer spans.
func (s *system) parseAndPlan(w workload, text string, qid int64, tr *tracer) error {
	t0 := time.Now()
	q, err := sparql.Parse(text)
	tr.span(qid, "sparql.Parse", t0)
	if err != nil {
		return err
	}
	t1 := time.Now()
	_, err = s.store.Plan(q, w.opts)
	tr.span(qid, "core.Plan", t1)
	return err
}

// roundTrip POSTs the query text with streaming on and returns the
// whole response body; any status but 200 is an error.
func (s *system) roundTrip(text string) ([]byte, error) {
	resp, err := s.client.Post(s.url+"/sparql?streaming=1", "application/sparql-query", strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

type jsonBinding struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype"`
	Lang     string `json:"xml:lang"`
}

type sparqlJSON struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]jsonBinding `json:"bindings"`
	} `json:"results"`
	Stats struct {
		SimMS    float64 `json:"simMs"`
		WallMS   float64 `json:"wallMs"`
		Streamed bool    `json:"streamed"`
	} `json:"stats"`
}

// decodeSPARQLJSON turns a /sparql response into rows of terms in head
// order; a variable missing from a binding is unbound.
func decodeSPARQLJSON(body []byte) (answer, error) {
	var doc sparqlJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return answer{}, fmt.Errorf("decoding response: %w", err)
	}
	a := answer{
		rows:     make([][]rdf.Term, len(doc.Results.Bindings)),
		sim:      time.Duration(math.Round(doc.Stats.SimMS * float64(time.Millisecond))),
		streamed: doc.Stats.Streamed,
		wallMS:   doc.Stats.WallMS,
	}
	for i, b := range doc.Results.Bindings {
		row := make([]rdf.Term, len(doc.Head.Vars))
		for j, v := range doc.Head.Vars {
			jb, ok := b[v]
			if !ok {
				continue
			}
			switch jb.Type {
			case "uri":
				row[j] = rdf.NewIRI(jb.Value)
			case "bnode":
				row[j] = rdf.NewBlank(jb.Value)
			case "literal":
				row[j] = rdf.Term{Kind: rdf.KindLiteral, Value: jb.Value, Datatype: jb.Datatype, Lang: jb.Lang}
			default:
				return answer{}, fmt.Errorf("decoding response: binding type %q", jb.Type)
			}
		}
		a.rows[i] = row
	}
	return a, nil
}
