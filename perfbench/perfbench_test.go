package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
)

// TestWorkloadsAtTinyScale runs every workload, untraced and traced, on
// a small graph: every answer must pass the reference checks, and the
// printed metrics must be exactly the ones BENCHMARK.json declares.
func TestWorkloadsAtTinyScale(t *testing.T) {
	declared := benchmarkMetrics(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, scale: 200, setups: 1, trace: trace,
				spans: filepath.Join(t.TempDir(), "spans.jsonl"), log: testLog{t}}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			kind := "end_to_end"
			if trace {
				kind = "per_layer"
				if _, err := os.Stat(cfg.spans); err != nil {
					t.Errorf("%s: traced run wrote no span file: %v", name, err)
				}
			}
			var got []string
			for k := range rep.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(declared[kind], " ") {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", name, trace, got, declared[kind])
			}
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string][]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, kind := range []string{"end_to_end", "per_layer"} {
		var ms []struct{ Name string }
		if err := json.Unmarshal(doc[kind], &ms); err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			out[kind] = append(out[kind], m.Name)
		}
		sort.Strings(out[kind])
	}
	return out
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

var _ io.Writer = testLog{}

const prologue = "PREFIX ex: <http://ex/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func num(n string) rdf.Term { return rdf.NewTypedLiteral(n, rdf.XSDInteger) }

func tinyRef() *refStore {
	tr := func(s, p string, o rdf.Term) rdf.Triple { return rdf.NewTriple(iri(s), iri(p), o) }
	return newRefStore([]rdf.Triple{
		tr("a", "knows", iri("b")),
		tr("a", "knows", iri("c")),
		tr("b", "knows", iri("c")),
		tr("a", "knows", iri("b")), // duplicate: the graph is a set
		tr("a", "age", num("9")),
		tr("b", "age", num("10")),
		tr("c", "name", rdf.NewLiteral("c")),
	})
}

func evalText(t *testing.T, ref *refStore, text string) [][]rdf.Term {
	t.Helper()
	q, err := parseRefQuery(prologue + text)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ref.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	return q.Slice(rows)
}

func render(rows [][]rdf.Term) string {
	var out []string
	for _, r := range rows {
		var cells []string
		for _, t := range r {
			if t == (rdf.Term{}) {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, strings.TrimPrefix(t.Value, "http://ex/"))
		}
		out = append(out, strings.Join(cells, ","))
	}
	return strings.Join(out, " ")
}

// TestReferenceForms pins the reference evaluator on a hand-checked
// graph, one form at a time.
func TestReferenceForms(t *testing.T) {
	ref := tinyRef()
	cases := []struct{ text, want string }{
		{`SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y ex:knows ?z . }`, "a,b"},
		{`SELECT ?x WHERE { ?x ex:age ?n . FILTER(?n >= 10) }`, "b"},
		{`SELECT ?x ?n WHERE { ?x ex:knows ?y . OPTIONAL { ?x ex:age ?n . } } ORDER BY ?x ?n`, "a,9 a,9 b,10"},
		{`SELECT ?y ?n WHERE { ?x ex:knows ?y . OPTIONAL { ?y ex:age ?n . } } ORDER BY DESC(?n) ?y`, "b,10 c,- c,-"},
		{`SELECT ?v WHERE { { ?v ex:age ?n . } UNION { ?v ex:name ?n . } } ORDER BY ?v`, "a b c"},
		{`SELECT ?x (COUNT(?y) AS ?k) WHERE { ?x ex:knows ?y . } GROUP BY ?x ORDER BY DESC(?k)`, "a,2 b,1"},
		{`SELECT DISTINCT ?y WHERE { ?x ex:knows ?y . } ORDER BY ?y LIMIT 1 OFFSET 1`, "c"},
		// Numeric order, not lexical: 9 < 10.
		{`SELECT ?n WHERE { ?x ex:age ?n . } ORDER BY ?n`, "9 10"},
	}
	for _, c := range cases {
		if got := render(evalText(t, ref, c.text)); got != c.want {
			t.Errorf("%s\n got %q, want %q", c.text, got, c.want)
		}
	}
}

// TestChecksRejectWrongAnswers makes sure a wrong row, a missing row, a
// changed SimTime and a row outside an unordered LIMIT's solutions are
// all caught.
func TestChecksRejectWrongAnswers(t *testing.T) {
	ref := tinyRef()
	e, err := newExpectation(ref, prologue+`SELECT ?x ?y WHERE { ?x ex:knows ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]rdf.Term{{iri("b"), iri("c")}, {iri("a"), iri("c")}, {iri("a"), iri("b")}}
	if err := e.check(answer{rows: good, sim: time.Second}, true); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, a := range map[string]answer{
		"wrong row":   {rows: [][]rdf.Term{{iri("b"), iri("c")}, {iri("a"), iri("c")}, {iri("a"), iri("a")}}, sim: time.Second},
		"missing row": {rows: good[:2], sim: time.Second},
		"SimTime":     {rows: good, sim: time.Second + 1},
	} {
		if err := e.check(a, false); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	sliced, err := newExpectation(ref, prologue+`SELECT ?x ?y WHERE { ?x ex:knows ?y . } LIMIT 2 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sliced.check(answer{rows: [][]rdf.Term{{iri("a"), iri("a")}, {iri("a"), iri("b")}}}, true); err == nil {
		t.Error("a row that is no solution passed the LIMIT/OFFSET property check")
	}
	if err := sliced.check(answer{rows: good[:1]}, true); err == nil {
		t.Error("a short LIMIT/OFFSET answer passed the row-count property")
	}
	if err := sliced.check(answer{rows: good[1:]}, true); err != nil {
		t.Errorf("a valid LIMIT/OFFSET answer failed: %v", err)
	}
	if err := sliced.check(answer{rows: good[:2]}, false); err == nil {
		t.Error("a later answer with other rows than the first passed")
	}
}
