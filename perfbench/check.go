package main

import (
	"fmt"
	"hash/maphash"
	"strings"
	"time"

	"repro/internal/rdf"
)

// answer is what one operation returned, in a form every workload
// shares: the result rows as terms, the reported SimTime and, for HTTP
// responses, the server's execution record.
type answer struct {
	rows     [][]rdf.Term
	sim      time.Duration
	streamed bool
	// wallMS is the server-reported execution time (HTTP only).
	wallMS float64
	// bodyBytes is the HTTP response size (HTTP only).
	bodyBytes int
}

// digest summarizes a result: its row count and a hash over the rows,
// order-sensitive for ordered results and a sum of row hashes (so a
// multiset hash) otherwise.
type digest struct {
	rows int
	hash uint64
}

var hashSeed = maphash.MakeSeed()

func rowHash(row []rdf.Term) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	for _, t := range row {
		h.WriteByte(byte(t.Kind))
		h.WriteString(t.Value)
		h.WriteByte(0)
		h.WriteString(t.Datatype)
		h.WriteByte(0)
		h.WriteString(t.Lang)
		h.WriteByte(1)
	}
	return h.Sum64()
}

func digestRows(rows [][]rdf.Term, ordered bool) digest {
	d := digest{rows: len(rows)}
	for _, row := range rows {
		if ordered {
			d.hash = d.hash*1099511628211 + rowHash(row)
		} else {
			d.hash += rowHash(row)
		}
	}
	return d
}

// expectation is what every answer to one query text must match.
type expectation struct {
	ordered bool
	want    digest
	// bySlice marks an unordered LIMIT/OFFSET query, whose rows the
	// standard leaves open: its first answer is checked by property
	// against every solution, and then fixes want for later answers.
	bySlice   bool
	solutions [][]rdf.Term
	query     *refQuery
	// sim is the SimTime every answer must report, once simSet.
	sim    time.Duration
	simSet bool
}

// newExpectation evaluates text with the reference evaluator.
func newExpectation(ref *refStore, text string) (*expectation, error) {
	q, err := parseRefQuery(text)
	if err != nil {
		return nil, err
	}
	rows, err := ref.Eval(q)
	if err != nil {
		return nil, err
	}
	e := &expectation{ordered: q.Ordered()}
	if q.Sliced() && !q.Ordered() {
		e.bySlice, e.solutions, e.query = true, rows, q
		return e, nil
	}
	e.want = digestRows(q.Slice(rows), e.ordered)
	return e, nil
}

// checkSlice verifies an unordered LIMIT/OFFSET answer by property:
// every returned row is a solution (with multiplicity), and the row
// count is min(limit, max(0, n-offset)) for n solutions.
func checkSlice(q *refQuery, got, all [][]rdf.Term) error {
	want := max(0, len(all)-q.offset)
	if q.limit >= 0 {
		want = min(want, q.limit)
	}
	if len(got) != want {
		return fmt.Errorf("%d rows, want min(limit, max(0, n-offset)) = %d for n = %d", len(got), want, len(all))
	}
	pool := map[string]int{}
	for _, row := range all {
		pool[rowKey(row)]++
	}
	for _, row := range got {
		k := rowKey(row)
		if pool[k] == 0 {
			return fmt.Errorf("row %s is not a solution", strings.TrimSpace(strings.ReplaceAll(k, "\x00", " ")))
		}
		pool[k]--
	}
	return nil
}

// check compares one answer with the expectation. Once a text's
// SimTime is set, by the single-process baseline or by an answer
// checked with fixSim, every answer must report it exactly.
func (e *expectation) check(a answer, fixSim bool) error {
	got := digestRows(a.rows, e.ordered)
	if e.bySlice {
		if err := checkSlice(e.query, a.rows, e.solutions); err != nil {
			return err
		}
		e.want, e.bySlice, e.solutions, e.query = got, false, nil, nil
	}
	if got != e.want {
		return fmt.Errorf("rows differ from the expected answer: %d rows (hash %x), want %d rows (hash %x)",
			got.rows, got.hash, e.want.rows, e.want.hash)
	}
	switch {
	case e.simSet && a.sim != e.sim:
		return fmt.Errorf("SimTime %v differs from the expected %v", a.sim, e.sim)
	case !e.simSet && fixSim:
		e.sim, e.simSet = a.sim, true
	}
	return nil
}
