package main

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/rdf"
)

// The reference evaluator answers the benchmark's query texts over the
// generated triples with its own parser and a naive backtracking
// matcher. It shares no code with the store's parser, planner or
// executors, so an answer both agree on is checked by two independent
// implementations. It covers the forms the workloads send: basic graph
// patterns with constant predicates, FILTER comparisons, one level of
// OPTIONAL, top-level UNION, GROUP BY with COUNT, DISTINCT, ORDER BY
// under SPARQL 1.1 term ordering, and LIMIT/OFFSET.

const rdfType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// refTerm is one position of a triple pattern: a variable name or a
// constant term.
type refTerm struct {
	v string
	t rdf.Term
}

type refFilter struct {
	v   string
	op  string
	val rdf.Term
}

type refGroup struct {
	pats      [][3]refTerm
	filters   []refFilter
	optionals []refGroup
}

type refOrder struct {
	v    string
	desc bool
}

// refQuery is a parsed query. proj lists the output columns; a column
// named in counts is a COUNT alias whose counted variable is the map
// value ("" for COUNT(*)).
type refQuery struct {
	proj     []string
	counts   map[string]string
	distinct bool
	branches []refGroup
	groupBy  []string
	order    []refOrder
	limit    int
	offset   int
}

// Ordered reports whether the query fixes the order of its rows.
func (q *refQuery) Ordered() bool { return len(q.order) > 0 }

// Sliced reports whether LIMIT or OFFSET cut the solution sequence.
func (q *refQuery) Sliced() bool { return q.limit >= 0 || q.offset > 0 }

// ---- parsing ----

type refLexer struct {
	src string
	pos int
}

// next returns the next token: punctuation, an operator, a variable
// (leading '?'), an IRI (leading '<'), a string literal (leading '"',
// still escaped), or a bare word (keyword, prefixed name, number).
func (l *refLexer) next() string {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return ""
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case strings.ContainsRune("{}().,*", rune(c)):
		l.pos++
	case c == '<' && l.pos+1 < len(l.src) && l.src[l.pos+1] != '=' && l.src[l.pos+1] != ' ':
		end := strings.IndexByte(l.src[l.pos:], '>')
		if end < 0 {
			l.pos = len(l.src)
		} else {
			l.pos += end + 1
		}
	case c == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\\' {
				l.pos++
			}
			l.pos++
		}
		l.pos++
	case strings.ContainsRune("=!<>&^", rune(c)):
		l.pos++
		for l.pos < len(l.src) && strings.ContainsRune("=&^", rune(l.src[l.pos])) {
			l.pos++
		}
	default:
		for l.pos < len(l.src) {
			r := l.src[l.pos]
			if unicode.IsSpace(rune(r)) || strings.ContainsRune("{}(),*\"<>=!&^", rune(r)) {
				break
			}
			// A '.' ends a word unless it sits inside a prefixed name.
			if r == '.' && (l.pos+1 >= len(l.src) || unicode.IsSpace(rune(l.src[l.pos+1])) || l.src[l.pos+1] == '}') {
				break
			}
			l.pos++
		}
		if l.pos == start { // stray character
			l.pos++
		}
	}
	return l.src[start:l.pos]
}

type refParser struct {
	lex      refLexer
	tok      string
	prefixes map[string]string
}

func (p *refParser) advance() { p.tok = p.lex.next() }

func (p *refParser) keyword(k string) bool { return strings.EqualFold(p.tok, k) }

func (p *refParser) expect(tok string) error {
	if !strings.EqualFold(p.tok, tok) {
		return fmt.Errorf("reference: expected %q, found %q", tok, p.tok)
	}
	p.advance()
	return nil
}

// parseRefQuery parses one SELECT query text.
func parseRefQuery(text string) (*refQuery, error) {
	p := &refParser{lex: refLexer{src: text}, prefixes: map[string]string{}}
	p.advance()
	for p.keyword("PREFIX") {
		p.advance()
		name := strings.TrimSuffix(p.tok, ":")
		p.advance()
		if !strings.HasPrefix(p.tok, "<") {
			return nil, fmt.Errorf("reference: PREFIX %s: expected an IRI, found %q", name, p.tok)
		}
		p.prefixes[name] = strings.Trim(p.tok, "<>")
		p.advance()
	}
	q := &refQuery{counts: map[string]string{}, limit: -1}
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	if p.keyword("DISTINCT") {
		q.distinct = true
		p.advance()
	}
	for !p.keyword("WHERE") && p.tok != "{" {
		switch {
		case p.tok == "*":
			p.advance()
		case strings.HasPrefix(p.tok, "?"):
			q.proj = append(q.proj, p.tok[1:])
			p.advance()
		case p.tok == "(":
			// (COUNT(?v) AS ?alias) or (COUNT(*) AS ?alias)
			p.advance()
			if err := p.expect("COUNT"); err != nil {
				return nil, err
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			counted := ""
			if p.tok != "*" {
				counted = strings.TrimPrefix(p.tok, "?")
			}
			p.advance()
			for _, tok := range []string{")", "AS"} {
				if err := p.expect(tok); err != nil {
					return nil, err
				}
			}
			alias := strings.TrimPrefix(p.tok, "?")
			p.advance()
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			q.proj = append(q.proj, alias)
			q.counts[alias] = counted
		default:
			return nil, fmt.Errorf("reference: unexpected %q in SELECT", p.tok)
		}
	}
	if p.keyword("WHERE") {
		p.advance()
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	if p.tok == "{" {
		// { group } UNION { group } ...
		for {
			p.advance()
			g, err := p.group()
			if err != nil {
				return nil, err
			}
			q.branches = append(q.branches, g)
			if !p.keyword("UNION") {
				break
			}
			p.advance()
			if p.tok != "{" {
				return nil, fmt.Errorf("reference: expected '{' after UNION, found %q", p.tok)
			}
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
	} else {
		g, err := p.group()
		if err != nil {
			return nil, err
		}
		q.branches = []refGroup{g}
	}
	for p.tok != "" {
		switch {
		case p.keyword("GROUP"):
			p.advance()
			if err := p.expect("BY"); err != nil {
				return nil, err
			}
			for strings.HasPrefix(p.tok, "?") {
				q.groupBy = append(q.groupBy, p.tok[1:])
				p.advance()
			}
		case p.keyword("ORDER"):
			p.advance()
			if err := p.expect("BY"); err != nil {
				return nil, err
			}
			for {
				switch {
				case p.keyword("ASC") || p.keyword("DESC"):
					desc := p.keyword("DESC")
					p.advance()
					if err := p.expect("("); err != nil {
						return nil, err
					}
					q.order = append(q.order, refOrder{v: strings.TrimPrefix(p.tok, "?"), desc: desc})
					p.advance()
					if err := p.expect(")"); err != nil {
						return nil, err
					}
					continue
				case strings.HasPrefix(p.tok, "?"):
					q.order = append(q.order, refOrder{v: p.tok[1:]})
					p.advance()
					continue
				}
				break
			}
		case p.keyword("LIMIT") || p.keyword("OFFSET"):
			isLimit := p.keyword("LIMIT")
			p.advance()
			n, err := strconv.Atoi(p.tok)
			if err != nil {
				return nil, fmt.Errorf("reference: bad LIMIT/OFFSET %q", p.tok)
			}
			p.advance()
			if isLimit {
				q.limit = n
			} else {
				q.offset = n
			}
		default:
			return nil, fmt.Errorf("reference: unexpected %q after WHERE clause", p.tok)
		}
	}
	if len(q.proj) == 0 {
		return nil, fmt.Errorf("reference: SELECT * is not supported")
	}
	return q, nil
}

// group parses triple patterns, FILTERs and OPTIONAL groups up to and
// including the closing '}'.
func (p *refParser) group() (refGroup, error) {
	var g refGroup
	for p.tok != "}" {
		switch {
		case p.tok == "":
			return g, fmt.Errorf("reference: unterminated group")
		case p.tok == ".":
			p.advance()
		case p.keyword("OPTIONAL"):
			p.advance()
			if err := p.expect("{"); err != nil {
				return g, err
			}
			opt, err := p.group()
			if err != nil {
				return g, err
			}
			g.optionals = append(g.optionals, opt)
		case p.keyword("FILTER"):
			p.advance()
			if err := p.expect("("); err != nil {
				return g, err
			}
			for {
				v := strings.TrimPrefix(p.tok, "?")
				p.advance()
				op := p.tok
				p.advance()
				val, err := p.term()
				if err != nil {
					return g, err
				}
				g.filters = append(g.filters, refFilter{v: v, op: op, val: val.t})
				if p.tok != "&&" {
					break
				}
				p.advance()
			}
			if err := p.expect(")"); err != nil {
				return g, err
			}
		default:
			var tp [3]refTerm
			for i := range tp {
				t, err := p.term()
				if err != nil {
					return g, err
				}
				tp[i] = t
			}
			g.pats = append(g.pats, tp)
		}
	}
	p.advance() // '}'
	return g, nil
}

// term parses one pattern position or FILTER value.
func (p *refParser) term() (refTerm, error) {
	tok := p.tok
	p.advance()
	switch {
	case tok == "":
		return refTerm{}, fmt.Errorf("reference: unexpected end of query")
	case strings.HasPrefix(tok, "?"):
		return refTerm{v: tok[1:]}, nil
	case strings.HasPrefix(tok, "<"):
		return refTerm{t: rdf.NewIRI(strings.Trim(tok, "<>"))}, nil
	case tok == "a":
		return refTerm{t: rdf.NewIRI(rdfType)}, nil
	case strings.HasPrefix(tok, "\""):
		lex, err := strconv.Unquote(tok)
		if err != nil {
			return refTerm{}, fmt.Errorf("reference: bad literal %s: %w", tok, err)
		}
		if p.tok == "^^" {
			p.advance()
			dt, err := p.term()
			if err != nil {
				return refTerm{}, err
			}
			return refTerm{t: rdf.NewTypedLiteral(lex, dt.t.Value)}, nil
		}
		return refTerm{t: rdf.NewLiteral(lex)}, nil
	case tok[0] == '-' || tok[0] == '+' || (tok[0] >= '0' && tok[0] <= '9'):
		return refTerm{t: rdf.NewTypedLiteral(tok, rdf.XSDInteger)}, nil
	default:
		i := strings.IndexByte(tok, ':')
		if i < 0 {
			return refTerm{}, fmt.Errorf("reference: unexpected %q", tok)
		}
		base, ok := p.prefixes[tok[:i]]
		if !ok {
			return refTerm{}, fmt.Errorf("reference: undeclared prefix in %q", tok)
		}
		return refTerm{t: rdf.NewIRI(base + tok[i+1:])}, nil
	}
}

// ---- evaluation ----

// absent is the ID of a constant that does not occur in the data; no
// triple matches it.
const absent = -2

// unboundID marks a variable without a value in a solution.
const unboundID = -1

type refPred struct {
	pairs [][2]int32
	bySub map[int32][]int32
	byObj map[int32][]int32
}

// refStore indexes the deduplicated generated triples by predicate,
// predicate+subject and predicate+object.
type refStore struct {
	terms []rdf.Term
	ids   map[rdf.Term]int32
	preds map[int32]*refPred
}

func newRefStore(triples []rdf.Triple) *refStore {
	r := &refStore{ids: map[rdf.Term]int32{}, preds: map[int32]*refPred{}}
	seen := map[[3]int32]bool{}
	for _, t := range triples {
		k := [3]int32{r.intern(t.S), r.intern(t.P), r.intern(t.O)}
		if seen[k] {
			continue
		}
		seen[k] = true
		ix := r.preds[k[1]]
		if ix == nil {
			ix = &refPred{bySub: map[int32][]int32{}, byObj: map[int32][]int32{}}
			r.preds[k[1]] = ix
		}
		ix.pairs = append(ix.pairs, [2]int32{k[0], k[2]})
		ix.bySub[k[0]] = append(ix.bySub[k[0]], k[2])
		ix.byObj[k[2]] = append(ix.byObj[k[2]], k[0])
	}
	return r
}

func (r *refStore) intern(t rdf.Term) int32 {
	if id, ok := r.ids[t]; ok {
		return id
	}
	id := int32(len(r.terms))
	r.terms = append(r.terms, t)
	r.ids[t] = id
	return id
}

func (r *refStore) lookup(t rdf.Term) int32 {
	if id, ok := r.ids[t]; ok {
		return id
	}
	return absent
}

// slot is one compiled pattern position: a variable slot or a constant.
type slot struct {
	v  int // variable slot, -1 for a constant
	id int32
}

type compiledGroup struct {
	pats      [][3]slot
	filters   []compiledFilter
	optionals []compiledGroup
}

type compiledFilter struct {
	v   int
	op  string
	val rdf.Term
}

// evaluator holds one query's variable slots.
type evaluator struct {
	r     *refStore
	slots map[string]int
}

func (e *evaluator) slotOf(v string) int {
	if i, ok := e.slots[v]; ok {
		return i
	}
	e.slots[v] = len(e.slots)
	return e.slots[v]
}

func (e *evaluator) compile(g refGroup) (compiledGroup, error) {
	var c compiledGroup
	for _, tp := range g.pats {
		if tp[1].v != "" {
			return c, fmt.Errorf("reference: variable predicates are not supported")
		}
		var cp [3]slot
		for i, t := range tp {
			if t.v != "" {
				cp[i] = slot{v: e.slotOf(t.v)}
			} else {
				cp[i] = slot{v: -1, id: e.r.lookup(t.t)}
			}
		}
		c.pats = append(c.pats, cp)
	}
	for _, f := range g.filters {
		c.filters = append(c.filters, compiledFilter{v: e.slotOf(f.v), op: f.op, val: f.val})
	}
	for _, o := range g.optionals {
		co, err := e.compile(o)
		if err != nil {
			return c, err
		}
		c.optionals = append(c.optionals, co)
	}
	return c, nil
}

// Eval returns every solution of q in the query's order, before LIMIT
// and OFFSET are applied: callers slice ordered results themselves and
// check unordered slices by property.
func (r *refStore) Eval(q *refQuery) ([][]rdf.Term, error) {
	e := &evaluator{r: r, slots: map[string]int{}}
	var groups []compiledGroup
	for _, b := range q.branches {
		g, err := e.compile(b)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	var sols [][]int32
	for _, g := range groups {
		b := make([]int32, len(e.slots))
		for i := range b {
			b[i] = unboundID
		}
		e.matchGroup(g, b, func(s []int32) { sols = append(sols, append([]int32(nil), s...)) })
	}
	rows, err := e.project(q, sols)
	if err != nil {
		return nil, err
	}
	if q.Ordered() {
		cols := make([]int, len(q.order))
		for i, k := range q.order {
			cols[i] = indexOf(q.proj, k.v)
			if cols[i] < 0 {
				return nil, fmt.Errorf("reference: ORDER BY ?%s is not projected", k.v)
			}
		}
		sort.SliceStable(rows, func(i, j int) bool {
			for n, k := range q.order {
				c := sparqlCompare(rows[i][cols[n]], rows[j][cols[n]])
				if k.desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	return rows, nil
}

// Slice applies OFFSET and LIMIT to an ordered solution sequence.
func (q *refQuery) Slice(rows [][]rdf.Term) [][]rdf.Term {
	lo := min(q.offset, len(rows))
	hi := len(rows)
	if q.limit >= 0 {
		hi = min(hi, lo+q.limit)
	}
	return rows[lo:hi]
}

// matchGroup emits every solution of a group extending b: the required
// patterns, then the FILTERs, then each OPTIONAL as a left join.
func (e *evaluator) matchGroup(g compiledGroup, b []int32, emit func([]int32)) {
	e.matchBGP(g.pats, make([]bool, len(g.pats)), b, func(s []int32) {
		if !e.filtersHold(g.filters, s) {
			return
		}
		e.leftJoin(g.optionals, s, emit)
	})
}

func (e *evaluator) leftJoin(opts []compiledGroup, s []int32, emit func([]int32)) {
	if len(opts) == 0 {
		emit(s)
		return
	}
	matched := false
	e.matchGroup(opts[0], s, func(ext []int32) {
		matched = true
		e.leftJoin(opts[1:], ext, emit)
	})
	if !matched {
		e.leftJoin(opts[1:], s, emit)
	}
}

// matchBGP extends b by backtracking, always matching next the pattern
// with the fewest candidate triples under the current bindings.
func (e *evaluator) matchBGP(pats [][3]slot, done []bool, b []int32, emit func([]int32)) {
	best, bestN := -1, 0
	for i, tp := range pats {
		if done[i] {
			continue
		}
		if n := e.candidates(tp, b); best < 0 || n < bestN {
			best, bestN = i, n
		}
	}
	if best < 0 {
		emit(b)
		return
	}
	if bestN == 0 {
		return
	}
	tp := pats[best]
	ix := e.r.preds[tp[1].id]
	done[best] = true
	defer func() { done[best] = false }()
	try := func(s, o int32) {
		saved := [2]int32{unboundID, unboundID}
		if tp[0].v >= 0 {
			saved[0] = b[tp[0].v]
		}
		if tp[2].v >= 0 {
			saved[1] = b[tp[2].v]
		}
		if e.bind(tp[0], s, b) && e.bind(tp[2], o, b) {
			e.matchBGP(pats, done, b, emit)
		}
		if tp[0].v >= 0 {
			b[tp[0].v] = saved[0]
		}
		if tp[2].v >= 0 {
			b[tp[2].v] = saved[1]
		}
	}
	subj, obj := e.value(tp[0], b), e.value(tp[2], b)
	switch {
	case subj != unboundID:
		for _, o := range ix.bySub[subj] {
			try(subj, o)
		}
	case obj != unboundID:
		for _, s := range ix.byObj[obj] {
			try(s, obj)
		}
	default:
		for _, so := range ix.pairs {
			try(so[0], so[1])
		}
	}
}

// candidates counts the triples matchBGP would try for a pattern.
func (e *evaluator) candidates(tp [3]slot, b []int32) int {
	ix := e.r.preds[tp[1].id]
	subj, obj := e.value(tp[0], b), e.value(tp[2], b)
	switch {
	case ix == nil || subj == absent || obj == absent:
		return 0
	case subj != unboundID:
		return len(ix.bySub[subj])
	case obj != unboundID:
		return len(ix.byObj[obj])
	default:
		return len(ix.pairs)
	}
}

func (e *evaluator) value(s slot, b []int32) int32 {
	if s.v < 0 {
		return s.id
	}
	return b[s.v]
}

// bind unifies a pattern position with a data ID.
func (e *evaluator) bind(s slot, id int32, b []int32) bool {
	if s.v < 0 {
		return s.id == id
	}
	if b[s.v] == unboundID {
		b[s.v] = id
		return true
	}
	return b[s.v] == id
}

func (e *evaluator) filtersHold(fs []compiledFilter, b []int32) bool {
	for _, f := range fs {
		if b[f.v] < 0 {
			return false // an unbound variable is a type error
		}
		t := e.r.terms[b[f.v]]
		var hold bool
		switch f.op {
		case "=":
			hold = termEqual(t, f.val)
		case "!=":
			hold = !termEqual(t, f.val)
		default:
			c, ok := termOrder(t, f.val)
			if !ok {
				return false
			}
			switch f.op {
			case "<":
				hold = c < 0
			case "<=":
				hold = c <= 0
			case ">":
				hold = c > 0
			case ">=":
				hold = c >= 0
			}
		}
		if !hold {
			return false
		}
	}
	return true
}

// termEqual compares numeric literals by value and other terms by
// identity.
func termEqual(a, b rdf.Term) bool {
	if na, ok := numeric(a); ok {
		if nb, ok := numeric(b); ok {
			return na == nb
		}
	}
	return a == b
}

// termOrder compares two terms for <, <=, > and >=: numerically when
// both are numeric, by SPARQL ordering when both are of one kind;
// ok=false is a type error, which fails the filter.
func termOrder(a, b rdf.Term) (int, bool) {
	_, na := numeric(a)
	_, nb := numeric(b)
	if na != nb || a.Kind != b.Kind {
		return 0, false
	}
	return sparqlCompare(a, b), true
}

// project maps solutions to output rows: grouped and counted when the
// query aggregates, deduplicated under DISTINCT.
func (e *evaluator) project(q *refQuery, sols [][]int32) ([][]rdf.Term, error) {
	term := func(s []int32, v string) rdf.Term {
		i, ok := e.slots[v]
		if !ok || s[i] < 0 {
			return rdf.Term{}
		}
		return e.r.terms[s[i]]
	}
	var rows [][]rdf.Term
	if len(q.groupBy) > 0 || len(q.counts) > 0 {
		type group struct {
			key    []rdf.Term
			counts map[string]int
		}
		groups := map[string]*group{}
		var order []string
		for _, s := range sols {
			key := make([]rdf.Term, len(q.groupBy))
			var sb strings.Builder
			for i, v := range q.groupBy {
				key[i] = term(s, v)
				sb.WriteString(key[i].String())
				sb.WriteByte(0)
			}
			g := groups[sb.String()]
			if g == nil {
				g = &group{key: key, counts: map[string]int{}}
				groups[sb.String()] = g
				order = append(order, sb.String())
			}
			for alias, v := range q.counts {
				if v == "" || term(s, v) != (rdf.Term{}) {
					g.counts[alias]++
				}
			}
		}
		for _, k := range order {
			g := groups[k]
			row := make([]rdf.Term, len(q.proj))
			for i, v := range q.proj {
				if _, isCount := q.counts[v]; isCount {
					row[i] = rdf.NewTypedLiteral(strconv.Itoa(g.counts[v]), rdf.XSDInteger)
					continue
				}
				j := indexOf(q.groupBy, v)
				if j < 0 {
					return nil, fmt.Errorf("reference: ?%s is neither grouped nor counted", v)
				}
				row[i] = g.key[j]
			}
			rows = append(rows, row)
		}
	} else {
		for _, s := range sols {
			row := make([]rdf.Term, len(q.proj))
			for i, v := range q.proj {
				row[i] = term(s, v)
			}
			rows = append(rows, row)
		}
	}
	if q.distinct {
		seen := map[string]bool{}
		kept := rows[:0]
		for _, row := range rows {
			k := rowKey(row)
			if !seen[k] {
				seen[k] = true
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	return rows, nil
}

// rowKey renders a row as a map key.
func rowKey(row []rdf.Term) string {
	var sb strings.Builder
	for _, t := range row {
		sb.WriteString(t.String())
		sb.WriteByte(0)
	}
	return sb.String()
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// sparqlCompare orders terms as SPARQL 1.1 ORDER BY does: unbound,
// then blank nodes, then IRIs, then literals; numeric literals compare
// by value, IRIs and other literals by their lexical form.
func sparqlCompare(a, b rdf.Term) int {
	ra, rb := termRank(a), termRank(b)
	if ra != rb {
		return cmp.Compare(ra, rb)
	}
	if na, ok := numeric(a); ok {
		if nb, ok := numeric(b); ok {
			if c := cmp.Compare(na, nb); c != 0 {
				return c
			}
		}
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Datatype, b.Datatype); c != 0 {
		return c
	}
	return strings.Compare(a.Lang, b.Lang)
}

func termRank(t rdf.Term) int {
	switch {
	case t == rdf.Term{}:
		return 0
	case t.IsBlank():
		return 1
	case t.IsIRI():
		return 2
	default:
		return 3
	}
}

// numeric parses xsd:integer literals, the only numeric type the
// generated data holds.
func numeric(t rdf.Term) (float64, bool) {
	if !t.IsLiteral() || t.Datatype != rdf.XSDInteger {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	return f, err == nil
}
