package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/watdiv"
)

// op is one query of a round: its text, its WatDiv family letter, and
// the expectation every answer to the text must meet.
type op struct {
	text   string
	family string
	exp    *expectation
}

// workload is one closed-loop traffic mix with a single client.
type workload struct {
	// round returns the fixed query sequence one round sends.
	round func(rng *rand.Rand, scale int) ([]op, error)
	// opts are the query options of every request.
	opts core.QueryOptions
	// http sends the queries to an in-process serve handler over
	// loopback HTTP instead of calling the store.
	http bool
	// shards boots that many in-process shard servers and routes the
	// queries through a coordinator (0 = single process).
	shards int
	// warmRounds run before timing: the first checks rows only (a
	// first execution may re-plan and write a corrected plan back),
	// later ones also fix each text's SimTime.
	warmRounds int
}

var workloads = map[string]workload{
	// The paper's workload: every WatDiv query, materialized, warm plan
	// cache.
	"watdiv-mix": {
		round:      mixRound,
		warmRounds: 2,
	},
	// Selective lookups with seeded constants, streamed over HTTP; far
	// more distinct texts than plan-cache entries.
	"adhoc-stream": {
		round:      adhocRound,
		opts:       core.QueryOptions{Streaming: true},
		http:       true,
		warmRounds: 2,
	},
	// The mix through a coordinator and two shard servers. Broadcast
	// joins are off, as in the repository's shard profile, so every
	// join is a shuffle exchange the calibration layer prices.
	"sharded-mix": {
		round:      mixRound,
		opts:       core.QueryOptions{BroadcastThreshold: -1},
		shards:     2,
		warmRounds: 1,
	},
}

// mixRound is the 20 basic and 6 extended WatDiv queries in fixed
// order.
func mixRound(*rand.Rand, int) ([]op, error) {
	var out []op
	for _, q := range append(watdiv.BasicQuerySet(), watdiv.ExtendedQuerySet()...) {
		out = append(out, op{text: q.Text, family: q.Group})
	}
	return out, nil
}

// adhocRoundSize is the number of queries in one adhoc-stream round,
// four times the store's default plan-cache capacity (256 entries).
const adhocRoundSize = 1024

// adhocTemplate turns a WatDiv query that binds constants into a
// template: each listed constant of the query text is replaced by one
// drawn from the entity pool it comes from.
type adhocTemplate struct {
	name  string
	text  string
	slots []adhocSlot
}

type adhocSlot struct {
	constant string
	draw     func(rng *rand.Rand, scale int) string
}

func pool(format string, n func(scale int) int) func(*rand.Rand, int) string {
	return func(rng *rand.Rand, scale int) string { return fmt.Sprintf(format, rng.Intn(n(scale))) }
}

func fixed(n int) func(int) int { return func(int) int { return n } }

var (
	users      = pool("wsdbm:User%d", func(scale int) int { return scale })
	genres     = pool("wsdbm:Genre%d", fixed(watdiv.NumGenres))
	countries  = pool("wsdbm:Country%d", fixed(watdiv.NumCountries))
	cities     = pool("wsdbm:City%d", fixed(watdiv.NumCities))
	languages  = pool("wsdbm:Language%d", fixed(watdiv.NumLanguages))
	categories = pool("wsdbm:ProductCategory%d", fixed(watdiv.NumCategories))
	ratings    = pool(`"%d"^^xsd:integer`, fixed(10))
	genders    = func(rng *rand.Rand, _ int) string { return [2]string{`"male"`, `"female"`}[rng.Intn(2)] }
)

// adhocTemplates lists the L, S and F queries that bind a constant, E1,
// and one range lookup whose FILTER bound is drawn from the user pool.
func adhocTemplates() ([]adhocTemplate, error) {
	slots := map[string][]adhocSlot{
		"F1": {{"wsdbm:Genre3", genres}},
		"F2": {{"wsdbm:Country1", countries}},
		"F3": {{`"male"`, genders}},
		"F5": {{"wsdbm:Country4", countries}},
		"L1": {{"wsdbm:User3", users}},
		"L2": {{"wsdbm:User7", users}},
		"L3": {{"wsdbm:Language2", languages}},
		"L4": {{"wsdbm:Country8", countries}},
		"S1": {{"wsdbm:Country2", countries}},
		"S2": {{`"male"`, genders}, {"wsdbm:Country5", countries}},
		"S3": {{"wsdbm:ProductCategory1", categories}},
		"S4": {{`"female"`, genders}, {"wsdbm:City10", cities}},
		"S5": {{"wsdbm:ProductCategory5", categories}, {"wsdbm:Language0", languages}},
		"S6": {{`"8"^^xsd:integer`, ratings}},
		"S7": {{"wsdbm:Language1", languages}},
		"E1": {{"wsdbm:Genre3", genres}},
	}
	var out []adhocTemplate
	for _, q := range append(watdiv.BasicQuerySet(), watdiv.ExtendedQuerySet()...) {
		if s, ok := slots[q.Name]; ok {
			out = append(out, adhocTemplate{name: q.Name, text: q.Text, slots: s})
		}
	}
	l1, _ := watdiv.QueryByName("L1")
	prologue := l1.Text[:strings.Index(l1.Text, "SELECT")]
	out = append(out, adhocTemplate{
		name: "L1r",
		text: prologue + `SELECT ?u ?p ?c WHERE {
		?u wsdbm:userId ?id .
		?u wsdbm:likes ?p .
		?p sorg:caption ?c .
		FILTER(?id >= 0 && ?id < 8)
	}`,
		slots: []adhocSlot{{"?id >= 0 && ?id < 8", func(rng *rand.Rand, scale int) string {
			lo := rng.Intn(scale)
			return fmt.Sprintf("?id >= %d && ?id < %d", lo, lo+8)
		}}},
	})
	for _, t := range out {
		for _, s := range t.slots {
			if !strings.Contains(t.text, s.constant) {
				return nil, fmt.Errorf("adhoc template %s: query text has no %s to vary", t.name, s.constant)
			}
		}
	}
	return out, nil
}

// adhocRound draws adhocRoundSize queries: a template uniformly, then
// each of its constants uniformly from its pool.
func adhocRound(rng *rand.Rand, scale int) ([]op, error) {
	tmpls, err := adhocTemplates()
	if err != nil {
		return nil, err
	}
	out := make([]op, 0, adhocRoundSize)
	for len(out) < adhocRoundSize {
		t := tmpls[rng.Intn(len(tmpls))]
		text := t.text
		for _, s := range t.slots {
			text = strings.Replace(text, s.constant, s.draw(rng, scale), 1)
		}
		out = append(out, op{text: text, family: t.name[:1]})
	}
	return out, nil
}
