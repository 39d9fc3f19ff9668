// Command perfbench is the repository's wall-clock benchmark. It
// generates a WatDiv graph, writes it as N-Triples in a seeded order,
// hands the program only that document and query texts, and measures
// one workload in a closed loop with a single client:
//
//	watdiv-mix    the 20 basic and 6 extended WatDiv queries, materialized
//	adhoc-stream  seeded constant lookups, streamed over loopback HTTP
//	sharded-mix   the mix through a coordinator and two shard servers
//
// Every answer is checked against an independent reference evaluator,
// and the last line of standard output is one JSON object with the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a
// traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const (
	// benchScale is the WatDiv scale (users; about 21 triples each):
	// large enough that a run's figures are steady, small enough that
	// a set-up takes about a second.
	benchScale = 5000
	// benchSetups is how many set-ups a run makes; setup_s is their
	// median.
	benchSetups = 5
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "watdiv-mix", "workload: watdiv-mix, adhoc-stream or sharded-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the triple order and the adhoc-stream constants")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "minimum measured time; the run ends after the round in progress")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and reports the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its span file to")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.scale, cfg.setups = benchScale, benchSetups
	cfg.spans = filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	cfg.log = os.Stderr

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
