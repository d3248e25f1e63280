// Command kplistbench is kplist's end-to-end serving benchmark. It boots
// real kplistd servers, and for the cluster workload a kplistgw gateway,
// on loopback listeners. It drives them with a closed loop of two clients
// over two keep-alive connections and checks every response against
// answers computed before the timed window. It then prints the end-to-end
// metrics. With -trace 1 it instead runs the same window half untraced
// and half traced, plus a layer ladder, and prints the per-layer metrics.
//
//	bash benchmark/run.sh --workload node-read-hot --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --seed 1          # every workload, one child process each
//	bash benchmark/run.sh -compare dirA dirB
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed check makes the
// exit status non-zero. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one workload run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	corrupt  bool
	spans    string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a child process reports and -json stores: the result
// plus what is needed to attribute its spread (host, sample counts, ring
// placement) and the first failures.
type record struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Result    result         `json:"result"`
	Host      hostInfo       `json:"host"`
	Samples   map[string]int `json:"samples,omitempty"`
	Placement []placement    `json:"placement,omitempty"`
	Info      map[string]any `json:"info,omitempty"`
	Failures  []string       `json:"failures,omitempty"`
	Setups    []float64      `json:"setupSeconds,omitempty"`
}

// childTimeout bounds one workload's child process: a run must finish
// within 180 s, and the parent must still report the failure in time.
const childTimeout = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kplistbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run; empty runs all of them, each in its own child process")
		seed    = fs.Int64("seed", 1, "seed every input and op sequence derives from")
		seconds = fs.Float64("seconds", 20, "length of the timed window in seconds")
		trace   = fs.Int("trace", 0, "1: report per-layer metrics from a traced window and the layer ladder; 0: end-to-end metrics")
		spans   = fs.String("spans", "", "with -trace 1, where to write the spans as JSON lines (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
		jsonOut = fs.String("json", "", "append each run's full record to this file as one JSON line")
		compare = fs.Bool("compare", false, "compare two directories of -json records: -compare <dirA> <dirB>")
		child   = fs.Bool("child", false, "run the workload in this process (the parent passes it to its children)")
		tiny    = fs.Bool("tiny", false, "shrink every input, for tests")
		corrupt = fs.Bool("corrupt", false, "corrupt the expected answers, to show that the checks fail the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "kplistbench: -compare needs two directories")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "kplistbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "kplistbench: -seconds must be positive, got %g\n", *seconds)
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		tiny: *tiny, corrupt: *corrupt, spans: *spans}
	if *child {
		rec, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "kplistbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rec); err != nil {
			fmt.Fprintln(stderr, "kplistbench:", err)
			return 1
		}
		return 0
	}

	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = workloadNames()
	} else if workloadByName(cfg.workload) == nil {
		fmt.Fprintf(stderr, "kplistbench: unknown workload %q (known: %v)\n", cfg.workload, workloadNames())
		return 2
	}
	code := 0
	for _, w := range names {
		c := cfg
		c.workload = w
		rec, err := runChild(c, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "kplistbench: %s: %v\n", w, err)
			return 1
		}
		printHuman(stderr, rec)
		if *jsonOut != "" {
			if err := appendRecord(*jsonOut, rec); err != nil {
				fmt.Fprintln(stderr, "kplistbench:", err)
				return 1
			}
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fmt.Fprintln(stderr, "kplistbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rec.Result.Correct || rec.Result.Failed > 0 {
			code = 1
		}
	}
	return code
}

// runChild runs one workload in a fresh child process of this binary, so
// every workload starts from an empty heap and its peak RSS is its own.
func runChild(cfg config, stderr io.Writer) (record, error) {
	exe, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	args := []string{"-child", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace]}
	if cfg.spans != "" {
		args = append(args, "-spans", cfg.spans)
	}
	if cfg.tiny {
		args = append(args, "-tiny")
	}
	if cfg.corrupt {
		args = append(args, "-corrupt")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return record{}, fmt.Errorf("child did not finish within %s", childTimeout)
		}
		return record{}, fmt.Errorf("child: %w", err)
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if len(last) == 0 {
		return record{}, errors.New("child printed no record")
	}
	var rec record
	if err := json.Unmarshal(last, &rec); err != nil {
		return record{}, fmt.Errorf("child record: %w", err)
	}
	return rec, nil
}

// printHuman writes one run's metrics, host and counts for a reader.
func printHuman(w io.Writer, rec record) {
	h, _ := json.Marshal(rec.Host)
	fmt.Fprintf(w, "== %s seed=%d seconds=%g trace=%v host=%s\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace, h)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	kinds := make([]string, 0, len(rec.Samples))
	for k := range rec.Samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  samples %-26s %d\n", k, rec.Samples[k])
	}
	if lat, ok := rec.Info["latency"].(map[string]any); ok {
		for _, k := range kinds {
			if v, ok := lat[k].([]any); ok && len(v) == 3 {
				fmt.Fprintf(w, "  latency %-26s p50 %.4g ms  p90 %.4g ms  p99 %.4g ms\n", k, v[0], v[1], v[2])
			}
		}
	}
	for _, p := range rec.Placement {
		fmt.Fprintf(w, "  placement %s id=%s owner=%s replicas=%v shardEdges=%v scatterWork=%.3f of %.3v\n",
			p.Graph, p.ID, p.Owner, p.Replicas, p.ShardEdges, p.ScatterWork, p.Candidates)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

func appendRecord(path string, rec record) error {
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
