// Command perfbench is the repository's benchmark: one process, one
// seeded workload per invocation, end-to-end metrics untraced
// (--trace 0) or per-layer metrics from a traced run (--trace 1).  It
// checks every run against a model of committed state and prints, as its
// last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it; see perfbench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ariesrh/internal/wal"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64 // workload size factor; below 1 only in the self-test
	data     string  // directory for file-backed databases
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	c := config{scale: 1}
	var trace int
	var spec bool
	flag.StringVar(&c.workload, "workload", "", "workload name")
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&c.data, "data", filepath.Join(".bench_build", "perfbench-data"), "directory for file-backed databases")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if spec {
		b, _ := json.MarshalIndent(benchmarkSpec(), "", "  ")
		fmt.Println(string(b))
		return
	}
	c.trace = trace == 1
	res, record, err := execute(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec, _ := json.Marshal(record)
	fmt.Printf("run %s\n", rec)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Printf("metric %-34s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns its result and run record.
func execute(c config) (*result, map[string]any, error) {
	sp, ok := specByName(c.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	sp = sp.scaled(c.scale)
	root := filepath.Join(c.data, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root)
	r := &run{sp: sp, seed: c.seed, dur: time.Duration(c.seconds * float64(time.Second)), root: root}
	if c.trace {
		r.t = &tracer{}
	}
	for i := 1; i <= sp.objects; i++ {
		r.objs = append(r.objs, wal.ObjectID(i))
	}
	r.pools = shardPools(r.objs, sp.shards)
	record := runRecord(c, sp)

	steal0, all0 := hostSteal()
	// Set up several times; report the median, run on the last.
	const setups = 5
	for i := 0; i < setups; i++ {
		if err := r.setup(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer r.st.Close()

	vals, err := r.measure(c.trace)
	if err != nil {
		return nil, nil, err
	}
	vals["setup_s"] = medianDur(r.setups).Seconds()
	vals["failed_frac"] = ratio(float64(r.total.failed), float64(r.total.attempted))

	res := &result{Correct: r.total.badReads == 0, Attempted: r.total.attempted, Failed: r.total.failed, Metrics: map[string]metric{}}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	steal1, all1 := hostSteal()
	record["host_steal_frac"] = ratio(steal1-steal0, all1-all0)
	record["oracle"] = "passed"
	return res, record, nil
}

// measure runs the workload's phases and computes its metrics.
func (r *run) measure(trace bool) (map[string]float64, error) {
	vals := map[string]float64{}
	var measured []phase // what end-to-end or per-layer metrics come from
	var untraced []phase // trace mode: the same load untraced, for the overhead
	var cycles []cycleResult
	warm := min(time.Second, r.dur/5)
	phaseSeed := func(k uint64) uint64 { return r.seed ^ k<<40 }

	if r.sp.name == "restart" {
		// The measured phase is the cycles themselves: one warm-up
		// cycle, in trace mode one untraced, then cycles until the
		// time is up.
		deadline := time.Now().Add(r.dur)
		for i := 0; i == 0 || i <= r.sp.cycles || time.Now().Before(deadline); i++ {
			cyc, err := r.cycle(i, r.sp.cycleTxns, trace && i >= 2)
			if err != nil {
				return nil, err
			}
			switch {
			case i == 0:
			case trace && i == 1:
				untraced = append(untraced, cyc.load)
			default:
				measured = append(measured, cyc.load)
				cycles = append(cycles, cyc)
			}
		}
	} else {
		if _, err := r.drive(phaseSeed(0), warm, false); err != nil {
			return nil, err
		}
		if trace {
			p, err := r.drive(phaseSeed(1), r.dur/2, false)
			if err != nil {
				return nil, err
			}
			untraced = append(untraced, p)
		}
		// Restart cycles interleave with the clients' run, so both
		// sample the host over the whole run.  The first cycle's
		// verification is the exactness oracle for everything the
		// clients committed before it; each later one, for the
		// stretch since the previous.
		for i := 0; i < r.sp.cycles; i++ {
			p, err := r.drive(phaseSeed(uint64(2+i)), r.dur/time.Duration(r.sp.cycles), trace)
			if err != nil {
				return nil, err
			}
			if err := p.checkRetained(); err != nil {
				return nil, err
			}
			measured = append(measured, p)
			cyc, err := r.cycle(i, r.sp.cycleTxns, trace)
			if err != nil {
				return nil, err
			}
			cycles = append(cycles, cyc)
		}
	}
	a := aggregate(measured)
	var seq, first, full []time.Duration
	var heaps []int64
	for _, c := range cycles {
		seq = append(seq, c.seq)
		heaps = append(heaps, int64(c.heapPeak))
		first = append(first, c.first)
		full = append(full, c.full)
	}
	vals["txn_p50_us"] = quantile(a.s.txnLat, 0.5) / 1e3
	vals["read_p50_us"] = quantile(a.s.readLat, 0.5) / 1e3
	vals["cpu_us_per_txn"] = ratio(float64(a.cpu)/1e3, float64(a.s.txns))
	vals["heap_mb"] = quantile(heaps, 0.5) / (1 << 20)
	vals["log_bytes_per_user_byte"] = ratio(float64(a.met.Counters["wal.flushed_bytes"]), float64(a.s.payload))
	vals["recover_ms"] = float64(medianDur(seq)) / 1e6
	vals["instant_first_read_ms"] = float64(medianDur(first)) / 1e6
	vals["instant_recovered_ms"] = float64(medianDur(full)) / 1e6
	if trace {
		for k, v := range layerMetrics(a) {
			vals[k] = v
		}
		for k, v := range recoveryMetrics(cycles) {
			vals[k] = v
		}
		if r.sp.fileProbe {
			fv, err := r.fileProbe(phaseSeed(1 << 20))
			if err != nil {
				return nil, fmt.Errorf("file probe: %w", err)
			}
			for k, v := range fv {
				vals[k] = v
			}
		} else {
			for _, d := range perLayer {
				if strings.HasPrefix(d.name, "file.") || strings.HasPrefix(d.name, "gen.") {
					vals[d.name] = 0
				}
			}
		}
		u := quantile(aggregate(untraced).s.txnLat, 0.5) / 1e3
		vals["trace.untraced_txn_p50_us"] = u
		vals["trace.overhead_frac"] = ratio(vals["trace.txn_p50_us"]-u, u)
		// Sum check: the API spans must cover the transaction spans up
		// to the bench's own bookkeeping between calls.
		if cover := vals["trace.api_cover_frac"]; cover < 1-apiCoverTolerance || cover > 1 {
			return nil, fmt.Errorf("API spans cover %.3f of transaction time, outside 1±%.2f", cover, apiCoverTolerance)
		}
	}
	if r.total.failed > 0 {
		return nil, fmt.Errorf("%d of %d operations failed, first: %w", r.total.failed, r.total.attempted, r.total.firstErr)
	}
	return vals, nil
}

// fileProbe runs the workload's clients for half the run on a fresh
// file-backed database (FileDir log with real fsync; file-backed pages
// unless sharded, whose traced pages stay in memory), traced, as an
// open loop when the workload sets fileRate.  Latencies on a shared
// disk swing too much between runs to bound, so they are per-layer
// diagnostics.
func (r *run) fileProbe(seed uint64) (map[string]float64, error) {
	sp := r.sp
	sp.file, sp.rate = true, sp.fileRate
	f := &run{sp: sp, seed: r.seed, dur: r.dur, t: &tracer{}, root: filepath.Join(r.root, "file"), objs: r.objs, pools: r.pools}
	if err := f.setup(); err != nil {
		return nil, err
	}
	p, err := f.drive(seed, r.dur/2, true)
	r.account(&p.s)
	if cerr := f.st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	a := aggregate([]phase{p})
	return map[string]float64{
		"file.setup_s":           f.setups[0].Seconds(),
		"file.txn_p50_us":        quantile(a.s.txnLat, 0.5) / 1e3,
		"file.read_p50_us":       quantile(a.s.readLat, 0.5) / 1e3,
		"file.commits_per_s":     ratio(float64(a.s.commits), a.elapsed.Seconds()),
		"file.log_syncs_per_txn": ratio(float64(a.dev.logSyncs.Count), float64(a.s.txns)),
		"file.log_sync_us":       histMeanUs(a.dev.logSyncs),
		"file.log_sync_p99_us":   float64(a.dev.logSyncs.Quantile(0.99)) / 1e3,
		"file.page_write_us":     histMeanUs(a.dev.pageWrites),
		"gen.lag_p99_us":         quantile(a.s.lag, 0.99) / 1e3,
		"gen.backlog_max":        float64(a.s.backlog),
	}, nil
}

// apiCoverTolerance is the share of a traced transaction's time allowed
// outside API spans: the bench's own work between calls (value encoding,
// the model's bookkeeping), 6–12% of a transaction on hot-delegate, plus
// preemption and GC assists landing between calls on a busy host.
const apiCoverTolerance = 0.25

// checkRetained fails a phase whose log kept growing: the checkpointer
// must hold the retained log to a bounded size, so numbers do not drift
// with run length.
func (p *phase) checkRetained() error {
	const limit = 1 << 20
	if p.retained > limit {
		return fmt.Errorf("log grew to %d retained records (limit %d)", p.retained, limit)
	}
	return nil
}

// runRecord describes the machine, build and options of a run.
func runRecord(c config, sp spec) map[string]any {
	return map[string]any{
		"workload":   sp.name,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      c.trace,
		"scale":      c.scale,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     gitCommit(),
		"options": map[string]any{
			"shards": sp.shards, "clients": sp.clients, "objects": sp.objects,
			"checkpoint_every": sp.ckptEvery.String(), "restart_cycles": sp.cycles, "cycle_txns": sp.cycleTxns,
			"file_probe": sp.fileProbe, "file_probe_open_loop_rate": sp.fileRate,
			"engine": "defaults (in-memory devices, group commit on, 128-page pool); ParallelRecovery only on the recovery probe",
		},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the commit from a .git directory above the working
// directory, or returns "unknown" (the benchmark may run from an export).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	b, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal returns the host's cumulative steal ticks and all ticks.
func hostSteal() (steal, all float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // guest time is already counted in user
			all += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, all
}

// gcCPU returns the Go runtime's cumulative GC CPU seconds and all CPU
// seconds it accounts.
func gcCPU() (gc, all float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// benchmarkSpec is BENCHMARK.json, generated from the workload and
// metric tables.
func benchmarkSpec() map[string]any {
	var ws []map[string]string
	for _, s := range specs {
		ws = append(ws, map[string]string{"name": s.name, "why": s.why})
	}
	var e2e, layer []map[string]any
	for _, d := range endToEnd {
		e2e = append(e2e, map[string]any{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayer {
		layer = append(layer, map[string]any{"name": d.name, "unit": d.unit, "better": d.better})
	}
	return map[string]any{
		"command":     []string{"bash", "perfbench/run.sh"},
		"paths":       []string{"perfbench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  e2e,
		"per_layer":   layer,
	}
}

// runSeconds is run_seconds in BENCHMARK.json: how long each run measures.
const runSeconds = 10
