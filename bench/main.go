// Command bench is the repository's benchmark: four single-driver workloads
// over the edge inference stack and the collector tier, five end-to-end
// metrics measured untraced, and a per-layer ledger from a separate traced
// run. BENCHMARK.json at the repository root declares the same names; see
// README.md for what each measures and why.
//
//	bash bench/run.sh --workload edge_eval --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -workload all -trace on      # every workload, both runs
//	bash bench/run.sh -agree                       # do two runs of this commit agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"mlexray/internal/zoo"
)

// setups is how many times a run sets its workload up; setup_s is their
// median.
const setups = 3

// metricDecl names one metric and its unit, as BENCHMARK.json declares it.
type metricDecl struct{ name, unit string }

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// series is a metric with the samples behind it, for the human-readable
// lines and the JSON record.
type series struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"samples"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Samples are the values Value is the median of, in the order taken,
	// when they are few enough to keep (per pass, per set-up).
	Samples []float64 `json:"samples_values,omitempty"`
}

// medianOf is a metric reported as the median of its samples.
func medianOf(name, unit string, xs []float64) series {
	lo, hi := minMax(xs)
	return series{Name: name, Unit: unit, Value: median(xs), N: len(xs), Min: lo, Max: hi, Samples: xs}
}

// passSample is what one timed pass cost, and how fast the host ran the
// reference work right after it.
type passSample struct {
	wall, cpu time.Duration
	latency   time.Duration // the pass's median latency sample
	speed     float64
}

// roundStats is what a stretch of passes cost in all. nominal is the
// passes' wall time at the nominal host speed, without the reference work.
type roundStats struct {
	frames  int
	nominal time.Duration
	alloc   uint64
}

func (s roundStats) fps() float64 { return float64(s.frames) / s.nominal.Seconds() }

// referenceShare is how much reference work follows each pass, as a share of
// the pass's own time.
const referenceShare = 0.1

// runRound repeats whole passes, each followed by reference work, until d
// has elapsed, and records a sample per pass in r.
func runRound(inst instance, r *recorder, d time.Duration, pass *int) (roundStats, error) {
	before := snapshot()
	var s roundStats
	for {
		start, cpu, lat := time.Now(), cpuTime(), len(r.lat)
		if err := inst.pass(r, *pass); err != nil {
			return s, err
		}
		p := passSample{wall: time.Since(start), cpu: cpuTime() - cpu, latency: medianDuration(r.lat[lat:], &r.scratch)}
		p.speed = hostSpeed(time.Duration(referenceShare * float64(p.wall)))
		r.passes = append(r.passes, p)
		*pass++
		s.frames += inst.framesPerPass()
		s.nominal += time.Duration(float64(p.wall) * p.speed)
		if time.Since(before.wall) >= d {
			break
		}
	}
	s.alloc = snapshot().alloc - before.alloc
	return s, nil
}

// verifier is implemented by workloads with an output check too costly to
// run on every pass; it runs once, after the timed phase.
type verifier interface{ verify(r *recorder) error }

// measurement is one run's outcome for one workload.
type measurement struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failure   string   `json:"first_failure,omitempty"`
	Passes    int      `json:"passes"`
	Frames    int      `json:"frames_per_pass"`
	Series    []series `json:"metrics"`
	// Unscaled (untraced runs) is the host's speed during the run and the
	// time-based metrics as the clock read them, before scaling by it. They
	// are for the reader; they gate nothing.
	Unscaled []series `json:"unscaled,omitempty"`
	// TracePath and SelfTime (traced runs) say where the spans were written
	// and how the traced time splits by span name: a span's self time is its
	// duration minus the part its children cover.
	TracePath string                   `json:"trace_file,omitempty"`
	SelfTime  map[string]time.Duration `json:"self_time_ns,omitempty"`
}

func (m *measurement) result() result {
	res := result{Correct: m.Failed == 0, Attempted: m.Attempted, Failed: m.Failed, Metrics: map[string]metricValue{}}
	for _, s := range m.Series {
		res.Metrics[s.Name] = metricValue{s.Value, s.Unit}
	}
	return res
}

// setUp sets the workload up n times and returns the last instance and what
// each set-up cost a new process, in seconds at the nominal host speed: the
// model load plus the set-up, scaled by the reference work that follows it.
func setUp(w workload, e *env, r *recorder, n int) (instance, []float64, error) {
	var inst instance
	var took []float64
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(e, r); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := e.modelLoad + time.Since(start)
		took = append(took, d.Seconds()*hostSpeed(time.Duration(referenceShare*float64(d))))
	}
	return inst, took, nil
}

// measureE2E is the untraced run: set-up, then timed passes for the given
// seconds, then the deferred output checks. Each time-based metric is the
// median over the passes of the pass's value at the nominal host speed; the
// unscaled medians and the host speed go into the record beside them.
func measureE2E(w workload, e *env, seconds float64) (*measurement, error) {
	n := setups
	if e.quick {
		n = 1
	}
	r := &recorder{}
	inst, took, err := setUp(w, e, r, n)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	r.lat = make([]time.Duration, 0, 1<<17) // drops the warm-up passes' samples

	pass := 0
	total, err := runRound(inst, r, time.Duration(seconds*float64(time.Second)), &pass)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if v, ok := inst.(verifier); ok {
		if err := v.verify(r); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}

	frames := float64(inst.framesPerPass())
	var fps, cpu, lat, speed, rawFPS, rawCPU, rawLat []float64
	for _, p := range r.passes {
		passFPS := frames / p.wall.Seconds()
		passCPU := float64(p.cpu) / float64(time.Microsecond) / frames
		passLat := float64(p.latency) / float64(time.Millisecond)
		fps, cpu, lat = append(fps, passFPS/p.speed), append(cpu, passCPU*p.speed), append(lat, passLat*p.speed)
		rawFPS, rawCPU, rawLat = append(rawFPS, passFPS), append(rawCPU, passCPU), append(rawLat, passLat)
		speed = append(speed, p.speed)
	}
	alloc := float64(total.alloc) / 1024 / float64(total.frames)
	m := &measurement{Workload: w.name, Attempted: r.attempted, Failed: r.failed, Failure: r.firstFailure, Passes: pass, Frames: inst.framesPerPass()}
	m.Series = []series{
		medianOf("setup_s", "s", took),
		medianOf("frames_per_s", "frames/s", fps),
		medianOf("cpu_us_per_frame", "us", cpu),
		{Name: "alloc_kb_per_frame", Unit: "KiB", Value: alloc, N: total.frames, Min: alloc, Max: alloc},
		medianOf("latency_p50_ms", "ms", lat),
	}
	slices.Sort(r.lat)
	m.Unscaled = []series{
		medianOf("host_speed", "ratio", speed),
		medianOf("frames_per_s", "frames/s", rawFPS),
		medianOf("cpu_us_per_frame", "us", rawCPU),
		medianOf("latency_p50_ms", "ms", rawLat),
		// The tail is not an end-to-end metric: on edge_capture its run-to-run
		// spread exceeded the largest bound a metric may have (README,
		// "Sizing"). It is the pooled percentile of every sample of the run.
		{Name: "latency_p99_ms", Unit: "ms", Value: percentileMs(r.lat, 0.99), N: len(r.lat), Min: percentileMs(r.lat, 0), Max: percentileMs(r.lat, 1)},
	}
	return m, nil
}

// record is the JSON file a run leaves under -out: the measurements plus
// everything needed to tell where and how they were taken.
type record struct {
	Quick        bool           `json:"quick,omitempty"`
	Host         hostInfo       `json:"host"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Sizes        map[string]int `json:"frames_per_pass"`
	Measurements []*measurement `json:"measurements"`
}

func printMeasurement(out io.Writer, m *measurement, quick bool) {
	tag := ""
	if quick {
		tag = "QUICK-NOT-A-RESULT "
	}
	kind := "end-to-end"
	if m.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(out, "%s%s %s: %d passes of %d frames, %d checks, %d failed\n", tag, m.Workload, kind, m.Passes, m.Frames, m.Attempted, m.Failed)
	printSeries := func(indent string, list []series) {
		for _, s := range list {
			fmt.Fprintf(out, "%s%s%-32s %14.4f %-9s n=%-6d", tag, indent, s.Name, s.Value, s.Unit, s.N)
			if s.Min != s.Max {
				fmt.Fprintf(out, " min=%.4f max=%.4f", s.Min, s.Max)
			}
			fmt.Fprintln(out)
		}
	}
	printSeries("  ", m.Series)
	if len(m.Unscaled) > 0 {
		fmt.Fprintf(out, "%s  as the clock read them, before scaling by host_speed:\n", tag)
		printSeries("    ", m.Unscaled)
	}
	if m.TracePath != "" {
		var total time.Duration
		for _, d := range m.SelfTime {
			total += d
		}
		fmt.Fprintf(out, "%s  self time by span name (%s):\n", tag, m.TracePath)
		for _, name := range slices.Sorted(maps.Keys(m.SelfTime)) {
			fmt.Fprintf(out, "%s    %-30s %10.1f ms %5.1f%%\n", tag, name, float64(m.SelfTime[name])/1e6, 100*float64(m.SelfTime[name])/float64(total))
		}
	}
	if m.Failure != "" {
		fmt.Fprintf(out, "%s  FAILED: %s\n", tag, m.Failure)
	}
}

// printResult writes the machine-read result line. A -quick run prefixes it
// so it can never be parsed as a result.
func printResult(out io.Writer, m *measurement, quick bool) error {
	line, err := json.Marshal(m.result())
	if err != nil {
		return err
	}
	if quick {
		fmt.Fprintf(out, "QUICK-NOT-A-RESULT %s\n", line)
		return nil
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run: edge_eval|edge_capture|collector_ingest|exray_quant|all")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", 20, "measuring time per run")
		traceF  = fs.String("trace", "off", "0|off: untraced end-to-end run; 1|only: traced per-layer run; on: both")
		quick   = fs.Bool("quick", false, "tiny sizes for tests; the output is labelled and is not a result")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "directory for the JSON record and the trace files")
		agree   = fs.Bool("agree", false, "run the untraced suite twice and fail if the two disagree beyond BENCHMARK.json's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var untraced, traced bool
	switch *traceF {
	case "0", "off":
		untraced = true
	case "1", "only":
		traced = true
	case "on":
		untraced, traced = true, true
	default:
		return fmt.Errorf("-trace %q: want 0, 1, off, on or only", *traceF)
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive (got %v)", *seconds)
	}
	decl, err := loadDeclared()
	if err != nil {
		return err
	}
	if err := decl.checkWorkloads(); err != nil {
		return err
	}
	// zoo keeps the loaded model for the life of the process, so its load
	// (checkpoint read, convert.Optimize, calibration, quantisation) can be
	// timed only here, once; every set-up sample is charged it.
	referenceWork() // touches its buffers before anything is timed
	start := time.Now()
	if _, err := zoo.Get(modelName); err != nil {
		return err
	}
	modelLoad := time.Since(start)
	tmp, err := os.MkdirTemp("", "mlexray-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: *seed, sizes: fullSizes, quick: *quick, tmp: tmp, modelLoad: modelLoad}
	if *quick {
		e.sizes = quickSizes
	}
	if *agree {
		return runAgree(stdout, decl, selected, e, *seconds)
	}

	rec := record{Quick: *quick, Host: host(), Seed: *seed, Seconds: *seconds, Sizes: map[string]int{}}
	fmt.Fprintf(stdout, "host: %s, %d cpus, GOMAXPROCS %d, %s, commit %s; seed %d, %.0f s per run\n",
		rec.Host.CPU, rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Commit, *seed, *seconds)
	var lines []*measurement // one result line per workload
	for _, w := range selected {
		var runs []*measurement
		if untraced {
			m, err := measureE2E(w, e, *seconds)
			if err != nil {
				return err
			}
			runs = append(runs, m)
		}
		if traced {
			m, err := measureLayers(w, e, *seconds, *outDir)
			if err != nil {
				return err
			}
			runs = append(runs, m)
		}
		// Under -trace on the line carries both runs' metrics and checks.
		line := &measurement{Workload: w.name}
		for _, m := range runs {
			if err := decl.checkEmitted(m); err != nil {
				return err
			}
			printMeasurement(stdout, m, *quick)
			rec.Sizes[w.name] = m.Frames
			line.Series = append(line.Series, m.Series...)
			line.Attempted += m.Attempted
			line.Failed += m.Failed
		}
		rec.Measurements = append(rec.Measurements, runs...)
		lines = append(lines, line)
	}
	if err := writeRecord(*outDir, &rec); err != nil {
		return err
	}
	// The result lines come last: the final line of output is a result.
	failed := 0
	for _, line := range lines {
		if err := printResult(stdout, line, *quick); err != nil {
			return err
		}
		failed += line.Failed
	}
	if failed > 0 {
		return fmt.Errorf("output verification failed: %d checks", failed)
	}
	return nil
}

func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644)
}
