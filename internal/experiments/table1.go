package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table1Row is one debugging target's line-of-code comparison: the code a
// developer writes with the ML-EXray APIs versus the manual equivalent
// (hand-rolled logging, log parsing and comparison).
type Table1Row struct {
	Target        string
	WithInst      int
	WithAssert    int
	WithoutInst   int
	WithoutAssert int
}

// countLoC counts non-blank, non-comment lines — how the paper counts.
func countLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		n++
	}
	return n
}

// The "with ML-EXray" snippets are the instrumentation and assertion code
// the examples in examples/ actually use; the "without" snippets are the
// manual equivalents a developer writes when no framework exists (capture,
// serialize, parse, align, diff). Both are real Go against this repository's
// types — the counts are measured from the code below, not asserted.

const withPreprocInst = `
mon.LogTensorFull(core.KeyPreprocessOutput, input)
`

const withPreprocAssert = `
rep, _ := core.Validate(edgeLog, refLog, core.DefaultValidateOptions())
for _, f := range rep.Findings {
	fmt.Println(f.Assertion, f.Detail)
}
`

const withoutPreprocInst = `
f, err := os.Create("edge_preproc.bin")
if err != nil {
	log.Fatal(err)
}
defer f.Close()
if err := binary.Write(f, binary.LittleEndian, int32(len(input.Shape))); err != nil {
	log.Fatal(err)
}
for _, d := range input.Shape {
	if err := binary.Write(f, binary.LittleEndian, int32(d)); err != nil {
		log.Fatal(err)
	}
}
if err := binary.Write(f, binary.LittleEndian, input.F); err != nil {
	log.Fatal(err)
}
`

const withoutPreprocAssert = `
edge := readTensor("edge_preproc.bin")
ref := readTensor("ref_preproc.bin")
swapped := swapChannels(edge)
if !allClose(edge, ref) && allClose(swapped, ref) {
	fmt.Println("BGR->RGB mismatch")
}
`

const withQuantInst = `
mon := core.NewMonitor(core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true))
cl, err := pipeline.NewClassifier(model, pipeline.Options{Resolver: r, Monitor: mon})
run(cl)
mon.Log().WriteJSONL(out)
`

const withQuantAssert = `
diffs, err := core.CompareLayers(edgeLog, refLog)
if err != nil {
	log.Fatal(err)
}
if spike, ok := core.FirstSpike(diffs, 0.1, 3); ok {
	fmt.Printf("suspect %s kernel at layer %d (%s)\n", spike.OpType, spike.Index, spike.Name)
}
for _, d := range diffs {
	fmt.Printf("%d %s %.4f\n", d.Index, d.Name, d.NRMSE)
}
`

const withoutQuantInst = `
type layerDump struct {
	Index int
	Name  string
	Op    string
	Shape []int
	Data  []float32
}
var dumps []layerDump
hook := func(ev interp.NodeEvent) {
	out := ev.Outputs[0]
	vals := make([]float32, out.Len())
	if out.DType == tensor.U8 {
		q := ev.OutQuant[0]
		for i, v := range out.U {
			vals[i] = float32(q.DequantizeU8(v, 0))
		}
	} else {
		copy(vals, out.F)
	}
	dumps = append(dumps, layerDump{ev.Index, ev.Node.Name, ev.Node.Op.String(), out.Shape, vals})
}
ip, err := interp.New(model, resolver, interp.WithHook(hook))
if err != nil {
	log.Fatal(err)
}
for _, im := range images {
	in := preprocess(im)
	if err := ip.SetInput(0, in); err != nil {
		log.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		log.Fatal(err)
	}
}
f, err := os.Create("layers.json")
if err != nil {
	log.Fatal(err)
}
enc := json.NewEncoder(f)
for _, d := range dumps {
	if err := enc.Encode(d); err != nil {
		log.Fatal(err)
	}
}
f.Close()
`

const withoutQuantAssert = `
readDumps := func(path string) map[string][]layerDump {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	out := map[string][]layerDump{}
	dec := json.NewDecoder(f)
	for {
		var d layerDump
		if err := dec.Decode(&d); err == io.EOF {
			break
		} else if err != nil {
			log.Fatal(err)
		}
		out[d.Name] = append(out[d.Name], d)
	}
	return out
}
edge := readDumps("edge_layers.json")
ref := readDumps("ref_layers.json")
type diff struct {
	index int
	name  string
	op    string
	nrmse float64
}
var diffs []diff
for name, eds := range edge {
	rds, ok := ref[name]
	if !ok || len(rds) != len(eds) {
		continue
	}
	var sum float64
	for i := range eds {
		if len(eds[i].Data) != len(rds[i].Data) {
			continue
		}
		var sq, mn, mx float64
		mn, mx = math.Inf(1), math.Inf(-1)
		for j := range eds[i].Data {
			d := float64(eds[i].Data[j] - rds[i].Data[j])
			sq += d * d
			v := float64(rds[i].Data[j])
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		rmse := math.Sqrt(sq / float64(len(eds[i].Data)))
		if mx > mn {
			rmse /= mx - mn
		}
		sum += rmse
	}
	diffs = append(diffs, diff{eds[0].Index, name, eds[0].Op, sum / float64(len(eds))})
}
sort.Slice(diffs, func(i, j int) bool { return diffs[i].index < diffs[j].index })
prev := 0.0
for _, d := range diffs {
	if d.nrmse > 0.1 && (prev == 0 || d.nrmse > 3*prev) {
		fmt.Printf("suspect %s at %d (%s)\n", d.op, d.index, d.name)
		break
	}
	prev = d.nrmse
}
`

const withLatencyInst = `
mon := core.NewMonitor()
cl, err := pipeline.NewClassifier(model, pipeline.Options{Device: dev, Monitor: mon})
run(cl)
mon.Log().WriteJSONL(out)
`

const withLatencyAssert = `
a := core.LatencyBudgetAssertion{BudgetNs: 33e6}
if f := a.Check(&core.AssertCtx{Edge: edgeLog, Ref: refLog}); f != nil {
	fmt.Println(f.Detail)
}
mem := interpArena + weights
fmt.Println("memory:", mem)
`

const withoutLatencyInst = `
var lats []time.Duration
for _, im := range images {
	in := preprocess(im)
	start := time.Now()
	if err := ip.SetInput(0, in); err != nil {
		log.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		log.Fatal(err)
	}
	lats = append(lats, time.Since(start))
}
f, _ := os.Create("lat.csv")
for _, l := range lats {
	fmt.Fprintln(f, l.Nanoseconds())
}
f.Close()
`

const withoutLatencyAssert = `
var sum time.Duration
for _, l := range lats {
	sum += l
}
mean := sum / time.Duration(len(lats))
if mean > 33*time.Millisecond {
	fmt.Println("over budget:", mean)
}
fmt.Println("memory:", arena+weights)
`

const withPerLayerLatInst = `
mon := core.NewMonitor(core.WithPerLayer(true))
cl, err := pipeline.NewClassifier(model, pipeline.Options{Device: dev, Monitor: mon})
`

const withPerLayerLatAssert = `
for _, name := range core.Stragglers(mon.Log(), 8) {
	fmt.Println("straggler:", name)
}
agg := core.LatencyByClass(mon.Log(), classOf)
for _, a := range agg {
	fmt.Printf("%s %d %.2fms\n", a.Class, a.Count, a.TotalNs/1e6)
}
`

const withoutPerLayerLatInst = `
type layerLat struct {
	name string
	op   string
	ns   []float64
}
lats := map[string]*layerLat{}
hook := func(ev interp.NodeEvent) {
	ll, ok := lats[ev.Node.Name]
	if !ok {
		ll = &layerLat{name: ev.Node.Name, op: ev.Node.Op.String()}
		lats[ev.Node.Name] = ll
	}
	ll.ns = append(ll.ns, float64(ev.Measured.Nanoseconds()))
}
ip, err := interp.New(model, resolver, interp.WithHook(hook))
if err != nil {
	log.Fatal(err)
}
`

const withoutPerLayerLatAssert = `
var means []float64
byName := map[string]float64{}
for name, ll := range lats {
	var s float64
	for _, v := range ll.ns {
		s += v
	}
	m := s / float64(len(ll.ns))
	byName[name] = m
	means = append(means, m)
}
sort.Float64s(means)
median := means[len(means)/2]
for name, m := range byName {
	if m > 8*median {
		fmt.Println("straggler:", name)
	}
}
byClass := map[string]float64{}
for _, ll := range lats {
	var s float64
	for _, v := range ll.ns {
		s += v
	}
	byClass[classOf(ll.op)] += s
}
for c, ns := range byClass {
	fmt.Printf("%s %.2fms\n", c, ns/1e6)
}
`

// Table1 measures the snippets above.
func Table1() []Table1Row {
	return []Table1Row{
		{"Preprocessing", countLoC(withPreprocInst), countLoC(withPreprocAssert),
			countLoC(withoutPreprocInst), countLoC(withoutPreprocAssert)},
		{"Quantization", countLoC(withQuantInst), countLoC(withQuantAssert),
			countLoC(withoutQuantInst), countLoC(withoutQuantAssert)},
		{"Lat. & Mem.", countLoC(withLatencyInst), countLoC(withLatencyAssert),
			countLoC(withoutLatencyInst), countLoC(withoutLatencyAssert)},
		{"Per-layer Lat.", countLoC(withPerLayerLatInst), countLoC(withPerLayerLatAssert),
			countLoC(withoutPerLayerLatInst), countLoC(withoutPerLayerLatAssert)},
	}
}

// RenderTable1 prints the LoC comparison.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1 — lines of code with vs without ML-EXray\n")
	fmt.Fprintf(w, "%-16s | %5s %5s %6s | %5s %5s %6s\n", "target", "inst", "asrt", "total", "inst", "asrt", "total")
	fmt.Fprintf(w, "%-16s | %18s | %18s\n", "", "with ML-EXray", "without")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s | %5d %5d %6d | %5d %5d %6d\n", r.Target,
			r.WithInst, r.WithAssert, r.WithInst+r.WithAssert,
			r.WithoutInst, r.WithoutAssert, r.WithoutInst+r.WithoutAssert)
	}
}
