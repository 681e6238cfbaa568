// Command exray runs the full ML-EXray deployment-validation flow on a zoo
// model: it executes an (optionally bugged) edge pipeline and the correct
// reference pipeline over the same data, compares the logs following the
// paper's Figure 2 flowchart, and prints the validation report with
// root-cause findings. Both replays shard across -parallel workers, and
// classification models run -batch frames per batched interpreter invoke.
//
// Instead of replaying, either side can be loaded from a pre-captured
// telemetry log (-edge-log / -ref-log): the file's encoding — JSONL or the
// binary format, e.g. from edgerun/refrun's -log-format — is auto-detected,
// and Validate produces identical reports whichever format the logs used.
//
// With -fleet the edge replay shards across several simulated devices
// ("profile:workers[:batch],..." under the -shard policy) and the standard
// report is followed by the fleet validation report: per-device agreement,
// drift and latency rollups plus cross-device divergence. -bug-device
// restricts the injected -bug to one fleet slot — the device-local fault
// class fleet validation isolates (the report flags exactly that device).
//
// Usage:
//
//	exray -model mobilenetv2-mini -bug channel
//	exray -model mobilenetv2-mini -quant -resolver optimized -perlayer -batch 32
//	exray -model kws-mini-a -bug specnorm
//	exray -edge-log edge.mlxb -ref-log ref.jsonl
//	exray -fleet "Pixel4:2:8,Pixel3:1,Emulator-x86:1" -bug normalization -bug-device 1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/graph"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exray:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exray", flag.ContinueOnError)
	var (
		model    = fs.String("model", "mobilenetv2-mini", "zoo model name")
		bug      = fs.String("bug", "none", "injected bug: none|resize|channel|normalization|rotation|specnorm|lowercase")
		quantF   = fs.Bool("quant", false, "deploy the quantized model version")
		resolver = fs.String("resolver", "optimized", "edge op resolver: optimized|reference")
		fixed    = fs.Bool("fixed", false, "use the repaired kernel build instead of the historical one")
		frames   = fs.Int("frames", 8, "evaluation frames")
		perLayer = fs.Bool("perlayer", true, "capture per-layer outputs for localisation")
		parallel = fs.Int("parallel", 0, "replay workers (0 = all cores)")
		batch    = fs.Int("batch", 8, "frames per batched interpreter invoke (1 = frame at a time)")
		fleetF   = fs.String("fleet", "", `shard the edge replay across a device fleet: "profile:workers[:batch],..."`)
		shard    = fs.String("shard", "round-robin", "fleet shard policy: contiguous|round-robin|weighted")
		bugDev   = fs.Int("bug-device", -1, "with -fleet, inject -bug into this device slot only (-1 = all devices)")
		edgePath = fs.String("edge-log", "", "validate this pre-captured edge log (jsonl or binary, auto-detected) instead of replaying")
		refPath  = fs.String("ref-log", "", "validate against this pre-captured reference log (jsonl or binary, auto-detected) instead of replaying")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := replay.ValidateFlags(*frames, *parallel, *batch); err != nil {
		return err
	}
	if *fleetF != "" {
		if *edgePath != "" {
			return fmt.Errorf("-fleet replays the edge side; it cannot combine with -edge-log")
		}
		return runFleetValidation(stdout, fleetConfig{
			model: *model, bug: *bug, quant: *quantF, resolver: *resolver, fixed: *fixed,
			frames: *frames, perLayer: *perLayer, spec: *fleetF, shard: *shard,
			bugDevice: *bugDev, refPath: *refPath,
		})
	}
	if *edgePath != "" && *refPath != "" {
		// Pure log-vs-log validation: no model or replay needed.
		edgeLog, err := loadLog(*edgePath, stdout, "edge")
		if err != nil {
			return err
		}
		refLog, err := loadLog(*refPath, stdout, "reference")
		if err != nil {
			return err
		}
		return validate(edgeLog, refLog, stdout)
	}

	// The model/resolver configuration applies only to the side(s) actually
	// being replayed; a file-loaded side describes itself via loadLog.
	entry, err := zoo.Get(*model)
	if err != nil {
		return err
	}

	var edgeLog *core.Log
	if *edgePath != "" {
		edgeLog, err = loadLog(*edgePath, stdout, "edge")
	} else {
		edgeModel := entry.Mobile
		if *quantF {
			edgeModel = entry.Quant
		}
		cfg := ops.Historical()
		if *fixed {
			cfg = ops.Fixed()
		}
		var edgeResolver *ops.Resolver
		switch *resolver {
		case "optimized":
			edgeResolver = ops.NewOptimized(cfg)
		case "reference":
			edgeResolver = ops.NewReference(cfg)
		default:
			return fmt.Errorf("unknown resolver %q", *resolver)
		}
		fmt.Fprintf(stdout, "edge:      %s (%s, %s resolver, bug=%s)\n", edgeModel.Name, edgeModel.Format, *resolver, *bug)
		edgeLog, err = captureLog(edgeModel, edgeResolver, pipeline.Bug(*bug), *frames, *perLayer, *parallel, *batch)
	}
	if err != nil {
		return err
	}
	var refLog *core.Log
	if *refPath != "" {
		refLog, err = loadLog(*refPath, stdout, "reference")
	} else {
		fmt.Fprintf(stdout, "reference: %s (%s, reference resolver, fixed kernels)\n", entry.Mobile.Name, entry.Mobile.Format)
		refLog, err = captureLog(entry.Mobile, ops.NewReference(ops.Fixed()), pipeline.BugNone, *frames, *perLayer, *parallel, *batch)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	return validate(edgeLog, refLog, stdout)
}

// fleetConfig carries the -fleet validation flow's flags.
type fleetConfig struct {
	model, bug, resolver, spec, shard, refPath string
	quant, fixed, perLayer                     bool
	frames, bugDevice                          int
}

// runFleetValidation replays the edge side across a device fleet, validates
// the merged log the standard way, and then cross-validates the per-device
// shard logs: the fleet report's per-device rollups isolate device-local
// faults the merged report can only average over.
func runFleetValidation(stdout io.Writer, cfg fleetConfig) error {
	devs, err := runner.ParseFleetSpec(cfg.spec)
	if err != nil {
		return err
	}
	policy, err := runner.ParseShardPolicy(cfg.shard)
	if err != nil {
		return err
	}
	if cfg.bugDevice < -1 || cfg.bugDevice >= len(devs) {
		return fmt.Errorf("-bug-device %d out of range for a %d-device fleet (-1 = all devices)", cfg.bugDevice, len(devs))
	}
	entry, err := zoo.Get(cfg.model)
	if err != nil {
		return err
	}
	m := entry.Mobile
	if cfg.quant {
		m = entry.Quant
	}
	kcfg := ops.Historical()
	if cfg.fixed {
		kcfg = ops.Fixed()
	}
	var edgeResolver *ops.Resolver
	switch cfg.resolver {
	case "optimized":
		edgeResolver = ops.NewOptimized(kcfg)
	case "reference":
		edgeResolver = ops.NewReference(kcfg)
	default:
		return fmt.Errorf("unknown resolver %q", cfg.resolver)
	}

	monOpts := []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(cfg.perLayer)}
	images := replay.Images(datasets.SynthImageNet(5555, cfg.frames))
	fleet := &runner.Fleet{Devices: devs, Policy: policy, MonitorOptions: monOpts}
	bug := pipeline.Bug(cfg.bug)
	fmt.Fprintf(stdout, "edge fleet: %s (%s, %s resolver, %s policy, bug=%s on %s)\n",
		m.Name, m.Format, cfg.resolver, policy.Name(), cfg.bug, bugTarget(cfg.bugDevice, devs))
	res, err := replay.FleetClassification(m, pipeline.Options{Resolver: edgeResolver}, images, fleet,
		func(dev int, spec runner.DeviceSpec, o *pipeline.Options) {
			if cfg.bugDevice < 0 || dev == cfg.bugDevice {
				o.Bug = bug
			}
		})
	if err != nil {
		return err
	}

	var refLog *core.Log
	if cfg.refPath != "" {
		refLog, err = loadLog(cfg.refPath, stdout, "reference")
	} else {
		fmt.Fprintf(stdout, "reference:  %s (%s, reference resolver, fixed kernels)\n", entry.Mobile.Name, entry.Mobile.Format)
		refLog, err = captureLog(entry.Mobile, ops.NewReference(ops.Fixed()), pipeline.BugNone,
			cfg.frames, cfg.perLayer, 0, 8)
	}
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout)
	if err := validate(res.Merged, refLog, stdout); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	shards := make([]core.DeviceShardLog, len(devs))
	for d, spec := range devs {
		shards[d] = core.DeviceShardLog{Device: fmt.Sprintf("d%d-%s", d, spec.Name()), Log: res.DeviceLogs[d]}
	}
	fleetRep, err := core.FleetValidate(shards, refLog, core.DefaultValidateOptions())
	if err != nil {
		return err
	}
	fleetRep.Render(stdout)
	return nil
}

// bugTarget names the device(s) an injected bug applies to.
func bugTarget(bugDevice int, devs []runner.DeviceSpec) string {
	if bugDevice < 0 {
		return "all devices"
	}
	return fmt.Sprintf("device %d (%s)", bugDevice, devs[bugDevice].Name())
}

// validate runs the Figure 2 flow on two logs and renders the report.
func validate(edgeLog, refLog *core.Log, stdout io.Writer) error {
	rep, err := core.Validate(edgeLog, refLog, core.DefaultValidateOptions())
	if err != nil {
		return err
	}
	rep.Render(stdout)
	return nil
}

// loadLog reads a pre-captured telemetry log, auto-detecting the encoding.
func loadLog(path string, stdout io.Writer, role string) (*core.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l, format, err := core.ReadLogWithFormat(f)
	if err != nil {
		return nil, fmt.Errorf("%s log %s: %w", role, path, err)
	}
	fmt.Fprintf(stdout, "%s log: %s (%s, %d records)\n", role, path, format, len(l.Records))
	return l, nil
}

// captureLog replays the model's evaluation set through the parallel replay
// engine with full capture and returns the merged telemetry log.
// Classification models run on the batched inference path; speech and text
// batch dispatch only.
func captureLog(m *graph.Model, resolver *ops.Resolver, bug pipeline.Bug, frames int, perLayer bool, parallel, batch int) (*core.Log, error) {
	opts := runner.Options{
		Workers:        parallel,
		BatchFrames:    batch,
		MonitorOptions: []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(perLayer)},
	}
	popts := pipeline.Options{Resolver: resolver, Bug: bug}
	switch m.Meta.Task {
	case "classification":
		images := replay.Images(datasets.SynthImageNet(5555, frames))
		return replay.Classification(m, popts, images, opts, nil)
	case "speech":
		return replay.Speech(m, popts, datasets.SynthSpeech(7777, frames), opts, nil)
	case "text":
		return replay.Text(m, popts, datasets.SynthIMDB(9999, frames), opts, nil)
	default:
		return nil, fmt.Errorf("exray: task %q not supported by this command", m.Meta.Task)
	}
}
