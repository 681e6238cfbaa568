package core

import (
	"fmt"
	"io"
	"strings"
)

// DeviceShardLog pairs a device name with the shard telemetry it produced
// during a fleet replay. Shard records carry global frame tags, so each
// shard validates directly against the full reference log — frames the
// device did not own simply have no records to compare.
type DeviceShardLog struct {
	Device string
	Log    *Log
}

// FleetDeviceReport is one device's rollup within a FleetReport: accuracy
// (output agreement with the reference on the frames the device owned),
// drift (mean per-layer normalized rMSE, when per-layer capture was on) and
// latency (mean modeled inference time, when a device model was attached).
type FleetDeviceReport struct {
	Device string
	// Frames is the number of frames compared (frames whose model output
	// exists in both the shard log and the reference log).
	Frames int
	// OutputAgreement is the fraction of compared frames whose output
	// argmax matches the reference.
	OutputAgreement float64
	// MeanNRMSE averages per-layer normalized rMSE vs the reference across
	// the layers the logs share; zero when per-layer capture was off.
	MeanNRMSE float64
	// Layers is the number of layers MeanNRMSE averages over.
	Layers int
	// MeanModeledNs is the mean modeled inference latency in nanoseconds;
	// zero when no device latency model was attached.
	MeanModeledNs float64
	// Divergent lists the frames where this device disagrees with the
	// reference while the rest of the fleet is healthy — disagreement that
	// isolates to the device rather than the model or the data.
	Divergent []int
	// Flagged marks a device whose shard diverges: its agreement is below
	// the threshold while the rest of the fleet's is not. A fleet-wide
	// model defect degrades every device and flags none.
	Flagged bool
}

// FleetReport is the fleet-level cross-validation result: per-device
// rollups plus the cross-device divergence analysis. Built by
// FleetValidate from per-device shard logs and one reference log.
type FleetReport struct {
	Devices []FleetDeviceReport
	// FleetAgreement is the frame-weighted output agreement across all
	// devices — what a single merged-log validation would report.
	FleetAgreement float64
	// Flagged names the devices whose divergence isolates to them (in
	// device order).
	Flagged []string
	// DivergentFrames is the sorted union of the per-device divergent
	// frames.
	DivergentFrames []int
}

// FleetValidate cross-validates the per-device shard logs of a fleet replay
// against the reference log. Beyond running the per-device half of the
// Figure 2 flow (output agreement, per-layer drift, latency rollups) on
// each shard, it compares the devices against each other: a frame where the
// owning device disagrees with the reference while the rest of the fleet
// agrees is cross-device divergence — evidence of a device-local fault (a
// bad delegate kernel, a device-specific preprocessing path) rather than a
// model or data problem, which would degrade every device alike. Devices
// whose shards diverge this way are flagged.
//
// FleetValidate is the offline entry point of the incremental fleet
// validator: each shard log streams through a session of a
// FleetStreamValidator (the same accumulators a live ingest collector runs
// per device), so a fleet report assembled from live streams is identical by
// construction to this offline one over the same records.
func FleetValidate(shards []DeviceShardLog, ref *Log, opts ValidateOptions) (*FleetReport, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: fleet validation needs at least one device shard")
	}
	fv, err := NewFleetStreamValidator(ref, opts)
	if err != nil {
		return nil, err
	}
	// Sessions in shard order, one per shard even under duplicate device
	// names — the report keeps the caller's ordering, where the live
	// collector (Report) orders its by-name sessions alphabetically.
	sessions := make([]*StreamValidator, len(shards))
	for d, shard := range shards {
		fv.mu.Lock()
		sessions[d] = fv.newSessionLocked(shard.Device)
		fv.mu.Unlock()
		_ = sessions[d].ConsumeFrame(0, shard.Log.Records)
	}
	return fleetReportFrom(sessions, opts)
}

// Render writes a human-readable fleet report.
func (r *FleetReport) Render(w io.Writer) {
	fmt.Fprintf(w, "ML-EXray fleet validation report\n")
	fmt.Fprintf(w, "  fleet output agreement with reference: %.1f%%\n", 100*r.FleetAgreement)
	for _, d := range r.Devices {
		if d.Frames == 0 {
			fmt.Fprintf(w, "  %-14s no frames assigned (policy starved this device)\n", d.Device)
			continue
		}
		line := fmt.Sprintf("  %-14s frames=%-4d agreement=%5.1f%%", d.Device, d.Frames, 100*d.OutputAgreement)
		if d.Layers > 0 {
			line += fmt.Sprintf(" nRMSE=%.4f", d.MeanNRMSE)
		}
		if d.MeanModeledNs > 0 {
			line += fmt.Sprintf(" modeled=%.2fms", d.MeanModeledNs/1e6)
		}
		if d.Flagged {
			line += "  <- DIVERGES FROM FLEET"
		}
		fmt.Fprintln(w, line)
	}
	if len(r.Flagged) > 0 {
		fmt.Fprintf(w, "  flagged devices: %s\n", strings.Join(r.Flagged, ", "))
	}
	if n := len(r.DivergentFrames); n > 0 {
		show := r.DivergentFrames
		suffix := ""
		if n > 12 {
			show = show[:12]
			suffix = fmt.Sprintf(" ... and %d more", n-12)
		}
		fmt.Fprintf(w, "  cross-device divergent frames (%d): %s%s\n", n, joinInts(show), suffix)
	}
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ", ")
}
