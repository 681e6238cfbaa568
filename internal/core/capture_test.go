package core

import (
	"bytes"
	"encoding/base64"
	"math"
	"math/rand"
	"testing"

	"mlexray/internal/tensor"
)

// TestAppendBase64MatchesStdlib holds the pair-table encoder to the encoder
// it replaced: every length around the 8-byte load and the 6-byte step, and
// random payloads of capture size, each appended behind a non-empty prefix.
func TestAppendBase64MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	check := func(src []byte) {
		t.Helper()
		prefix := []byte(`,"data":"`)
		want := base64.StdEncoding.AppendEncode(bytes.Clone(prefix), src)
		// cap == len forces the grow path; a roomy dst takes the in-place one.
		for _, dst := range [][]byte{bytes.Clone(prefix), append(make([]byte, 0, 2*len(want)+16), prefix...)} {
			if got := appendBase64(dst, src); !bytes.Equal(got, want) {
				t.Fatalf("%d bytes: appendBase64 differs from base64.StdEncoding.AppendEncode", len(src))
			}
		}
	}
	for n := 0; n <= 300; n++ {
		src := make([]byte, n)
		rng.Read(src)
		check(src)
	}
	for range 24 {
		src := make([]byte, 1<<10+rng.Intn(255<<10))
		rng.Read(src)
		check(src)
	}
	check(bytes.Repeat([]byte{0xFF}, 4099)) // every 12-bit group at the table's last entry
	check(make([]byte, 4099))               // and at its first
}

// TestAppendTensorLEMatchesPortable holds the bulk copy to the per-element
// loop, called directly so the comparison runs whatever the host's byte
// order, for every dtype, empty tensors included.
func TestAppendTensorLEMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, dt := range []tensor.DType{tensor.F32, tensor.U8, tensor.I8, tensor.I32} {
		for _, n := range []int{0, 1, 3, 64, 1027} {
			tt := tensor.New(dt, n)
			for i := 0; i < n; i++ {
				switch dt {
				case tensor.F32:
					tt.F[i] = math.Float32frombits(rng.Uint32()) // NaN payloads and denormals included
				case tensor.U8:
					tt.U[i] = uint8(rng.Intn(256))
				case tensor.I8:
					tt.I[i] = int8(rng.Intn(256) - 128)
				case tensor.I32:
					tt.X[i] = int32(rng.Uint32())
				}
			}
			prefix := []byte{0xEE, 0xDD}
			want := appendTensorPortable(bytes.Clone(prefix), tt)
			got := appendTensorLE(bytes.Clone(prefix), tt)
			if !bytes.Equal(got, want) || len(got) != len(prefix)+tt.Bytes() {
				t.Errorf("%v[%d]: bulk path wrote %d bytes, differing from the per-element path's %d", dt, n, len(got), len(want))
			}
		}
	}
}

// lendingCapture logs frames [first, first+frames) of a fixed three-tensor
// frame into m.
func lendingCapture(m *Monitor, first, frames int) {
	for f := first; f < first+frames; f++ {
		m.NextFrame()
		for i, n := range []int{96, 640, 10} {
			tt := tensor.New(tensor.F32, n)
			for j := range tt.F {
				tt.F[j] = float32(f*1000+i*100+j) * 0.25
			}
			m.LogTensor(LayerOutputKey(string(rune('a'+i))), tt)
		}
		m.LogMetric(KeyInferenceLatency, float64(f), "ns")
	}
}

// TestMonitorLendRecycle pins the lending contract: a lent range's records
// equal an owning monitor's, payloads are clipped so an append cannot reach
// a neighbour, a recycled capture's buffers carry the next range without
// growing, and — the hook on — nothing of a capture survives its recycle.
func TestMonitorLendRecycle(t *testing.T) {
	defer ScribbleRecycledCaptures(ScribbleRecycledCaptures(true))
	const rangeFrames = 4
	own := NewMonitor(WithCaptureMode(CaptureFull))
	lender := NewMonitor(WithCaptureMode(CaptureFull))
	var slabs []*byte // distinct slab backing arrays, in order of first use
	for r := 0; r < 5; r++ {
		lendingCapture(own, r*rangeFrames, rangeFrames)
		var want bytes.Buffer
		if err := (&Log{Records: own.Drain()}).WriteBinary(&want); err != nil {
			t.Fatal(err)
		}

		lender.Lend(rangeFrames)
		lendingCapture(lender, r*rangeFrames, rangeFrames)
		c := lender.DrainLent()
		var got bytes.Buffer
		if err := (&Log{Records: c.Records}).WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("range %d: lent records differ from an owning monitor's", r)
		}
		for i := range c.Records {
			if p := c.Records[i].Payload; cap(p) != len(p) {
				t.Fatalf("range %d record %d: payload cap %d > len %d reaches into the next payload", r, i, cap(p), len(p))
			}
		}
		if r > 0 {
			// From the second range on everything sits in one slab sized for
			// the range: exactly full, never regrown.
			if used := rangeFrames * 4 * (96 + 640 + 10); len(c.slab) != used || cap(c.slab) != used {
				t.Errorf("range %d: slab len %d cap %d, want both %d", r, len(c.slab), cap(c.slab), used)
			}
			if b := &c.slab[:1][0]; len(slabs) == 0 || slabs[len(slabs)-1] != b {
				slabs = append(slabs, b)
			}
		}
		retained := c.Records[len(c.Records)-2].Payload // the last frame's 10-float tensor: inside the slab
		c.Recycle()
		if len(retained) != 40 || bytes.Count(retained, []byte{0xA5}) != 40 {
			t.Fatalf("range %d: a payload kept past Recycle still reads % x, want it scribbled", r, retained[:8])
		}
		if c.Records[0].Key != "" {
			t.Fatalf("range %d: a record kept past Recycle still reads %q, want it zeroed", r, c.Records[0].Key)
		}
	}
	// Every range was recycled before the next began, so one slab (the one
	// range 0 allocated once its first frame had given the size) served all.
	if len(slabs) != 1 {
		t.Errorf("%d slabs allocated over 4 recycled ranges, want 1", len(slabs))
	}
}
