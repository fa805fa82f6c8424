package wire

import (
	"math/rand"
	"testing"

	"repro/internal/testkit"
)

// benchBatch builds the canonical 16×6 lookup batch (the serve
// benchmark's steady-state shape) plus its matching response.
func benchBatch() (*Request, *Response) {
	rng := rand.New(rand.NewSource(7))
	var req Request
	req.SetTemplate("cassandra")
	req.Bucket = 2
	row := make([]float64, 6)
	for i := 0; i < 16; i++ {
		for j := range row {
			row[j] = rng.NormFloat64() * 100
		}
		req.AppendRow(row)
	}
	resp := &Response{Version: 3, Lookup: true}
	for i := 0; i < 16; i++ {
		d := Decision{Class: i % 4, Certainty: 0.25 + rng.Float64()/2, Hit: i%3 != 0, Type: 2, Count: 4}
		if !d.Hit {
			d.Type, d.Count = 0, 0
		}
		resp.Results = append(resp.Results, d)
	}
	return &req, resp
}

// BenchmarkCodec times encode/decode of one 16-signature batch in each
// direction. allocs/op must be 0 (also pinned hard by
// TestBinaryCodecZeroAlloc).
func BenchmarkCodec(b *testing.B) {
	req, resp := benchBatch()
	reqBin, err := req.AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	respBin := resp.AppendBinary(nil)

	var scratchReq Request
	var scratchResp Response
	var buf []byte

	b.Run("binary/encode-request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buf, err = req.AppendBinary(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary/decode-request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := scratchReq.DecodeBinary(reqBin); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary/encode-response", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = resp.AppendBinary(buf[:0])
		}
	})
	b.Run("binary/decode-response", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := scratchResp.DecodeBinary(respBin); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBinaryCodecZeroAlloc pins the acceptance criterion: the binary
// wire path performs zero heap allocations at steady state on both
// sides of the exchange — encode+decode of requests (client sends,
// server receives) and encode+decode of responses (server sends,
// client receives).
func TestBinaryCodecZeroAlloc(t *testing.T) {
	req, resp := benchBatch()
	reqBin, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	respBin := resp.AppendBinary(nil)
	var scratchReq Request
	var scratchResp Response
	buf := make([]byte, 0, len(reqBin)+len(respBin))
	// Warm the scratch buffers, then measure.
	if err := scratchReq.DecodeBinary(reqBin); err != nil {
		t.Fatal(err)
	}
	if err := scratchResp.DecodeBinary(respBin); err != nil {
		t.Fatal(err)
	}
	roundTrip := func() {
		var err error
		if buf, err = req.AppendBinary(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if err := scratchReq.DecodeBinary(reqBin); err != nil {
			t.Fatal(err)
		}
		buf = resp.AppendBinary(buf[:0])
		if err := scratchResp.DecodeBinary(respBin); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("binary codec allocates %.1f times per batch round trip, want 0", allocs)
		t.Log(testkit.AllocSites(200, roundTrip))
	}
}
