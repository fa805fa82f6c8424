package wire

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestBinaryRequestRoundTrip(t *testing.T) {
	var req Request
	req.SetTemplate("cassandra")
	req.Bucket = 3
	req.AppendRow([]float64{1.5, -2, 300})
	req.AppendRow([]float64{0, math.MaxFloat64, 5e-324})

	frame, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := back.DecodeBinary(frame); err != nil {
		t.Fatal(err)
	}
	if string(back.Template) != "cassandra" || back.Bucket != 3 || back.Rows() != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	for i := 0; i < req.Rows(); i++ {
		want, got := req.Row(i), back.Row(i)
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
				t.Errorf("row %d col %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestBinaryRequestRejectsRagged(t *testing.T) {
	var req Request
	req.AppendRow([]float64{1, 2})
	req.AppendRow([]float64{3})
	if _, err := req.AppendBinary(nil); err == nil {
		t.Fatal("ragged batch must not encode")
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	resp := Response{Version: 41, Lookup: true, Results: []Decision{
		{Class: 2, Certainty: 0.953, Hit: true, Type: 2, Count: 5},
		{Class: -1, Certainty: 0.31, Unforeseen: true},
		{Class: 7, Certainty: 1},
	}}
	frame := resp.AppendBinary(nil)
	var back Response
	if err := back.DecodeBinary(frame); err != nil {
		t.Fatal(err)
	}
	if back.Version != 41 || !back.Lookup || len(back.Results) != 3 {
		t.Fatalf("round trip: %+v", back)
	}
	for i := range resp.Results {
		if back.Results[i] != resp.Results[i] {
			t.Errorf("result %d: got %+v, want %+v", i, back.Results[i], resp.Results[i])
		}
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	var good Request
	good.SetTemplate("t")
	good.Bucket = 1
	good.AppendRow([]float64{1, 2})
	frame, err := good.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(mut func(b []byte) []byte) error {
		b := append([]byte(nil), frame...)
		b = mut(b)
		var req Request
		return req.DecodeBinary(b)
	}
	cases := map[string]func(b []byte) []byte{
		"empty":            func(b []byte) []byte { return nil },
		"truncated header": func(b []byte) []byte { return b[:5] },
		"truncated values": func(b []byte) []byte { return b[:len(b)-3] },
		"bad length":       func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad magic":        func(b []byte) []byte { b[4] = 0x00; return b },
		"bad version":      func(b []byte) []byte { b[5] = 9; return b },
		"trailing bytes":   func(b []byte) []byte { return append(b, 0) },
	}
	for name, mut := range cases {
		if err := corrupt(mut); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
	// A structurally valid frame with zero rows is still no request.
	var req, zero Request
	empty, err := zero.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := req.DecodeBinary(empty); err == nil || !strings.Contains(err.Error(), "no signatures") {
		t.Errorf("zero-row frame: %v", err)
	}

	var resp Response
	if err := resp.DecodeBinary(frame); err == nil {
		t.Error("request frame must not decode as a response")
	}
	// The deprecated tagged entry point accepts both spellings of the
	// one encoding and refuses any other tag before looking at the body.
	okFrame := (&Response{Version: 1}).AppendBinary(nil)
	for enc, ok := range map[Encoding]bool{0: true, EncodingBinary: true, 2: false} {
		if err := resp.Decode(enc, okFrame); (err == nil) != ok {
			t.Errorf("Response.Decode with tag %d: %v", enc, err)
		}
	}
}

// TestBinaryHostileDimensions pins the overflow guard: a hand-built
// frame whose rows×width wraps uint64 (or exceeds the value budget)
// must be rejected at decode, not panic the row indexer downstream.
func TestBinaryHostileDimensions(t *testing.T) {
	for name, dims := range hostileDimensions {
		var req Request
		if err := req.DecodeBinary(hostileFrame(dims[0], dims[1])); err == nil {
			t.Errorf("%s (%d×%d): expected decode error", name, dims[0], dims[1])
		}
	}
}

// hostileDimensions are rows×width claims no frame may get away with
// (also the fuzz seeds).
var hostileDimensions = map[string][2]uint64{
	"wrapping product":  {1 << 20, 1 << 44}, // rows*width ≡ 0 (mod 2^64)
	"huge width":        {1, 1 << 30},
	"huge rows":         {1 << 30, 1},
	"over value budget": {1 << 20, 1 << 10},
}

// hostileFrame hand-builds a request frame claiming rows×width values
// and carrying none: a dimensions lie should fail before (or while)
// reading them regardless.
func hostileFrame(rows, width uint64) []byte {
	b := []byte{0, 0, 0, 0, reqMagic, Version}
	b = appendUvarint(b, 0) // empty template
	b = appendUvarint(b, 0) // bucket
	b = appendUvarint(b, rows)
	b = appendUvarint(b, width)
	binaryPutLen(b)
	return b
}

// binaryPutLen backpatches the u32 length prefix of a hand-built frame.
func binaryPutLen(b []byte) {
	b[0] = byte(len(b) - 4)
	b[1] = byte((len(b) - 4) >> 8)
	b[2] = byte((len(b) - 4) >> 16)
	b[3] = byte((len(b) - 4) >> 24)
}

func TestBinaryReuseNoGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var req, back Request
	var frame []byte
	for iter := 0; iter < 50; iter++ {
		req.Reset()
		req.SetTemplate("svc")
		req.Bucket = iter % 4
		for i := 0; i < 16; i++ {
			row := make([]float64, 6)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			req.AppendRow(row)
		}
		var err error
		frame, err = req.AppendBinary(frame[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := back.DecodeBinary(frame); err != nil {
			t.Fatal(err)
		}
		if back.Rows() != 16 || back.Bucket != iter%4 {
			t.Fatalf("iter %d: %+v", iter, back)
		}
	}
}
