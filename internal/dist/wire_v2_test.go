package dist

import (
	"bytes"
	"math"
	"testing"

	"gvmr/internal/composite"
	"gvmr/internal/core"
)

// listStripes is a fixture with per-pixel fragment lists: pixel 7 of
// unit 1 appears three times (a ray re-entering a non-convex unit), a
// NaN payload channel rides along, and one stripe is empty.
func listStripes() []core.BrickStripe {
	return []core.BrickStripe{
		{Brick: 1, Frags: []composite.Fragment{
			{Key: 7, R: 0.25, G: 0.5, B: 0.125, A: 0.75, Depth: 1.5},
			{Key: 7, R: 0.1, A: 0.5, Depth: 2.5},
			{Key: 7, G: math.Float32frombits(0x7fc00001), A: 1, Depth: 3.5},
			{Key: 9, A: 1, Depth: 0.5},
			{Key: 7, B: 0.375, A: 0.25, Depth: 4.5}, // second run of key 7
		}},
		{Brick: 3},
		{Brick: 4, Frags: []composite.Fragment{{Key: 0, A: 1, Depth: 0.25}}},
	}
}

func TestStripesV2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stripes []core.BrickStripe
	}{
		{"lists", listStripes()},
		{"nil", nil},
		{"empty-stripe", []core.BrickStripe{{Brick: 0}}},
	} {
		payload := EncodeStripesV2(tc.stripes)
		back, err := DecodeStripesV2(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !stripesBitEqual(tc.stripes, back) && !(len(tc.stripes) == 0 && len(back) == 0) {
			t.Fatalf("%s: v2 round trip changed stripes", tc.name)
		}
		// Canonical form: re-encoding the decode is the identity.
		if again := EncodeStripesV2(back); !bytes.Equal(again, payload) {
			t.Fatalf("%s: v2 re-encode is not a fixed point", tc.name)
		}
	}
}

func TestStripesV2RunHeadersCompact(t *testing.T) {
	// 64 fragments of one pixel = one run: v2 spends 8 bytes on keys
	// where v1 spends 4 per fragment.
	frags := make([]composite.Fragment, 64)
	for i := range frags {
		frags[i] = composite.Fragment{Key: 42, A: 1, Depth: float32(i)}
	}
	s := []core.BrickStripe{{Brick: 0, Frags: frags}}
	v1 := EncodeStripes(s)
	v2 := EncodeStripesV2(s)
	if len(v2) >= len(v1) {
		t.Fatalf("v2 (%d bytes) not denser than v1 (%d bytes) on a long run", len(v2), len(v1))
	}
	wantV2 := v2StripeHeaderBytes + v2RunBytes + 64*v2FragBytes
	if len(v2) != wantV2 {
		t.Fatalf("v2 payload is %d bytes, want %d", len(v2), wantV2)
	}
}

func TestCompressStripesV2RoundTrip(t *testing.T) {
	s := listStripes()
	payload := CompressStripesV2(s)
	back, err := DecompressStripesV2(payload, 1<<20)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !stripesBitEqual(s, back) {
		t.Fatal("cf2 round trip changed fragment bits")
	}
	if got, err := DecompressStripesV2(CompressStripesV2(nil), 1<<20); err != nil || got != nil {
		t.Fatalf("empty cf2 payload: got %v, %v", got, err)
	}
}

func TestDecodeStripesV2Rejects(t *testing.T) {
	good := EncodeStripesV2(listStripes())
	cases := map[string][]byte{
		"truncated header":  good[:5],
		"truncated runs":    good[:v2StripeHeaderBytes+3],
		"truncated payload": good[:len(good)-1],
	}
	// Zero-count run: unit 0, 1 run, (key 5, count 0).
	zero := make([]byte, v2StripeHeaderBytes+v2RunBytes)
	zero[4] = 1 // run count 1
	zero[8] = 5 // key 5, count stays 0
	cases["zero-count run"] = zero
	// Non-maximal runs: two adjacent runs with the same key.
	split := append([]byte(nil), EncodeStripesV2([]core.BrickStripe{{Brick: 0, Frags: []composite.Fragment{
		{Key: 5, A: 1, Depth: 1},
		{Key: 5, A: 1, Depth: 2},
	}}})...)
	// Rewrite the single (key 5, count 2) run as two (key 5, count 1) runs.
	nonMax := make([]byte, 0, len(split)+v2RunBytes)
	nonMax = append(nonMax, split[:4]...)
	nonMax = append(nonMax, 2, 0, 0, 0) // run count 2
	nonMax = append(nonMax, 5, 0, 0, 0, 1, 0, 0, 0)
	nonMax = append(nonMax, 5, 0, 0, 0, 1, 0, 0, 0)
	nonMax = append(nonMax, split[v2StripeHeaderBytes+v2RunBytes:]...)
	cases["non-maximal runs"] = nonMax
	// Negative unit ID.
	neg := append([]byte(nil), good...)
	neg[3] = 0x80
	cases["negative unit"] = neg

	for name, data := range cases {
		if _, err := DecodeStripesV2(data); err == nil {
			t.Errorf("%s: decode accepted a malformed payload", name)
		}
	}
}

func TestNegotiateEncoding(t *testing.T) {
	for header, want := range map[string]string{
		"":                         "",
		"gzip, br":                 "",
		EncodingColumnar:           EncodingColumnar,
		EncodingListV2:             EncodingListV2,
		EncodingColumnar2:          EncodingColumnar2,
		"gvmr-cf2, gvmr-cf1":       EncodingColumnar2,
		"gvmr-cf1, gvmr-cf2":       EncodingColumnar2, // preference, not order
		"gvmr-v2, gvmr-cf1":        EncodingColumnar,  // compressed beats identity
		" gvmr-cf2 ;q=0.5 , gzip":  EncodingColumnar2,
		"gvmr-cf3, gvmr-cf1;q=0.9": EncodingColumnar,
		"gvmr-cf2junk, gvmr-v2":    EncodingListV2,
		"xgvmr-cf1":                "",
	} {
		if got := negotiateEncoding(header); got != want {
			t.Errorf("negotiateEncoding(%q) = %q, want %q", header, got, want)
		}
	}
}

func TestEncodePayloadAsRoundTrips(t *testing.T) {
	s := listStripes()
	for _, enc := range []string{"", "identity", EncodingListV2, EncodingColumnar, EncodingColumnar2} {
		payload, err := EncodePayloadAs(s, enc)
		if err != nil {
			t.Fatalf("%q: encode: %v", enc, err)
		}
		back, err := DecodePayload(enc, payload, 1<<20)
		if err != nil {
			t.Fatalf("%q: decode: %v", enc, err)
		}
		if !stripesBitEqual(s, back) {
			t.Fatalf("%q: payload round trip changed stripes", enc)
		}
	}
	if _, err := EncodePayloadAs(s, "gvmr-cf9"); err == nil {
		t.Fatal("unknown encoding accepted")
	}
}

func TestSanitizeStripes(t *testing.T) {
	clean := listStripes()
	got, n := SanitizeStripes(clean)
	if n != 0 {
		t.Fatalf("clean stripes stripped %d", n)
	}
	if &got[0].Frags[0] != &clean[0].Frags[0] {
		t.Fatal("clean stripes were copied")
	}

	dirty := []core.BrickStripe{
		{Brick: 0, Frags: []composite.Fragment{
			{Key: 1, A: 1, Depth: 0.5},
			composite.Placeholder(2),
			{Key: 3, A: 1, Depth: 1.5},
		}},
		{Brick: 2, Frags: []composite.Fragment{composite.Placeholder(4)}},
		{Brick: 5, Frags: []composite.Fragment{{Key: 6, A: 1, Depth: 2.5}}},
	}
	got, n = SanitizeStripes(dirty)
	if n != 2 {
		t.Fatalf("stripped %d placeholders, want 2", n)
	}
	want := []core.BrickStripe{
		{Brick: 0, Frags: []composite.Fragment{
			{Key: 1, A: 1, Depth: 0.5},
			{Key: 3, A: 1, Depth: 1.5},
		}},
		{Brick: 2, Frags: []composite.Fragment{}},
		{Brick: 5, Frags: []composite.Fragment{{Key: 6, A: 1, Depth: 2.5}}},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d stripes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Brick != want[i].Brick || len(got[i].Frags) != len(want[i].Frags) {
			t.Fatalf("stripe %d: got %+v, want %+v", i, got[i], want[i])
		}
		for j := range want[i].Frags {
			if got[i].Frags[j] != want[i].Frags[j] {
				t.Fatalf("stripe %d frag %d: got %+v, want %+v", i, j, got[i].Frags[j], want[i].Frags[j])
			}
		}
	}
}
