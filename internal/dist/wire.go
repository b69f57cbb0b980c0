package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"gvmr/internal/composite"
	"gvmr/internal/core"
)

// HTTP surface of the distributed map endpoint.
const (
	// MapPath is the worker endpoint: POST a JSON MapRequest, receive the
	// binary stripe payload.
	MapPath = "/map"
	// ReducePath is the worker-to-worker exchange endpoint: a mapper
	// POSTs the stripe payload filtered to one reducer's pixel range
	// (query: ?ex=<exchange>&lo=<lo>&hi=<hi>).
	ReducePath = "/reduce"
	// CollectPath is the coordinator-facing end of an exchange: POST a
	// JSON CollectRequest, receive the reducer's composited pixel range
	// as a sparse result stripe.
	CollectPath = "/reduce/collect"
	// HeaderFragCount is the total fragment count across all stripes in
	// the response body.
	HeaderFragCount = "X-Gvmr-Frag-Count"
	// HeaderMapSeconds is the virtual duration of the worker's map job
	// (its simulated makespan, not wall time), in seconds.
	HeaderMapSeconds = "X-Gvmr-Map-Seconds"
	// HeaderStripeDigest is the SHA-256 of the exact response body (the
	// bytes as sent, compressed when compression was negotiated). The
	// coordinator recomputes it; any corruption in flight (or a buggy
	// worker) turns into a retry on another node instead of wrong bits.
	HeaderStripeDigest = "X-Gvmr-Stripe-Digest"
	// HeaderReduced marks a map response whose stripes went to the
	// exchange's reducers instead of the response body ("1").
	HeaderReduced = "X-Gvmr-Reduced"
	// HeaderReduceSeconds is the reducer's modeled composite charge for
	// its pixel range, in virtual seconds (collect responses).
	HeaderReduceSeconds = "X-Gvmr-Reduce-Seconds"
	// HeaderExchangeBytes and HeaderExchangeMsgs are the bytes and
	// messages a reducer received over the peer exchange (collect
	// responses) — in-process self-deliveries count zero.
	HeaderExchangeBytes = "X-Gvmr-Exchange-Bytes"
	HeaderExchangeMsgs  = "X-Gvmr-Exchange-Msgs"
)

// EncodingColumnar names the negotiated stripe compression: a columnar
// transform (varint stripe headers, per-stripe delta-zigzag pixel keys,
// byte-plane-split float channels) under stdlib flate. Advertised via
// Accept-Encoding and confirmed via Content-Encoding, so either side may
// be older and the exchange degrades to the identity v1 payload.
const EncodingColumnar = "gvmr-cf1"

// MapRequest asks a worker to run the map phase for a batch of bricks.
type MapRequest struct {
	Job    JobSpec `json:"job"`
	Bricks []int   `json:"bricks"`
	// GridCounts is the coordinator's planned brick-grid factorisation.
	// The worker plans its own grid from Job and refuses the batch when
	// the factorisations differ — a configuration mismatch (different
	// GPU model, different bricking policy version) must fail loudly,
	// never render different bricks.
	GridCounts [3]int `json:"grid_counts"`
	// Reduce, when non-nil, turns the batch into one leg of a
	// distributed reduce: instead of returning stripes, the worker
	// pushes each reducer's pixel range to its /reduce endpoint (its own
	// range is delivered in-process) and returns an empty body with
	// HeaderReduced set. Workers predating the field reject the request
	// (DisallowUnknownFields), which the coordinator treats as a reduce
	// failure and falls back to the classic path — mixed fleets degrade,
	// never diverge.
	Reduce *ReducePlan `json:"reduce,omitempty"`
}

// ReduceTarget is one reducer in an exchange: the worker owning the
// half-open pixel-key range [Lo, Hi).
type ReduceTarget struct {
	Addr string `json:"addr"`
	Lo   int32  `json:"lo"`
	Hi   int32  `json:"hi"`
}

// ReducePlan tells a mapper where every reducer in its exchange lives.
// All mappers in one exchange receive the identical Reducers slice
// (contiguous ranges ordered by reducer index, covering the image).
type ReducePlan struct {
	// Exchange identifies the session; reducers keep per-exchange state
	// until the coordinator collects or the session expires.
	Exchange string `json:"exchange"`
	// Self is the index in Reducers of the mapper itself, or -1 when the
	// mapper is not a reducer; its own range skips the wire entirely.
	Self int `json:"self"`
	// Compress applies EncodingColumnar2 to the pushed payloads.
	Compress bool `json:"compress,omitempty"`

	Reducers []ReduceTarget `json:"reducers"`
}

// Stripe payload format (all little-endian):
//
//	repeat per stripe, ascending brick ID:
//	  int32  brick ID
//	  int32  fragment count
//	  count × 24-byte fragments: int32 key, float32 R,G,B,A, float32 depth
//
// Fragment floats are raw IEEE-754 bit patterns — the renderer's exact
// bits, like /render?format=raw.
const stripeHeaderBytes = 8

// EncodeStripes serialises stripes into the wire payload.
func EncodeStripes(stripes []core.BrickStripe) []byte {
	n := 0
	for _, s := range stripes {
		n += stripeHeaderBytes + len(s.Frags)*composite.FragmentBytes
	}
	buf := make([]byte, n)
	off := 0
	for _, s := range stripes {
		binary.LittleEndian.PutUint32(buf[off:], uint32(int32(s.Brick)))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(int32(len(s.Frags))))
		off += stripeHeaderBytes
		for _, f := range s.Frags {
			binary.LittleEndian.PutUint32(buf[off:], uint32(f.Key))
			binary.LittleEndian.PutUint32(buf[off+4:], math.Float32bits(f.R))
			binary.LittleEndian.PutUint32(buf[off+8:], math.Float32bits(f.G))
			binary.LittleEndian.PutUint32(buf[off+12:], math.Float32bits(f.B))
			binary.LittleEndian.PutUint32(buf[off+16:], math.Float32bits(f.A))
			binary.LittleEndian.PutUint32(buf[off+20:], math.Float32bits(f.Depth))
			off += composite.FragmentBytes
		}
	}
	return buf
}

// DecodeStripes parses a wire payload back into stripes. It validates
// structure only (framing, counts); semantic checks — do the brick IDs
// match the request — are the coordinator's job.
func DecodeStripes(data []byte) ([]core.BrickStripe, error) {
	var stripes []core.BrickStripe
	off := 0
	for off < len(data) {
		if len(data)-off < stripeHeaderBytes {
			return nil, fmt.Errorf("dist: truncated stripe header at byte %d", off)
		}
		brick := int32(binary.LittleEndian.Uint32(data[off:]))
		count := int32(binary.LittleEndian.Uint32(data[off+4:]))
		off += stripeHeaderBytes
		if brick < 0 {
			return nil, fmt.Errorf("dist: negative brick ID %d", brick)
		}
		if count < 0 || int64(count)*composite.FragmentBytes > int64(len(data)-off) {
			return nil, fmt.Errorf("dist: stripe for brick %d claims %d fragments beyond payload", brick, count)
		}
		s := core.BrickStripe{Brick: int(brick)}
		if count > 0 {
			s.Frags = make([]composite.Fragment, count)
			for i := range s.Frags {
				s.Frags[i] = composite.Fragment{
					Key:   int32(binary.LittleEndian.Uint32(data[off:])),
					R:     math.Float32frombits(binary.LittleEndian.Uint32(data[off+4:])),
					G:     math.Float32frombits(binary.LittleEndian.Uint32(data[off+8:])),
					B:     math.Float32frombits(binary.LittleEndian.Uint32(data[off+12:])),
					A:     math.Float32frombits(binary.LittleEndian.Uint32(data[off+16:])),
					Depth: math.Float32frombits(binary.LittleEndian.Uint32(data[off+20:])),
				}
				off += composite.FragmentBytes
			}
		}
		stripes = append(stripes, s)
	}
	return stripes, nil
}

// fragChannels and fragPlanes shape the columnar transform: five float32
// channels (R,G,B,A,Depth), each split into its four little-endian byte
// planes so flate sees long runs of structurally similar bytes (sign and
// exponent planes of neighbouring fragments are near-constant).
const (
	fragChannels = 5
	fragPlanes   = 4
)

// CompressStripes serialises stripes into the EncodingColumnar payload:
//
//	flate(
//	  uvarint stripe count
//	  repeat per stripe: uvarint brick ID, uvarint fragment count
//	  repeat per stripe: varint delta-coded pixel keys (reset per stripe)
//	  5 channels × 4 byte planes × one byte per fragment
//	)
//
// Keys inside a stripe ascend (the caster emits pixels in scan order),
// so deltas are small positive varints; the float planes compress on the
// smoothness of adjacent rays. The transform is lossless and exact: the
// decoded fragments carry the same bit patterns, NaNs included. flate
// runs at wireLevel through the pooled encoder (deflate.go).
func CompressStripes(stripes []core.BrickStripe) []byte {
	total := 0
	for _, s := range stripes {
		total += len(s.Frags)
	}
	e := getEncoder(len(stripes)*8 + total*(fragChannels*fragPlanes+2))
	raw := binary.AppendUvarint(e.raw, uint64(len(stripes)))
	for _, s := range stripes {
		raw = binary.AppendUvarint(raw, uint64(uint32(int32(s.Brick))))
		raw = binary.AppendUvarint(raw, uint64(len(s.Frags)))
	}
	for _, s := range stripes {
		prev := int64(0)
		for _, f := range s.Frags {
			raw = binary.AppendVarint(raw, int64(f.Key)-prev)
			prev = int64(f.Key)
		}
	}
	e.raw = appendPlanes(raw, stripes, total)
	return e.deflate()
}

// appendPlanes appends the byte planes of the total fragments in stripes
// to raw: channel-major, plane-minor, one byte per fragment in stripe
// order — the tail section of both columnar transforms. It makes one
// pass over the fragments per channel, so only four output streams are
// live at a time instead of twenty.
func appendPlanes(raw []byte, stripes []core.BrickStripe, total int) []byte {
	off := len(raw)
	raw = slices.Grow(raw, total*fragChannels*fragPlanes)[:off+total*fragChannels*fragPlanes]
	planes := raw[off:]
	for c := 0; c < fragChannels; c++ {
		base := c * fragPlanes * total
		p0 := planes[base : base+total]
		p1 := planes[base+total : base+2*total]
		p2 := planes[base+2*total : base+3*total]
		p3 := planes[base+3*total : base+4*total]
		i := 0
		for _, s := range stripes {
			for _, f := range s.Frags {
				b := math.Float32bits(fragChannel(&f, c))
				p0[i], p1[i], p2[i], p3[i] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
				i++
			}
		}
	}
	return raw
}

// fragChannel returns channel c (R, G, B, A, Depth) of f.
func fragChannel(f *composite.Fragment, c int) float32 {
	switch c {
	case 0:
		return f.R
	case 1:
		return f.G
	case 2:
		return f.B
	case 3:
		return f.A
	default:
		return f.Depth
	}
}

// DecompressStripes parses an EncodingColumnar payload. maxBytes bounds
// the decompressed size (zip-bomb guard); structural violations —
// truncation, counts beyond the payload, out-of-range bricks or keys,
// trailing garbage — are errors, mirroring DecodeStripes.
func DecompressStripes(data []byte, maxBytes int64) ([]core.BrickStripe, error) {
	d, err := inflate(EncodingColumnar, data, maxBytes)
	if err != nil {
		return nil, err
	}
	defer d.release()
	raw := d.raw.Bytes()
	pos := 0
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("dist: %s truncated varint at byte %d", EncodingColumnar, pos)
		}
		pos += n
		return v, nil
	}
	nStripes, err := uvarint()
	if err != nil {
		return nil, err
	}
	// Each stripe costs at least two header bytes; anything claiming more
	// is corrupt, and bounding here keeps allocations honest.
	if nStripes > uint64(len(raw)-pos) {
		return nil, fmt.Errorf("dist: %s claims %d stripes in %d bytes", EncodingColumnar, nStripes, len(raw)-pos)
	}
	stripes := make([]core.BrickStripe, nStripes)
	var total64 int64
	counts := make([]int, nStripes)
	for i := range stripes {
		brick, err := uvarint()
		if err != nil {
			return nil, err
		}
		if brick > math.MaxInt32 {
			return nil, fmt.Errorf("dist: %s brick ID %d overflows int32", EncodingColumnar, brick)
		}
		count, err := uvarint()
		if err != nil {
			return nil, err
		}
		// A fragment costs at least one key byte plus its 20 plane bytes,
		// so any count past that density is corrupt — checked before the
		// fragment slices are allocated.
		if count > uint64(len(raw)-pos)/(fragChannels*fragPlanes+1) {
			return nil, fmt.Errorf("dist: %s stripe for brick %d claims %d fragments beyond payload", EncodingColumnar, brick, count)
		}
		stripes[i].Brick = int(int32(brick))
		counts[i] = int(count)
		total64 += int64(count)
	}
	if total64*(fragChannels*fragPlanes+1) > int64(len(raw)-pos) {
		return nil, fmt.Errorf("dist: %s claims %d fragments beyond payload", EncodingColumnar, total64)
	}
	total := int(total64)
	for i := range stripes {
		if counts[i] == 0 {
			continue
		}
		frags := make([]composite.Fragment, counts[i])
		prev := int64(0)
		for j := range frags {
			d, n := binary.Varint(raw[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("dist: %s truncated key varint at byte %d", EncodingColumnar, pos)
			}
			pos += n
			k := prev + d
			if k < math.MinInt32 || k > math.MaxInt32 {
				return nil, fmt.Errorf("dist: %s key %d overflows int32", EncodingColumnar, k)
			}
			frags[j].Key = int32(k)
			prev = k
		}
		stripes[i].Frags = frags
	}
	if len(raw)-pos != total*fragChannels*fragPlanes {
		return nil, fmt.Errorf("dist: %s plane section is %d bytes, want %d", EncodingColumnar, len(raw)-pos, total*fragChannels*fragPlanes)
	}
	planes := raw[pos:]
	i := 0
	for si := range stripes {
		for j := range stripes[si].Frags {
			var bits [fragChannels]uint32
			for c := 0; c < fragChannels; c++ {
				for p := 0; p < fragPlanes; p++ {
					bits[c] |= uint32(planes[(c*fragPlanes+p)*total+i]) << (8 * p)
				}
			}
			f := &stripes[si].Frags[j]
			f.R = math.Float32frombits(bits[0])
			f.G = math.Float32frombits(bits[1])
			f.B = math.Float32frombits(bits[2])
			f.A = math.Float32frombits(bits[3])
			f.Depth = math.Float32frombits(bits[4])
			i++
		}
	}
	if nStripes == 0 {
		return nil, nil
	}
	return stripes, nil
}

// DecodePayload parses a wire payload according to its Content-Encoding.
// maxBytes bounds the decompressed size of compressed payloads.
func DecodePayload(encoding string, data []byte, maxBytes int64) ([]core.BrickStripe, error) {
	switch encoding {
	case "", "identity":
		return DecodeStripes(data)
	case EncodingListV2:
		return DecodeStripesV2(data)
	case EncodingColumnar:
		return DecompressStripes(data, maxBytes)
	case EncodingColumnar2:
		return DecompressStripesV2(data, maxBytes)
	default:
		return nil, fmt.Errorf("dist: unsupported content encoding %q", encoding)
	}
}

// acceptsColumnar reports whether an Accept-Encoding header value offers
// EncodingColumnar.
func acceptsColumnar(header string) bool {
	return acceptsEncoding(header, EncodingColumnar)
}

// PayloadDigest is the hex SHA-256 of a stripe payload — the value of
// HeaderStripeDigest.
func PayloadDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// encodeMapRequest marshals the request body.
func encodeMapRequest(req MapRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding map request: %w", err)
	}
	return body, nil
}
