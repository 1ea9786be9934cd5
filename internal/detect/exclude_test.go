package detect

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"failstutter/internal/stats"
)

// excludePalette is the value alphabet FuzzPeerExcludeOne draws most
// medians from: NaN, both infinities, extremes and a few small numbers
// repeated, so ties at the middle ranks are common.
var excludePalette = [...]float64{
	math.NaN(), math.Inf(-1), math.Inf(1), 0, -1, 1, 2, 3,
	0.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 100, 100, 7, 7,
}

// decodeMedians turns fuzz bytes into 1–64 medians. A byte below 0xc0
// picks a palette entry (high bit clear) or a small integer (high bit
// set); a byte of 0xc0 or more reads the next 8 bytes as raw float64 bits.
// Negative zero becomes +0 and every NaN becomes math.NaN(): the median
// order ties ±0 and ties all NaNs, so which tied bit pattern lands at a
// rank is unspecified, and bit equality is only defined without them.
func decodeMedians(data []byte) []float64 {
	var meds []float64
	for i := 0; i < len(data) && len(meds) < 64; i++ {
		var v float64
		switch b := data[i]; {
		case b < 0x80:
			v = excludePalette[b%byte(len(excludePalette))]
		case b < 0xc0:
			v = float64(b % 8)
		case i+8 < len(data):
			v = math.Float64frombits(binary.LittleEndian.Uint64(data[i+1:]))
			i += 8
		default:
			v = float64(b)
		}
		switch {
		case math.IsNaN(v):
			v = math.NaN()
		case v == 0:
			v = 0
		}
		meds = append(meds, v)
	}
	if len(meds) == 0 {
		meds = append(meds, 1)
	}
	return meds
}

// FuzzPeerExcludeOne checks the O(1) exclude-one median against the
// copy-based reference — sort the medians, then take
// stats.QuantileSortedExcluding at stats.SearchSorted's index — for every
// member of a fuzzed multiset, bit for bit.
func FuzzPeerExcludeOne(f *testing.F) {
	f.Add([]byte{5})
	f.Add([]byte{5, 6})
	f.Add([]byte{0, 0, 5, 6, 7})
	f.Add([]byte{1, 2, 1, 2, 3, 3})
	f.Add([]byte{0x80, 0x80, 0x81, 0x81, 0x81, 0x82, 0x82})
	f.Add([]byte{14, 14, 14, 14, 15, 12, 12, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		meds := decodeMedians(data)
		var r peerRef
		r.compute(append([]float64(nil), meds...))
		sorted := append([]float64(nil), meds...)
		sort.Float64s(sorted)
		for _, v := range meds {
			want := stats.QuantileSortedExcluding(sorted, stats.SearchSorted(sorted, v), 0.5)
			if got := r.excluding(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("medians %v: excluding(%v) = %v (%#x), reference %v (%#x)",
					meds, v, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}
