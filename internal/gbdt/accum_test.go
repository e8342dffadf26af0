package gbdt

import (
	"math"
	"strings"
	"testing"
)

// accumSpecials are the gradient values a fuzz input names by a byte
// below 0x80: the signed zeros, subnormals, the largest finite values
// (whose sums overflow), infinities and NaNs of both signs and two
// payloads, whose sums show which operand an add keeps.
var accumSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff4000000000123),
	1e-6,
}

// accumCase decodes a fuzz input into one accumRows call: a histogram of
// 3 to 96 float64s, a row-major matrix of up to 16 rows by 8 features
// whose entries name any record start inside it (records may overlap,
// and a row may name one twice), a feature window, a segment of up to
// 40 row ids (repeats allowed) and a gradient pair per row. Bytes past
// the end of data read as zero.
type accumCase struct {
	d          []float64
	rm         []uint16
	nf, lo, hi int
	seg        []int32
	gh         []float64
	data       []byte
	at         int
}

func (c *accumCase) next() byte {
	if c.at >= len(c.data) {
		return 0
	}
	c.at++
	return c.data[c.at-1]
}

func newAccumCase(data []byte) *accumCase {
	c := &accumCase{data: data}
	c.nf = 1 + int(c.next()%8)
	n := 1 + int(c.next()%16)
	c.d = make([]float64, 3+int(c.next()%94))
	c.lo = int(c.next()) % (c.nf + 1)
	c.hi = c.lo + int(c.next())%(c.nf+1-c.lo)
	c.seg = make([]int32, int(c.next()%41))
	c.rm = make([]uint16, n*c.nf)
	for i := range c.rm {
		c.rm[i] = uint16(int(c.next())|int(c.next())<<8) % uint16(len(c.d)-2)
	}
	for i := range c.seg {
		c.seg[i] = int32(c.next()) % int32(n)
	}
	c.gh = make([]float64, 2*n)
	for i := range c.gh {
		if s := c.next(); s < 0x80 {
			c.gh[i] = accumSpecials[int(s)%len(accumSpecials)]
			continue
		}
		var bits uint64
		for k := 0; k < 8; k++ {
			bits |= uint64(c.next()) << (8 * k)
		}
		c.gh[i] = math.Float64frombits(bits)
	}
	return c
}

// FuzzAccumRows holds accumRows, the SSE2 kernel on amd64, to the Go
// kernel bit for bit on any in-range input: every sum, and a NaN's sign
// and payload, must come out the same. Off amd64 accumRows runs the Go
// kernel, and this compares it with itself.
func FuzzAccumRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 15, 93, 0, 8, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newAccumCase(data)
		got := make([]float64, len(c.d))
		accumRows(got, c.rm, c.nf, c.lo, c.hi, c.seg, c.gh)
		want := make([]float64, len(c.d))
		accumRowsGo(want, c.rm, c.nf, c.lo, c.hi, c.seg, c.gh)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("d[%d] = %v (%#x), the Go kernel's %v (%#x); nf %d window [%d, %d) seg %v",
					i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), c.nf, c.lo, c.hi, c.seg)
			}
		}
	})
}

// TestAccumRowsChecksArguments: the checks in front of the unchecked
// kernel refuse a window outside the row, a row id past the matrix or
// the gradients, and a negative one.
func TestAccumRowsChecksArguments(t *testing.T) {
	d := make([]float64, 9)
	rm := []uint16{0, 3, 6, 3} // two rows of two features
	gh := []float64{1, 1, 2, 1}
	for _, c := range []struct {
		name    string
		lo, hi  int
		seg     []int32
		gh      []float64
		problem string
	}{
		{"window past the row", 1, 3, []int32{0}, gh, "feature window"},
		{"reversed window", 2, 1, []int32{0}, gh, "feature window"},
		{"row past the matrix", 0, 2, []int32{0, 2}, append(gh, 3, 1), "row 2"},
		{"row past the gradients", 0, 2, []int32{1}, gh[:3], "row 1"},
		{"negative row", 0, 2, []int32{-1}, gh, "row 4294967295"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if p, ok := recover().(string); !ok || !strings.Contains(p, c.problem) {
					t.Fatalf("panicked with %v, want a message naming %q", p, c.problem)
				}
			}()
			accumRows(d, rm, 2, c.lo, c.hi, c.seg, c.gh)
		})
	}
}
