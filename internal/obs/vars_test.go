package obs

import (
	"strings"
	"testing"
	"time"
)

func TestWriteVarsFormats(t *testing.T) {
	var b strings.Builder
	WriteVars(&b, "x", struct {
		N    int64         `varz:"n"`
		Lat  time.Duration `varz:"lat_ns"`
		U    uint8         `varz:"u"`
		Mean float64       `varz:"mean"`
		Name string        `varz:"name"`
	}{-3, 1500 * time.Microsecond, 7, 2.345, "go1.22.0"})
	want := "x_n -3\nx_lat_ns 1500000\nx_u 7\nx_mean 2.35\nx_name go1.22.0\n"
	if b.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWriteVarsRejects: an untagged field or one of a kind the format
// has no rule for is a bug in the snapshot type, caught the first time
// it renders.
func TestWriteVarsRejects(t *testing.T) {
	for name, snap := range map[string]any{
		"untagged": struct{ N int64 }{},
		"bool": struct {
			B bool `varz:"b"`
		}{},
		"float32": struct {
			F float32 `varz:"f"`
		}{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: rendered without a panic", name)
				}
			}()
			WriteVars(&strings.Builder{}, "x", snap)
		}()
	}
}
