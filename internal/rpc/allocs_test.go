//go:build !race

package rpc

import (
	"context"
	"testing"
)

// TestPlaceSteadyStateAllocs is the network path's allocation budget,
// counted process-wide (client, net/http and daemon share the process)
// for one 64-job place against an in-process daemon once every pool is
// warm. The budgets are what the code measured (go1.24, three runs,
// no spread) before the three place handlers became one pipeline: 1
// per stream frame, the returned []wire.Decision, and 101 per
// HTTP-binary request, all of it net/http, which gets 3 of headroom
// for other toolchains. One boxed interface or escaping closure per
// frame doubles the stream figure, which is the benchmark's
// stream-lite metric. (sync.Pool drops items at random under the race
// detector, hence the build tag.)
func TestPlaceSteadyStateAllocs(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	c := newCodecClient(t, d, CodecBinary)
	s, err := c.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jobs := fx.jobs[:64]
	ctx := context.Background()

	for _, tc := range []struct {
		name   string
		place  func() error
		budget float64
	}{
		{"stream", func() error { _, err := s.Place(ctx, jobs); return err }, 1},
		{"http-binary", func() error { _, err := c.Place(ctx, jobs); return err }, 104},
	} {
		call := func() {
			if err := tc.place(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			call()
		}
		got := testing.AllocsPerRun(200, call)
		t.Logf("%s: %.2f allocations per 64-job place", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %.2f allocations per 64-job place, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
