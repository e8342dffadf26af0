package rpc

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/rpc/wire"
	"repro/internal/sim"
	"repro/internal/trace"
)

// keepingObserver is an outcome hook that keeps every job pointer it is
// handed, as a learner or a heat tracker may.
type keepingObserver struct {
	mu   sync.Mutex
	kept []*trace.Job
}

func (k *keepingObserver) Observe(j *trace.Job, _ sim.Outcome) {
	k.mu.Lock()
	k.kept = append(k.kept, j)
	k.mu.Unlock()
}

// TestJSONPlaceScratchNotShared: the JSON place path decodes into pooled
// storage, so what must hold is that no request ever sees another's.
// Four JSON-codec clients place disjoint job sets in batches of varying
// size against one daemon, across a hot swap, each posting an outcome
// per round. Every decision must name its own request's job at its own
// position; the decisions a client was handed must not change while
// later requests reuse the scratch they were encoded from; a job the
// outcome hook kept by pointer, and a place-path job copied out of the
// scratch before it went back to the pool, must still read their
// original strings at the end (strings are cut from a string of the
// request's own, never from the body or the scratch).
func TestJSONPlaceScratchNotShared(t *testing.T) {
	fx := testFixture(t)
	reg := fx.newRegistry(t)
	cfg := testConfig()
	hook := &keepingObserver{}
	cfg.OutcomeObserver = hook
	d := startDaemon(t, reg, cfg)

	// A place-path job, copied while its scratch is still out of the pool.
	sc := d.scratch.Get().(*placeScratch)
	body, err := wire.AppendPlaceRequestJSON(nil, fx.jobs[:3])
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, wire.PathPlace, bytes.NewReader(body))
	decoded, err := ReadPlaceJSON(httptest.NewRecorder(), req, d.cfg.MaxBodyBytes, d.cfg.MaxBatch, &sc.body, &sc.json)
	if err != nil {
		t.Fatal(err)
	}
	copied := *decoded[0]
	d.scratch.Put(sc)

	const clients, rounds = 4, 24
	sizes := []int{64, 1, 7, 33, 64, 2}
	per := len(fx.jobs) / clients
	if per < 64 {
		t.Fatalf("fixture has %d jobs, want %d", len(fx.jobs), 64*clients)
	}
	byID := map[string]*trace.Job{}
	for _, j := range fx.jobs {
		byID[j.ID] = j
	}
	swapGate := make(chan struct{})
	var sawV2 sync.Map
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		own := fx.jobs[k*per : (k+1)*per]
		c := newCodecClient(t, d, CodecJSON)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var first, firstCopy []wire.Decision
			for r := 0; r < rounds; r++ {
				if r == rounds/2 {
					<-swapGate
				}
				n := sizes[(r+k)%len(sizes)]
				lo := (r * 13) % (len(own) - n + 1)
				jobs := own[lo : lo+n]
				decs, err := c.Place(ctx, jobs)
				if err != nil {
					t.Errorf("client %d round %d: %v", k, r, err)
					return
				}
				for i, dec := range decs {
					if dec.JobID != jobs[i].ID {
						t.Errorf("client %d round %d: decision %d names %q, its job is %q", k, r, i, dec.JobID, jobs[i].ID)
					}
					if dec.ModelVersion == 2 {
						sawV2.Store(k, true)
					}
				}
				if r == 0 {
					first, firstCopy = decs, slices.Clone(decs)
				}
				o := sim.Outcome{WantedSSD: decs[0].Admit, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
				if err := c.Observe(ctx, jobs[0], decs[0].Category, o); err != nil {
					t.Errorf("client %d round %d: observe: %v", k, r, err)
				}
			}
			if !slices.Equal(first, firstCopy) {
				t.Errorf("client %d: the decisions of its first request changed under later requests", k)
			}
		}()
	}
	if _, err := reg.Publish("w", fx.model, 1); err != nil {
		t.Fatal(err)
	}
	close(swapGate)
	wg.Wait()

	for k := 0; k < clients; k++ {
		if _, ok := sawV2.Load(k); !ok {
			t.Errorf("client %d saw no decision of model version 2 after the swap", k)
		}
	}
	if snap := d.Stats(); snap.PlaceJSON != clients*rounds || snap.PlaceBinary != 0 {
		t.Errorf("daemon counted %d JSON / %d binary places, want %d / 0", snap.PlaceJSON, snap.PlaceBinary, clients*rounds)
	}
	if !reflect.DeepEqual(&copied, fx.jobs[0]) {
		t.Errorf("a job copied out of the place scratch changed once the scratch was reused:\n%+v\n%+v", copied, *fx.jobs[0])
	}
	hook.mu.Lock()
	defer hook.mu.Unlock()
	if len(hook.kept) != clients*rounds {
		t.Errorf("the outcome hook was handed %d jobs, want %d", len(hook.kept), clients*rounds)
	}
	for _, j := range hook.kept {
		if want := byID[j.ID]; want == nil || !reflect.DeepEqual(j, want) {
			t.Errorf("a job kept by the outcome hook no longer reads as sent:\n%+v\n%+v", *j, fmt.Sprint(want))
		}
	}
}
