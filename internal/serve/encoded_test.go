package serve

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/trace"
)

// encodedBatch is one pre-binned submission, as a wire client would
// build it from the server's WireModel.
type encodedBatch struct {
	version  int
	hashes   []uint32
	arrivals []float64
	rows     [][]uint16
}

func encodeBatch(srv *Server, jobs []*trace.Job) encodedBatch {
	enc, binner, version := srv.WireModel()
	b := encodedBatch{version: version}
	var raw []float64
	for _, j := range jobs {
		raw = enc.Encode(j, raw)
		b.hashes = append(b.hashes, TemplateHash(j))
		b.arrivals = append(b.arrivals, j.ArrivalSec)
		b.rows = append(b.rows, binner.Bin(raw, nil))
	}
	return b
}

func (b encodedBatch) submit(srv *Server, out []Decision) ([]Decision, error) {
	return srv.SubmitEncoded(b.version, b.hashes, b.arrivals, b.rows, out)
}

// TestSubmitEncodedRejectsMalformedRows pins the boundary of what the
// pre-binned path accepts: the last legal bin and id decide, one past
// them (and a wrong row width) is the submitter's error, carries the
// ErrMalformedRow sentinel and reaches no shard.
func TestSubmitEncodedRejectsMalformedRows(t *testing.T) {
	srv, fx, _ := newTestServer(t, testConfig())
	_, binner, _ := srv.WireModel()
	numeric, categorical := -1, -1
	for f, card := range binner.Cards {
		if card > 0 && card < 1<<16 && categorical < 0 {
			categorical = f
		}
		if card == 0 && numeric < 0 {
			numeric = f
		}
	}
	if numeric < 0 || categorical < 0 {
		t.Fatal("fixture model lacks a numeric or a categorical feature")
	}
	lastBin := uint16(len(binner.Edges[numeric]))
	lastID := uint16(binner.Cards[categorical] - 1)

	for _, c := range []struct {
		name   string
		mutate func(row []uint16) []uint16
		ok     bool
	}{
		{"bin past the last edge", func(r []uint16) []uint16 { r[numeric] = lastBin; return r }, true},
		{"largest categorical id", func(r []uint16) []uint16 { r[categorical] = lastID; return r }, true},
		{"numeric bin len(edges)+1", func(r []uint16) []uint16 { r[numeric] = lastBin + 1; return r }, false},
		{"categorical id equal to card", func(r []uint16) []uint16 { r[categorical] = lastID + 1; return r }, false},
		{"short row", func(r []uint16) []uint16 { return r[:len(r)-1] }, false},
		{"long row", func(r []uint16) []uint16 { return append(r, 0) }, false},
	} {
		b := encodeBatch(srv, fx.jobs[:8])
		b.rows[5] = c.mutate(b.rows[5])
		before := srv.Stats().Submitted
		out, err := b.submit(srv, nil)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.ok && len(out) != 8:
			t.Errorf("%s: %d decisions for 8 rows", c.name, len(out))
		case !c.ok && !errors.Is(err, ErrMalformedRow):
			t.Errorf("%s: error %v, want ErrMalformedRow", c.name, err)
		case !c.ok && srv.Stats().Submitted != before:
			t.Errorf("%s: rejected call still reached a shard", c.name)
		}
	}
}

// TestSubmitEncodedHotSwapInFlight hot-swaps the model while
// pre-binned calls of several sizes are in flight (run with -race).
// Calls borrow pooled fan-out state that workers index into, so every
// call must come back either whole — each decision at its own row's
// index, from its own row's shard, under the pinned version — or as
// ErrModelVersion; a worker touching a call after releasing it would
// show up here as a torn vector or a race report.
func TestSubmitEncodedHotSwapInFlight(t *testing.T) {
	srv, fx, reg := newTestServer(t, testConfig())
	want := make([]int, len(fx.jobs))
	for i, j := range fx.jobs {
		want[i] = fx.model.Predict(j)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served, stale atomic64
	for w, size := range []int{1, 7, 8, 33, 64} {
		wg.Add(1)
		go func(w, size int) {
			defer wg.Done()
			var out []Decision
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := (w*97 + i*31) % (len(fx.jobs) - size)
				b := encodeBatch(srv, fx.jobs[off:off+size])
				for k := range out {
					out[k] = Decision{Category: -1, Shard: -1}
				}
				var err error
				out, err = b.submit(srv, out)
				if errors.Is(err, ErrModelVersion) {
					stale.add(1)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if len(out) != size {
					t.Errorf("%d decisions for %d rows", len(out), size)
					return
				}
				for k, d := range out {
					if d.Category != want[off+k] || d.ModelVersion != b.version || d.Shard != int(b.hashes[k]%4) {
						t.Errorf("row %d of %d: decision %+v, want category %d from shard %d under v%d",
							k, size, d, want[off+k], b.hashes[k]%4, b.version)
						return
					}
				}
				served.add(int64(size))
			}
		}(w, size)
	}

	// The same model under new version numbers: the bins stay valid, the
	// pin does not.
	for v := 2; v <= 6; v++ {
		time.Sleep(3 * time.Millisecond)
		if _, err := reg.Publish("w", fx.model, float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool { return srv.ModelVersion() == 6 })
	waitFor(t, time.Second, func() bool { return served.load() > 0 })
	close(stop)
	wg.Wait()
	t.Logf("%d rows served, %d calls turned away stale", served.load(), stale.load())
}

// TestSubmitPathsAgreeAcrossHotSwap: a job is decided the same whether
// it arrives raw (SubmitBatch: encoded and binned on the worker) or as
// the bins a client cut (SubmitEncoded: copied into the worker's tile),
// before and after a hot swap to a model whose edges differ. Two
// servers, so that the two paths drive two controllers through the same
// trajectory and Admit can be compared with everything else.
func TestSubmitPathsAgreeAcrossHotSwap(t *testing.T) {
	raw, fx, rawReg := newTestServer(t, testConfig())
	binned, _, binnedReg := newTestServer(t, testConfig())

	opts := core.DefaultTrainOptions()
	opts.NumCategories = testCategories
	opts.GBDT.NumRounds, opts.GBDT.MaxDepth = 9, 5
	half := len(fx.jobs) / 2
	second, err := core.TrainCategoryModel(fx.jobs[half:], fx.cm, opts)
	if err != nil {
		t.Fatal(err)
	}

	_, firstBinner, _ := binned.WireModel()
	stale := encodeBatch(binned, fx.jobs[:8])
	models := []*core.CategoryModel{fx.model, second}
	at := 0
	for v, model := range models {
		if v > 0 {
			for _, reg := range []*registry.Registry{rawReg, binnedReg} {
				if _, err := reg.Publish("w", model, 0); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, time.Second, func() bool { return raw.ModelVersion() == v+1 && binned.ModelVersion() == v+1 })
			_, binner, _ := binned.WireModel()
			if reflect.DeepEqual(binner.Edges, firstBinner.Edges) {
				t.Fatal("the second model has the first one's edges; the swap would prove nothing")
			}
			if _, err := stale.submit(binned, nil); !errors.Is(err, ErrModelVersion) {
				t.Fatalf("bins cut at v1's edges after the swap: error %v, want ErrModelVersion", err)
			}
		}
		for _, size := range []int{1, 3, 14, 64, 65} {
			jobs := fx.jobs[at : at+size]
			at += size
			want, err := raw.SubmitBatch(jobs, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := encodeBatch(binned, jobs).submit(binned, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, j := range jobs {
				if got[i] != want[i] {
					t.Fatalf("v%d, %d jobs, job %d: SubmitEncoded %+v, SubmitBatch %+v", v+1, size, i, got[i], want[i])
				}
				if cat := model.Predict(j); got[i].Category != cat || got[i].ModelVersion != v+1 {
					t.Fatalf("v%d, %d jobs, job %d: decision %+v, model predicts %d", v+1, size, i, got[i], cat)
				}
			}
		}
	}
}
