// Package serve is the concurrent placement-serving layer: it turns the
// offline byom pipeline (category model + Algorithm 1 controller) into
// an online service path able to absorb bursty, multi-stream job
// traffic.
//
// Architecture:
//
//   - Incoming jobs are partitioned across Shards queues by their
//     recurring identity (TemplateKey). A shard is a queue and a worker
//     goroutine: the worker takes one message, then whatever else is
//     already queued, up to a 64-row batch, and serves them as one
//     batch. It never waits for more, so a lone request is served at
//     once and a busy shard batches what piled up behind its last pass.
//   - Every shard admits on the server's one Algorithm 1 controller, as
//     the paper keeps one threshold per SSD quota: the shard count sets
//     throughput, never a decision.
//   - Batches are classified by the compiled gbdt.Forest on binned rows
//     (one uint16 per feature, what a binary client ships): pre-binned
//     rows are copied into the worker's tile, raw jobs are encoded and
//     binned there, and one kernel walks each tree over the whole row
//     block — several times faster than per-row Model.Predict.
//   - The category model is resolved through internal/registry and its
//     forest, compiled when the bundle was built, is atomically swapped
//     in whenever the workload publishes a new version or rolls back,
//     without pausing traffic.
//
// Time inside the server is the trace's virtual clock: decisions use
// each job's ArrivalSec, mirroring the simulator's semantics, so a
// replayed week of traffic exercises the same controller trajectory
// regardless of wall-clock speed.
//
// Feedback does not ride the inference queue. Observe applies an outcome
// to the controller on the caller's goroutine, under the lock the shard
// workers take once per batch, and returns when it is applied:
// an observation is never a batch member, never waits behind a forest
// pass, and the server reads only the job's numeric fields and keeps
// nothing of it (so a network shell may hand it a job decoded in place,
// its strings left in the frame).
//
// The server's counters live under that same lock: a worker counts its
// batch's decisions and flush before it unlocks, Observe counts the
// outcome it applies, and Stats copies them all at once, so a snapshot
// never tears between fields.
//
// The server is the front half of the continuous-learning loop: the
// same Observe stream that drives Algorithm 1 also feeds the
// internal/online learner's window, whose gated retrains arrive back
// here as registry publishes (see docs/ARCHITECTURE.md).
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/features"
	"repro/internal/gbdt"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrModelVersion reports that a pre-binned submission was quantized
// against a model version that is no longer serving. Bin indices are
// only meaningful under the edges of the version that produced them, so
// the caller must refresh its binner and re-bin before retrying.
var ErrModelVersion = errors.New("serve: pre-binned rows target a stale model version")

// ErrMalformedRow reports a pre-binned row the serving model's binner
// could not have produced: the wrong feature count, a numeric bin past
// the last edge, or a categorical id outside the cardinality. It is the
// submitter's fault, not the server's; the row is rejected before any
// shard sees it.
var ErrMalformedRow = errors.New("serve: malformed pre-binned row")

// ErrClosed reports a submission or outcome that arrived after Close.
var ErrClosed = errors.New("serve: server is closed")

// Shards is the number of serving queues, one worker goroutine each.
// It sets throughput only: every shard admits on the server's one
// controller, so no decision depends on it.
const Shards = 8

// batchCap is the most placement rows a worker takes into one batch
// before it serves them; a single larger range is still served whole.
const batchCap = 64

// Config tunes the serving layer.
type Config struct {
	// Adaptive configures the server's one Algorithm 1 controller.
	// NumCategories must match the served model.
	Adaptive core.AdaptiveConfig
}

// DefaultConfig returns the serving parameters for an N-category
// model: the default Algorithm 1 controller.
func DefaultConfig(numCategories int) Config {
	return Config{Adaptive: core.DefaultAdaptiveConfig(numCategories)}
}

// Decision is the served placement verdict for one job.
type Decision struct {
	// Admit is true when the job should be placed on SSD.
	Admit bool
	// Category is the model's predicted importance category.
	Category int
	// ModelVersion is the registry version that produced Category.
	ModelVersion int
	// Shard is the serving queue that carried the job. The decision
	// does not depend on it.
	Shard int
}

// activeModel is the atomically swapped inference state.
type activeModel struct {
	model  *core.CategoryModel
	forest *gbdt.Forest
	// binner is the model's lossless quantizer (numeric split
	// thresholds as bin edges, the forest's own): it validates
	// pre-binned wire rows at submit and bins raw jobs' encodings on the
	// worker, so both kinds reach the forest as the same uint16 rows.
	binner  *features.Binner
	version registry.Version
	// modelBytes is what the version keeps resident: gbdt's
	// ResidentBytes of the model, its forest included.
	modelBytes int
}

// call is the per-call state of one submission: the caller's own
// slices plus the index that fans them out over shards.
// Calls are pooled, so in steady state a submission allocates nothing
// here.
//
// order holds the call's row indices counting-sorted by shard (ties in
// submission order), so a shard's share of the call is one contiguous
// range of order, and a message carries that range instead of per-shard
// copies of the rows. Workers read jobs/rows/arrivals and write out only
// at the indices in their own range; nothing on a worker may touch the
// call after its wg.Done(), which is what lets the submitter hand the
// call back to the pool as soon as wg.Wait returns.
type call struct {
	// Exactly one of jobs (raw, encoded on the worker) and rows
	// (pre-binned by the client, with arrivals as the decision clock) is
	// set.
	jobs     []*trace.Job
	rows     [][]uint16
	arrivals []float64
	out      []Decision
	// version pins pre-binned rows to the model whose edges quantized
	// them. The worker checks the pin against the active model at
	// classification time (a hot swap between submit and process would
	// otherwise walk the bins through a forest with other edges) and
	// sets mismatch instead of serving wrong decisions.
	version  int
	mismatch atomic.Bool

	hashes []uint32          // TemplateHash per job; scratch of the raw path
	order  []int32           // row indices sorted by shard
	cursor [Shards + 1]int32 // counting-sort scratch
	wg     sync.WaitGroup
	// Submit's jobs and out, pooled so that it allocates nothing.
	one    [1]*trace.Job
	oneOut [1]Decision
}

// release drops the caller's slices and returns the call to the pool.
// Only valid once every message sent for the call has been answered.
func (s *Server) release(c *call) {
	c.jobs, c.rows, c.arrivals, c.out = nil, nil, nil, nil
	c.one[0] = nil
	c.mismatch.Store(false)
	s.calls.Put(c)
}

// arrival returns the virtual decision clock of row i.
func (c *call) arrival(i int32) float64 {
	if c.jobs != nil {
		return c.jobs[i].ArrivalSec
	}
	return c.arrivals[i]
}

// message is one unit of shard work: one shard's range of a placement
// call, rows call.order[lo:hi]. Ranges keep the channel cost per job at
// ~1/len(range) of a send. The worker clears call when it rejects the
// range (stale version) and releases the call's wg during row assembly.
type message struct {
	call   *call
	lo, hi int32
	enq    time.Time
}

// Server is the concurrent placement-serving front-end. Create with
// New, serve with Submit/SubmitBatch, feed outcomes back with Observe,
// and Close when done. All methods are safe for concurrent use.
type Server struct {
	cfg      Config
	cm       *cost.Model
	workload string
	reg      *registry.Registry
	active   atomic.Pointer[activeModel]
	// installMu serializes reload(): concurrent publish callbacks
	// otherwise race resolve-vs-install and a stale version could
	// overwrite a newer one.
	installMu sync.Mutex
	swaps     atomic.Int64
	queues    [Shards]chan message
	unsub     func()
	// calls pools *call by pointer, so the runtime's pool list cannot
	// keep a closed Server reachable.
	calls *sync.Pool
	// amu serializes the one controller between shard workers (once per
	// batch, for its admissions), Observe callers (once per outcome) and
	// ACT readers. It also guards the counts, which the same critical
	// sections update and Stats reads.
	amu      sync.Mutex
	adaptive *core.Adaptive
	// counts holds the raw counters (its derived means stay zero);
	// latencyNs sums every decision's enqueue-to-decision latency.
	counts    metrics.ShardSnapshot
	latencyNs int64
	// batchLat streams the enqueue-to-decision latency of every batch
	// message; queueDepth samples a shard's queue length once per
	// processed batch. Both surface on /varz as histogram lines — they
	// carry wall-clock data and never feed scenario reports.
	batchLat   obs.Histogram
	queueDepth obs.Histogram

	mu     sync.RWMutex // guards closed vs in-flight submits
	closed bool
	wg     sync.WaitGroup
}

// New builds a server that resolves the workload's category model from
// the registry and tracks it: whenever the workload publishes a new
// version (or rolls back), the compiled model is swapped atomically
// under load. The model's category count must match cfg.Adaptive.
func New(reg *registry.Registry, workload string, cm *cost.Model, cfg Config) (*Server, error) {
	adaptive, err := core.NewAdaptive(cfg.Adaptive)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, cm: cm, workload: workload, reg: reg, adaptive: adaptive}
	s.calls = &sync.Pool{New: func() any { return new(call) }}
	// Subscribe before the initial resolve: a version published in
	// between is then picked up by its callback instead of being
	// silently missed.
	s.unsub = reg.Subscribe(workload, func(registry.Version) {
		_ = s.reload() // an incompatible model keeps the old one serving
	})
	if err := s.reload(); err != nil {
		s.unsub()
		return nil, err
	}
	for i := range s.queues {
		// 4 × batchCap messages: submitters queue a few batches' worth
		// while the worker serves one.
		s.queues[i] = make(chan message, 4*batchCap)
		s.wg.Add(1)
		go s.run(i)
	}
	return s, nil
}

// reload resolves the workload's currently active version and installs
// it. Resolve and install happen under one lock, so concurrent reloads
// serialize and the last one to finish reflects a then-current resolve
// — a stale version can never overwrite a newer install. Re-resolving
// (instead of trusting a callback payload) also collapses a burst of
// publishes to whichever version is active now, and makes rollbacks
// install the rolled-back-to version.
func (s *Server) reload() error {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	model, version, err := s.reg.Resolve(s.workload)
	if err != nil {
		return err
	}
	if cur := s.active.Load(); cur != nil && cur.version == version {
		return nil // already serving this version
	}
	if model.NumCategories() != s.cfg.Adaptive.NumCategories {
		return fmt.Errorf("serve: model %s v%d has %d categories, controller expects %d",
			version.Workload, version.Number, model.NumCategories(), s.cfg.Adaptive.NumCategories)
	}
	forest := model.Forest()
	binner, err := features.BinnerForModel(model.Model)
	if err != nil {
		return fmt.Errorf("serve: binning %s v%d: %w", version.Workload, version.Number, err)
	}
	am := &activeModel{model: model, forest: forest, binner: binner, version: version,
		modelBytes: model.Model.ResidentBytes()}
	if s.active.Swap(am) != nil {
		s.swaps.Add(1)
	}
	return nil
}

// ModelVersion returns the currently serving registry version number.
func (s *Server) ModelVersion() int { return s.active.Load().version.Number }

// ResidentBytes returns what the serving version's model holds on the
// heap, its forest included, counted by gbdt's ResidentBytes when the
// version was installed.
func (s *Server) ResidentBytes() int { return s.active.Load().modelBytes }

// Swaps returns how many hot-swaps have been applied since start.
func (s *Server) Swaps() int64 { return s.swaps.Load() }

// TemplateHash is the routing hash of a job's recurring identity: FNV-1a
// over the TemplateKey bytes (Pipeline + "/" + Step). It is part of the
// serving contract — remote clients that pre-bin rows compute it locally
// and ship it with each row, and SubmitEncoded queues row i on shard
// hash % Shards, so a template's jobs keep their order on one queue.
func TemplateHash(j *trace.Job) uint32 { return trace.TemplateHash(j.Pipeline, j.Step) }

// Submit requests a placement decision for one job, blocking until the
// decision is served: its shard's worker takes it with the next batch
// and never waits for more requests to fill one.
func (s *Server) Submit(j *trace.Job) (Decision, error) {
	c := s.calls.Get().(*call)
	defer s.release(c)
	c.one[0], c.hashes = j, append(c.hashes[:0], TemplateHash(j))
	c.jobs, c.out = c.one[:], c.oneOut[:]
	err := s.fanOut(c, c.hashes)
	return c.oneOut[0], err
}

// SubmitBatch requests decisions for a stream of jobs, fanning them out
// across shards as one range per shard and blocking until every decision
// is in. out is reused when large enough. This is the preferred entry
// point for bursty streams: ranges keep the queue cost per job tiny and
// deep per-shard queues let workers amortize inference over full
// batches.
func (s *Server) SubmitBatch(jobs []*trace.Job, out []Decision) ([]Decision, error) {
	if cap(out) < len(jobs) {
		out = make([]Decision, len(jobs))
	}
	out = out[:len(jobs)]
	if len(jobs) == 0 {
		return out, nil
	}
	c := s.calls.Get().(*call)
	defer s.release(c)
	c.jobs, c.out = jobs, out
	c.hashes = c.hashes[:0]
	for _, j := range jobs {
		c.hashes = append(c.hashes, TemplateHash(j))
	}
	return out, s.fanOut(c, c.hashes)
}

// SubmitEncoded requests decisions for pre-binned feature rows — the
// binary wire path. Each row arrives as the bin indices produced by the
// Binner of model version (see Binner); hashes carries TemplateHash per
// row for shard routing and arrivals the per-job virtual decision clock.
// The daemon does no feature work here: rows go straight to the shard
// workers, which copy them into their batch tile and classify.
// Returns ErrMalformedRow when a row is not one the serving model's
// binner could have produced, and ErrModelVersion when version no longer
// matches the serving model (at submit or, after a mid-flight hot swap,
// at classification time); for the latter the caller must re-fetch the
// bin edges, re-bin and retry.
func (s *Server) SubmitEncoded(version int, hashes []uint32, arrivals []float64, rows [][]uint16, out []Decision) ([]Decision, error) {
	if len(hashes) != len(rows) || len(arrivals) != len(rows) {
		return out, fmt.Errorf("serve: encoded submission has %d rows, %d hashes, %d arrivals",
			len(rows), len(hashes), len(arrivals))
	}
	if cap(out) < len(rows) {
		out = make([]Decision, len(rows))
	}
	out = out[:len(rows)]
	if len(rows) == 0 {
		return out, nil
	}
	am := s.active.Load()
	if am.version.Number != version {
		return out, fmt.Errorf("%w: have v%d, serving v%d", ErrModelVersion, version, am.version.Number)
	}
	for i, r := range rows {
		if err := am.binner.ValidateBins(r); err != nil {
			return out, fmt.Errorf("%w: row %d: %v", ErrMalformedRow, i, err)
		}
	}
	c := s.calls.Get().(*call)
	defer s.release(c)
	c.rows, c.arrivals, c.out, c.version = rows, arrivals, out, version
	if err := s.fanOut(c, hashes); err != nil {
		return out, err
	}
	if c.mismatch.Load() {
		return out, fmt.Errorf("%w: hot swap landed mid-flight", ErrModelVersion)
	}
	return out, nil
}

// fanOut routes the call's rows to their shards (row i to shard
// hashes[i] % Shards) and blocks until every shard has answered. It
// counting-sorts the row indices by shard into the call's pooled
// scratch and sends each shard that has rows one message naming its
// range.
func (s *Server) fanOut(c *call, hashes []uint32) error {
	const nsh = uint32(Shards)
	cursor := &c.cursor
	*cursor = [Shards + 1]int32{}
	// Count shard sid into cursor[sid+1] and prefix-sum, so cursor[sid]
	// is where shard sid's range begins; placing a row advances it, so
	// afterwards cursor[sid] is where the range ends.
	for _, h := range hashes {
		cursor[h%nsh+1]++
	}
	for sid := uint32(1); sid <= nsh; sid++ {
		cursor[sid] += cursor[sid-1]
	}
	if cap(c.order) < len(hashes) {
		c.order = make([]int32, len(hashes))
	}
	c.order = c.order[:len(hashes)]
	for i, h := range hashes {
		sid := h % nsh
		c.order[cursor[sid]] = int32(i)
		cursor[sid]++
	}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	now := time.Now()
	lo := int32(0)
	for sid, hi := range cursor[:nsh] {
		if hi > lo {
			c.wg.Add(1)
			s.queues[sid] <- message{call: c, lo: lo, hi: hi, enq: now}
		}
		lo = hi
	}
	s.mu.RUnlock()
	c.wg.Wait()
	return nil
}

// WireModel returns one consistent snapshot of the active model's
// client-side serving state: the feature encoder, the lossless binner
// and the version they belong to — what a daemon hands to clients so
// they can extract + pre-bin rows for SubmitEncoded.
func (s *Server) WireModel() (*features.Encoder, *features.Binner, int) {
	am := s.active.Load()
	return am.model.Encoder, am.binner, am.version.Number
}

// Observe feeds a placement outcome back to the controller (the
// spillover signal Algorithm 1 regulates on), with the same spillover
// accounting as the offline policies. It is synchronous: the outcome is
// applied on the caller's goroutine, under the lock the shard workers
// decide admissions under, so when Observe returns nil the controller
// has the outcome — every later Submit is decided with it and Stats
// counts it. j is read for its numeric fields only, so a job decoded in
// place off the wire need carry no strings, and the server keeps no
// reference to it. Outcomes should be reported in roughly arrival order,
// as the simulator does.
func (s *Server) Observe(j *trace.Job, o sim.Outcome) error {
	arrival, end, wantedSSD, spilledAt, spillFrac, tcioRate := sim.SpilloverFeedback(j, o, s.cm)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.amu.Lock()
	s.adaptive.Observe(arrival, end, wantedSSD, spilledAt, spillFrac, tcioRate)
	s.counts.Observations++
	s.amu.Unlock()
	return nil
}

// Close drains in-flight requests, stops the workers and detaches the
// registry subscription. The server cannot be reused.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.unsub != nil {
		s.unsub()
	}
	for _, q := range s.queues {
		close(q)
	}
	s.wg.Wait()
	return nil
}

// Stats returns the server-wide counter snapshot: the counts as one
// consistent copy, MeanLatency per decision and MeanBatchSize per batch.
func (s *Server) Stats() metrics.ShardSnapshot {
	s.amu.Lock()
	st, latencyNs := s.counts, s.latencyNs
	s.amu.Unlock()
	if st.Submitted > 0 {
		st.MeanLatency = time.Duration(latencyNs / st.Submitted)
	}
	if st.Batches > 0 {
		st.MeanBatchSize = float64(st.Submitted) / float64(st.Batches)
	}
	return st
}

// BatchLatency returns the enqueue-to-decision latency histogram of
// every shard's batch messages (nanoseconds).
func (s *Server) BatchLatency() obs.HistSnapshot { return s.batchLat.Snapshot() }

// QueueDepth returns the per-batch queue-depth histogram of every shard
// (messages waiting on the shard when a batch began processing).
func (s *Server) QueueDepth() obs.HistSnapshot { return s.queueDepth.Snapshot() }

// ACT returns the controller's current admission category threshold
// (the Fig. 16 controller state).
func (s *Server) ACT() int {
	s.amu.Lock()
	defer s.amu.Unlock()
	return s.adaptive.ACT()
}

// worker holds a shard worker's queue and reusable batch state.
type worker struct {
	id      int
	reqs    chan message
	batch   []message
	jobs    int       // placement jobs accumulated across batch messages
	tile    []uint16  // the batch's binned rows, back to back
	row     []float64 // one raw job's encoding, on its way into tile
	classes []int
	scratch []float64
}

// placements returns how many placement rows a message contributes.
func (m *message) placements() int { return int(m.hi - m.lo) }

// run is shard id's worker loop: it takes one message, then without
// blocking whatever else is queued until the batch holds batchCap rows,
// and serves the batch. A batch that stops at batchCap counts as a full
// flush, one that empties the queue as a drain flush. It exits once
// Close has closed the queue and every queued message is served.
func (s *Server) run(id int) {
	defer s.wg.Done()
	w := &worker{id: id, reqs: s.queues[id]}
	for first := range w.reqs {
		w.batch = append(w.batch[:0], first)
		w.jobs = first.placements()
	drain:
		for w.jobs < batchCap {
			select {
			case m, ok := <-w.reqs:
				if !ok {
					break drain
				}
				w.batch = append(w.batch, m)
				w.jobs += m.placements()
			default:
				break drain
			}
		}
		s.process(w)
	}
}

// process serves one accumulated batch on the shard worker goroutine.
// All placement rows are assembled in the worker's tile — raw jobs
// encoded and binned, pre-binned rows copied — and classified in one
// forest batch, then admissions are decided per job on the server's
// controller, written straight into the submitter's out, and counted
// with the batch under the same hold of amu. Pre-binned ranges pinned
// to a stale model version are rejected here (flagged for the
// submitter, no decisions served): their bins were cut at another
// model's edges.
func (s *Server) process(w *worker) {
	s.queueDepth.Record(int64(len(w.reqs)))
	am := s.active.Load()
	nf := am.forest.NumFeatures
	if cap(w.tile) < w.jobs*nf {
		w.tile = make([]uint16, w.jobs*nf)
	}
	n := 0
	for i := range w.batch {
		m := &w.batch[i]
		c := m.call
		switch {
		case c.jobs != nil:
			for _, r := range c.order[m.lo:m.hi] {
				w.row = am.model.Encoder.Encode(c.jobs[r], w.row)
				am.binner.Bin(w.row, w.tile[n*nf:(n+1)*nf])
				n++
			}
		default:
			if c.version != am.version.Number {
				c.mismatch.Store(true)
				c.wg.Done()
				m.call = nil
				continue
			}
			for _, r := range c.order[m.lo:m.hi] {
				// A copy into worker-owned scratch, so the (possibly
				// pooled) wire row buffers are never retained past
				// this batch.
				copy(w.tile[n*nf:(n+1)*nf], c.rows[r])
				n++
			}
		}
	}
	if n == 0 {
		return
	}
	w.classes, w.scratch = am.forest.PredictClassBinned(w.tile[:n*nf], w.classes, w.scratch)
	now := time.Now()
	s.amu.Lock()
	n = 0
	for i := range w.batch {
		m := &w.batch[i]
		c := m.call
		if c == nil { // a range rejected above
			continue
		}
		latency := now.Sub(m.enq)
		s.batchLat.RecordDuration(latency)
		for _, r := range c.order[m.lo:m.hi] {
			cat := w.classes[n]
			n++
			admit := s.adaptive.Admit(cat, c.arrival(r))
			c.out[r] = Decision{
				Admit:        admit,
				Category:     cat,
				ModelVersion: am.version.Number,
				Shard:        w.id,
			}
			if admit {
				s.counts.Admitted++
			}
		}
		jobs := int64(m.placements())
		s.counts.Submitted += jobs
		s.latencyNs += jobs * latency.Nanoseconds()
		s.counts.MaxLatency = max(s.counts.MaxLatency, latency)
		c.wg.Done()
	}
	s.counts.Batches++
	if w.jobs >= batchCap {
		s.counts.FullFlushes++
	} else {
		s.counts.DrainFlushes++
	}
	s.amu.Unlock()
}
