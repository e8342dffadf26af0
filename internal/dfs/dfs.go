// Package dfs is an in-memory stand-in for the distributed storage
// setup of the paper's production prototype (Section 2.4, Appendix A):
// compute clients talk to caching servers through a client library;
// caching servers make SSD/HDD tiering decisions; dedicated SSD and HDD
// storage servers hold the data. It runs in virtual time on one fixed
// device model (server counts, seek times and bandwidths are constants;
// only the SSD capacity is chosen per cluster), so the prototype
// experiments can also measure application-level run time (Fig. 14) and
// SSD wear. Callers issue operations in virtual-time order; the
// prototype stack does so by running every execution as a desched
// process.
//
// The cross-layer BYOM interface is the Hint: the application layer
// attaches its model's category prediction when creating a file, and
// the caching server's Decider turns hints into placement decisions —
// exactly the integration the paper prototypes inside Google's data
// processing framework (Section 5.2: "the categorization results are
// passed to the storage cache server, which makes real-time decisions").
package dfs

import (
	"fmt"
	"sync"
)

// DeviceClass distinguishes the two storage tiers.
type DeviceClass int

const (
	// HDD is the default tier (infinite capacity, per Section 3.1).
	HDD DeviceClass = iota
	// SSD is the cache tier with a capacity quota.
	SSD
)

func (d DeviceClass) String() string {
	if d == SSD {
		return "ssd"
	}
	return "hdd"
}

// Hint is the placement hint a workload's model attaches to a file:
// the BYOM cross-layer contract. Categories follow the paper's design
// (0 = negative TCO savings; higher = more important).
type Hint struct {
	JobID     string
	Category  int
	SizeBytes float64
}

// Decider is the caching-server placement logic. Implementations
// receive the hint and current time and return true for SSD.
type Decider interface {
	Decide(h Hint, now float64) bool
}

// DeciderObserver optionally receives placement outcomes (the adaptive
// controller's feedback channel). wantedSSD reports the decider's own
// admission decision back with the realized outcome; the spillover
// estimator's denominator covers only SSD-scheduled files (the paper's
// x.DEV = 1 jobs).
type DeciderObserver interface {
	ObservePlacement(h Hint, fracOnSSD float64, wantedSSD, spilled bool, now float64)
}

// The device model: a small test-deployment cluster (the paper's
// prototype used 320 worker servers against a dedicated SSD cache).
// Each tier is a pool of servers, and each operation pays a seek/setup
// time plus transfer at the tier's bandwidth.
const (
	numSSDServers  = 24
	numHDDServers  = 192
	ssdSeekSec     = 0.0001
	ssdBytesPerSec = 2e9
	hddSeekSec     = 0.008
	hddBytesPerSec = 150e6
)

// storageServer models one server's single service queue.
type storageServer struct {
	class     DeviceClass
	seekSec   float64
	bytesPS   float64
	busyUntil float64
}

// serve schedules a batch of ops operations totalling bytes at now and
// returns the completion time, advancing the server queue. Seek/setup
// cost is paid per operation; transfer at the device bandwidth.
func (s *storageServer) serve(now, ops, bytes float64) float64 {
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	done := start + ops*s.seekSec + bytes/s.bytesPS
	s.busyUntil = done
	return done
}

// file tracks a stored file's placement.
type file struct {
	name      string
	size      float64
	ssdBytes  float64
	hint      Hint
	createdAt float64
}

// Metrics aggregates what happened on the cluster.
type Metrics struct {
	FilesCreated    int
	FilesDeleted    int
	BytesWrittenSSD float64 // wear-relevant
	BytesWrittenHDD float64
	BytesReadSSD    float64
	BytesReadHDD    float64
	HDDOps          float64
	SSDOps          float64
	SpilloverEvents int
	SSDPeakUsed     float64
}

// Cluster is the storage cluster: caching decision point plus device
// pools. All methods are safe for concurrent use.
type Cluster struct {
	mu      sync.Mutex
	ssdCap  float64
	decider Decider
	ssd     []*storageServer
	hdd     []*storageServer
	ssdUsed float64
	files   map[string]*file
	metrics Metrics
}

// NewCluster builds a cluster with ssdCapacity bytes of SSD cache and
// the given decider at the caching servers.
func NewCluster(ssdCapacity float64, decider Decider) (*Cluster, error) {
	if ssdCapacity < 0 {
		return nil, fmt.Errorf("dfs: negative SSD capacity")
	}
	if decider == nil {
		return nil, fmt.Errorf("dfs: nil decider")
	}
	c := &Cluster{ssdCap: ssdCapacity, decider: decider, files: map[string]*file{}}
	for i := 0; i < numSSDServers; i++ {
		c.ssd = append(c.ssd, &storageServer{class: SSD, seekSec: ssdSeekSec, bytesPS: ssdBytesPerSec})
	}
	for i := 0; i < numHDDServers; i++ {
		c.hdd = append(c.hdd, &storageServer{class: HDD, seekSec: hddSeekSec, bytesPS: hddBytesPerSec})
	}
	return c, nil
}

// Metrics returns a snapshot of the cluster metrics.
func (c *Cluster) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics
}

// SSDUsed returns the current SSD usage in bytes.
func (c *Cluster) SSDUsed() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ssdUsed
}

// pickServer returns the least-busy server of a pool.
func pickServer(pool []*storageServer) *storageServer {
	best := pool[0]
	for _, s := range pool[1:] {
		if s.busyUntil < best.busyUntil {
			best = s
		}
	}
	return best
}

// Create opens a new file: the caching server consults the decider with
// the application's hint and allocates SSD space (partially if the
// cache is nearly full — the spillover path). Returns the file handle.
func (c *Cluster) Create(name string, size float64, hint Hint, now float64) (*FileHandle, error) {
	if size <= 0 {
		return nil, fmt.Errorf("dfs: create %q with size %g", name, size)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.files[name]; exists {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	wantSSD := c.decider.Decide(hint, now)
	f := &file{name: name, size: size, hint: hint, createdAt: now}
	spilled := false
	if wantSSD {
		free := c.ssdCap - c.ssdUsed
		put := size
		if put > free {
			put = free
			spilled = true
			c.metrics.SpilloverEvents++
		}
		if put < 0 {
			put = 0
		}
		f.ssdBytes = put
		c.ssdUsed += put
		if c.ssdUsed > c.metrics.SSDPeakUsed {
			c.metrics.SSDPeakUsed = c.ssdUsed
		}
	}
	if obs, ok := c.decider.(DeciderObserver); ok {
		obs.ObservePlacement(hint, f.ssdBytes/size, wantSSD, spilled, now)
	}
	c.files[name] = f
	c.metrics.FilesCreated++
	return &FileHandle{cluster: c, name: name}, nil
}

// Delete removes a file and frees its SSD allocation.
func (c *Cluster) delete(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[name]
	if !ok {
		return fmt.Errorf("dfs: delete of unknown file %q", name)
	}
	c.ssdUsed -= f.ssdBytes
	// Fractional per-worker allocations leave float residue; less than
	// one byte of usage is physically meaningless.
	if c.ssdUsed < 1 {
		c.ssdUsed = 0
	}
	delete(c.files, name)
	c.metrics.FilesDeleted++
	return nil
}

// io performs a read or write of totalBytes in operations of opBytes
// against the file's device mix and returns the completion time.
func (c *Cluster) io(name string, now, totalBytes, opBytes float64, isWrite bool, cacheHitFrac float64) (float64, error) {
	if totalBytes < 0 || opBytes <= 0 {
		return 0, fmt.Errorf("dfs: invalid io sizes total=%g op=%g", totalBytes, opBytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[name]
	if !ok {
		return 0, fmt.Errorf("dfs: io on unknown file %q", name)
	}
	ssdFrac := f.ssdBytes / f.size
	ssdBytes := totalBytes * ssdFrac
	hddBytes := totalBytes - ssdBytes
	if !isWrite {
		// The DRAM cache in front of HDDs absorbs part of the reads.
		hddBytes *= 1 - cacheHitFrac
	}
	done := now
	if ssdBytes > 0 {
		ops := ssdBytes / opBytes
		c.metrics.SSDOps += ops
		if isWrite {
			c.metrics.BytesWrittenSSD += ssdBytes
		} else {
			c.metrics.BytesReadSSD += ssdBytes
		}
		if t := pickServer(c.ssd).serve(now, ops, ssdBytes); t > done {
			done = t
		}
	}
	if hddBytes > 0 {
		ops := hddBytes / opBytes
		c.metrics.HDDOps += ops
		if isWrite {
			c.metrics.BytesWrittenHDD += hddBytes
		} else {
			c.metrics.BytesReadHDD += hddBytes
		}
		if t := pickServer(c.hdd).serve(now, ops, hddBytes); t > done {
			done = t
		}
	}
	return done, nil
}

// FileHandle is the client library's view of one file.
type FileHandle struct {
	cluster *Cluster
	name    string
}

// Name returns the file name.
func (h *FileHandle) Name() string { return h.name }

// Write appends totalBytes in operations of opBytes; returns the
// virtual completion time.
func (h *FileHandle) Write(now, totalBytes, opBytes float64) (float64, error) {
	return h.cluster.io(h.name, now, totalBytes, opBytes, true, 0)
}

// Read fetches totalBytes in operations of opBytes; cacheHitFrac is the
// DRAM hit fraction in front of HDDs. Returns the completion time.
func (h *FileHandle) Read(now, totalBytes, opBytes, cacheHitFrac float64) (float64, error) {
	return h.cluster.io(h.name, now, totalBytes, opBytes, false, cacheHitFrac)
}

// Delete removes the file and frees its SSD allocation.
func (h *FileHandle) Delete() error { return h.cluster.delete(h.name) }

// FracOnSSD reports the byte fraction of the file resident on SSD.
func (h *FileHandle) FracOnSSD() (float64, error) {
	h.cluster.mu.Lock()
	defer h.cluster.mu.Unlock()
	f, ok := h.cluster.files[h.name]
	if !ok {
		return 0, fmt.Errorf("dfs: unknown file %q", h.name)
	}
	return f.ssdBytes / f.size, nil
}

// Client is the library compute servers use to reach the storage
// system; it exists to mirror the production structure (every compute
// server holds one).
type Client struct {
	cluster *Cluster
}

// NewClient returns a client bound to the cluster.
func NewClient(c *Cluster) *Client { return &Client{cluster: c} }

// Create creates a file with a placement hint.
func (cl *Client) Create(name string, size float64, hint Hint, now float64) (*FileHandle, error) {
	return cl.cluster.Create(name, size, hint, now)
}

// StaticDecider always answers the same way (all-SSD / all-HDD).
type StaticDecider bool

// Decide implements Decider.
func (d StaticDecider) Decide(Hint, float64) bool { return bool(d) }

// ThresholdDecider admits hints at or above a fixed category.
type ThresholdDecider int

// Decide implements Decider.
func (d ThresholdDecider) Decide(h Hint, _ float64) bool { return h.Category >= int(d) }
