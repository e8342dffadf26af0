package obs

import (
	"runtime"
	"time"
)

// ProcSnapshot is one process's runtime metadata for /varz: uptime,
// build identity and the memstats gauges an operator needs to spot
// leak/GC pathologies from the ops plane alone.
type ProcSnapshot struct {
	UptimeSec      int64  `varz:"uptime_sec"`
	GoVersion      string `varz:"go_version"`
	GOMAXPROCS     int    `varz:"gomaxprocs"`
	NumGoroutine   int    `varz:"goroutines"`
	HeapInuseBytes uint64 `varz:"heap_inuse_bytes"`
	GCPauseTotalNs uint64 `varz:"gc_pause_total_ns"`
	NumGC          int64  `varz:"num_gc"`
}

// CollectProc reads the current process state. start is the process's
// serving start instant. ReadMemStats costs a brief stop-the-world,
// which is fine at /varz scrape cadence.
func CollectProc(start time.Time) ProcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ProcSnapshot{
		UptimeSec:      int64(time.Since(start).Seconds()),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumGoroutine:   runtime.NumGoroutine(),
		HeapInuseBytes: ms.HeapInuse,
		GCPauseTotalNs: ms.PauseTotalNs,
		NumGC:          int64(ms.NumGC),
	}
}
