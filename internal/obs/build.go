package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// BuildVersion is the version string stamped into faster_build_info. It
// defaults to the module's VCS revision (when built with module info) and can
// be overridden at link time:
//
//	go build -ldflags "-X repro/internal/obs.BuildVersion=v1.2.3" ./cmd/cprserver
var BuildVersion = ""

// buildRevision extracts the VCS revision from the binary's build info, if
// embedded ("unknown" otherwise).
func buildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return "unknown"
}

// RegisterBuildInfo registers the faster_build_info info metric: a constant
// gauge of value 1 whose labels identify the running binary — version (the
// linker-stamped BuildVersion, falling back to the VCS revision), the Go
// toolchain. Call it once per process at startup.
func RegisterBuildInfo(r *Registry) {
	if r == nil {
		return
	}
	version := BuildVersion
	if version == "" {
		version = buildRevision()
	}
	labels := map[string]string{
		"version": version,
		"go":      runtime.Version(),
	}
	r.Info("faster_build_info", labels)
	r.SetHelp("faster_build_info", "Build and runtime identity of this process (constant 1).")
}

// memStatsCache rate-limits runtime.ReadMemStats for the heap gauges: one
// read serves every gauge of one snapshot (and any snapshot within 100ms),
// keeping the stop-the-world cost of a scrape to a single ReadMemStats.
type memStatsCache struct {
	mu sync.Mutex
	at time.Time
	ms runtime.MemStats
}

func (c *memStatsCache) read() runtime.MemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := time.Now(); now.Sub(c.at) > 100*time.Millisecond {
		runtime.ReadMemStats(&c.ms)
		c.at = now
	}
	return c.ms
}

// RegisterRuntimeMetrics registers process-level runtime gauges:
//
//	faster_uptime_seconds  seconds since this call (process start, in practice)
//	go_goroutines          live goroutine count
//	go_heap_alloc_bytes    bytes of allocated heap objects (MemStats.HeapAlloc)
//	go_heap_sys_bytes      heap memory obtained from the OS (MemStats.HeapSys)
//	go_gc_cycles_total     completed GC cycles (MemStats.NumGC)
//
// All are GaugeFuncs evaluated at snapshot time; the two heap gauges share
// one rate-limited ReadMemStats. Call it once per process at startup.
func RegisterRuntimeMetrics(r *Registry) {
	if r == nil {
		return
	}
	start := time.Now()
	cache := &memStatsCache{}
	r.GaugeFunc("faster_uptime_seconds", func() int64 { return int64(time.Since(start).Seconds()) })
	r.SetHelp("faster_uptime_seconds", "Seconds since the process registered its runtime metrics.")
	r.GaugeFunc("go_goroutines", func() int64 { return int64(runtime.NumGoroutine()) })
	r.SetHelp("go_goroutines", "Live goroutine count.")
	r.GaugeFunc("go_heap_alloc_bytes", func() int64 { ms := cache.read(); return int64(ms.HeapAlloc) })
	r.SetHelp("go_heap_alloc_bytes", "Bytes of allocated heap objects.")
	r.GaugeFunc("go_heap_sys_bytes", func() int64 { ms := cache.read(); return int64(ms.HeapSys) })
	r.SetHelp("go_heap_sys_bytes", "Heap memory obtained from the OS.")
	r.GaugeFunc("go_gc_cycles_total", func() int64 { ms := cache.read(); return int64(ms.NumGC) })
	r.SetHelp("go_gc_cycles_total", "Completed GC cycles.")
}
