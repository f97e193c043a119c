package drive

import (
	"fmt"
	"runtime"
	"time"

	"helixrc/internal/artifact"
	"helixrc/internal/benchreport"
	"helixrc/internal/harness"
)

// replaySection assembles the replay/caching counters of this process
// — recordings, replays, compilations and training profiles, per-tier
// (memory, disk, remote) hit/miss/write/load-time counters from the
// artifact stores, plus the work-claiming counters when sharded.
func replaySection(claims artifact.Claims) *benchreport.Replay {
	recordings, replays := harness.ReplayStats()
	batches, batchConfigs, batchFallbacks := harness.BatchStats()
	cs := harness.CacheStats()
	if claims != nil {
		cs.Add(claims.Stats())
	}
	return &benchreport.Replay{
		Recordings:     recordings,
		Replays:        replays,
		Compiles:       harness.CompileStats(),
		Profiles:       harness.ProfileStats(),
		Batches:        batches,
		BatchConfigs:   batchConfigs,
		BatchFallbacks: batchFallbacks,
		Claims:         cs.Claims,
		Steals:         cs.Steals,
		ExpiredLeases:  cs.ExpiredLeases,
		DupSuppressed:  cs.DupSuppressed,
		MemHits:        cs.MemHits,
		MemMisses:      cs.MemMisses,
		DiskHits:       cs.DiskHits,
		DiskMisses:     cs.DiskMisses,
		DiskWrites:     cs.DiskWrites,
		DiskLoadMS:     float64(cs.DiskLoadNS) / 1e6,
		RemoteHits:     cs.RemoteHits,
		RemoteMisses:   cs.RemoteMisses,
		RemoteWrites:   cs.RemoteWrites,
		RemoteLoadMS:   float64(cs.RemoteLoadNS) / 1e6,
		CacheEvictions: cs.Evictions,
		CacheEvictedMB: float64(cs.EvictedBytes) / (1 << 20),
	}
}

// appendLocalReport writes this process's (solo or partial) report.
func appendLocalReport(o *Options, p *Plan, claims artifact.Claims, reports []benchreport.Experiment, total time.Duration, interrupted bool, runErr error) error {
	anyPartial := false
	for _, r := range reports {
		anyPartial = anyPartial || r.Partial
	}
	errText := ""
	if runErr != nil {
		errText = runErr.Error()
	}
	path := o.JSONFile
	if path == "" {
		path = fmt.Sprintf("%s_%s.json", p.ReportPrefix, time.Now().Format("2006-01-02"))
	}
	r := benchreport.Report{
		Label:       o.Label,
		Timestamp:   time.Now().Format(time.RFC3339),
		Parallel:    harness.Parallelism(),
		Shard:       o.Shard,
		Cores:       o.Cores,
		TotalMillis: float64(total.Microseconds()) / 1e3,
		Experiments: reports,
		Replay:      replaySection(claims),
		Runtime:     snapshotRuntime(),
		Interrupted: interrupted,
		Partial:     anyPartial,
		Error:       errText,
	}
	if p.Attach != nil {
		p.Attach(&r)
	}
	err := benchreport.Append(path, r)
	if err == nil {
		fmt.Printf("%s report appended to %s\n", p.What, path)
	}
	return err
}

func snapshotRuntime() benchreport.Runtime {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return benchreport.Runtime{
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumGoroutine: runtime.NumGoroutine(),
		NumGC:        ms.NumGC,
		HeapAllocMB:  float64(ms.HeapAlloc) / (1 << 20),
		TotalAllocMB: float64(ms.TotalAlloc) / (1 << 20),
		PauseTotalMS: float64(ms.PauseTotalNs) / 1e6,
	}
}
