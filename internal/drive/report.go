package drive

import (
	"fmt"
	"runtime"
	"time"

	"helixrc/internal/artifact"
	"helixrc/internal/benchreport"
	"helixrc/internal/harness"
)

// appendLocalReport writes this process's (solo or partial) report. Its
// replay section holds env's counters plus, when sharded, the
// work-claiming counters.
func appendLocalReport(o *Options, p *Plan, env *harness.Env, claims artifact.Claims, reports []benchreport.Experiment, total time.Duration, interrupted bool, runErr error) error {
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
	st := env.Stats()
	if claims != nil {
		st.Cache.Add(claims.Stats())
	}
	r := benchreport.Report{
		Label:       o.Label,
		Timestamp:   time.Now().Format(time.RFC3339),
		Parallel:    env.Workers(),
		Shard:       o.Shard,
		Cores:       o.Cores,
		TotalMillis: float64(total.Microseconds()) / 1e3,
		Experiments: reports,
		Replay:      st.Replay(),
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
