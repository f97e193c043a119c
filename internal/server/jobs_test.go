package server

import (
	"bytes"
	"testing"

	"helixrc/internal/cliutil"
)

// FuzzJobRequest feeds POST /jobs bodies through admission as
// handleSubmit reads them: decodeJobRequest, then normalize. Admission
// must never panic, and every request it accepts must describe a
// machine within the server's bounds: its ring arrays total at most
// cliutil.MaxRingArrayBytes, so no request can make a job allocate
// gigabytes of simulated node memory. Seeds: the end-to-end tests'
// request bodies and the oversized one they refuse.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		`{"kind":"compile","workload":"164.gzip","level":3,"cores":4}`,
		`{"kind":"compile","workload":"183.equake","level":1,"cores":2}`,
		`{"kind":"compile","workload":"164.gzip","deadline_ms":30}`,
		`{"kind":"simulate","workload":"164.gzip","cores":4,"ref":true}`,
		`{"kind":"simulate","workload":"164.gzip","cores":4,"ring":false}`,
		`{"kind":"simulate","workload":"164.gzip","link_latency":4,"signal_bandwidth":2,"node_bytes":32768}`,
		`{"kind":"simulate","workload":"164.gzip","node_bytes":2147483647}`,
		`{"kind":"figure","experiment":"fig9"}`,
		`{"kind":"figure","experiment":"fig11a","cores":8}`,
		`{"kind":"compile","workload":"164.gzip","bogus":1}`,
		`kind=figure`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJobRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := req.normalize(); err != nil {
			return
		}
		arch := req.arch()
		if n := int64(arch.Ring.ArrayBytes); n < 0 || n*int64(arch.Cores) > cliutil.MaxRingArrayBytes {
			t.Fatalf("admitted %s: %d cores x %d node bytes exceeds %d bytes of ring array",
				body, arch.Cores, arch.Ring.ArrayBytes, cliutil.MaxRingArrayBytes)
		}
	})
}
