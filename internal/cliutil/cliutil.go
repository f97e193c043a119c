// Package cliutil holds the flag validation and cache setup shared by
// the cmd tools, so the accepted ranges and their error texts live in
// exactly one place. Validation happens at the edge: a typo fails with
// the accepted range instead of a confusing downstream error.
package cliutil

import (
	"fmt"
	"net/url"
	"strings"

	"helixrc/internal/harness"
)

// CheckLevel validates a -level flag (HCC compiler generation).
func CheckLevel(level int) error {
	if level < 1 || level > 3 {
		return fmt.Errorf("-level %d: accepted range is 1..3 (HCCv1, HCCv2, HCCv3)", level)
	}
	return nil
}

// CheckCores validates a -cores flag.
func CheckCores(cores int) error {
	if cores < 1 || cores > 1024 {
		return fmt.Errorf("-cores %d: accepted range is 1..1024", cores)
	}
	return nil
}

// CheckNonNegative validates a flag that accepts 0.. (ring parameters:
// link latency, bandwidths, node sizes). note is appended to the error
// in parentheses, e.g. "cycles" or "0 = unbounded".
func CheckNonNegative(name string, v int, note string) error {
	if v < 0 {
		return fmt.Errorf("-%s %d: accepted range is 0.. (%s)", name, v, note)
	}
	return nil
}

// MaxRingArrayBytes bounds the simulated ring-cache array summed over a
// ring's nodes (cores × node bytes): 16 MiB, 32 times Figure 11d's
// largest point (16 cores × 32 KiB). The simulator allocates about 4
// host bytes per simulated array byte, so a ring's arrays stay near
// 64 MiB of host memory however the request sizes them.
const MaxRingArrayBytes = 16 << 20

// CheckNodeBytes validates a ring node array size (helix-run
// -nodebytes, a simulate job's node_bytes) on a ring of cores nodes:
// 0 (unbounded) or a size whose total over the ring is at most
// MaxRingArrayBytes.
func CheckNodeBytes(name string, nodeBytes, cores int) error {
	if limit := MaxRingArrayBytes / max(cores, 1); nodeBytes < 0 || nodeBytes > limit {
		return fmt.Errorf("-%s %d: accepted range is 0..%d on %d cores (0 = unbounded; at most %d MiB of ring array over all nodes)",
			name, nodeBytes, limit, cores, MaxRingArrayBytes>>20)
	}
	return nil
}

// CheckFraction validates a share flag: a fraction in (0..1]. Zero is
// rejected — a share flag set to 0 is a typo, not a request for an
// empty mix (leave the flag off to take the default).
func CheckFraction(name string, v float64) error {
	if v <= 0 || v > 1 {
		return fmt.Errorf("-%s %v: accepted range is (0..1]", name, v)
	}
	return nil
}

// CheckOneOf validates an enumerated string flag against its accepted
// values.
func CheckOneOf(name, v string, allowed ...string) error {
	for _, a := range allowed {
		if v == a {
			return nil
		}
	}
	return fmt.Errorf("-%s %q: accepted values are %s", name, v, strings.Join(allowed, ", "))
}

// CheckRemote validates a -remote flag (helix-serve blob backend base
// URL): http(s), a host, no query/fragment. Trailing slashes are
// trimmed so path concatenation is uniform.
func CheckRemote(remote string) (string, error) {
	remote = strings.TrimRight(remote, "/")
	u, err := url.Parse(remote)
	if err != nil {
		return "", fmt.Errorf("-remote %q: %v", remote, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("-remote %q: want a base URL like http://host:8080", remote)
	}
	return remote, nil
}

// SetupCache builds the harness Env a tool's flags describe: o holds
// -parallel, -celltimeout, -cachebudget (in bytes), -cachedir and a
// -remote checked by CheckRemote, and clear (-cacheclear) wipes the
// disk tier first. -cacheclear without -cachedir is an error: there is
// nothing to clear (the remote tier is shared with other workers and is
// never cleared from a client).
func SetupCache(o harness.Options, clear bool) (*harness.Env, error) {
	if o.CacheDir == "" && clear {
		return nil, fmt.Errorf("-cacheclear requires -cachedir")
	}
	env := harness.New(o)
	if clear {
		if err := env.ClearDiskCache(); err != nil {
			return nil, fmt.Errorf("clearing cache dir %s: %w", o.CacheDir, err)
		}
	}
	return env, nil
}
