// Package cliutil holds the flag validation and cache-dir setup shared
// by the cmd tools (helix-run, helix-profile, helix-bench, helix-fuzz),
// so the accepted ranges and their error texts live in exactly one
// place. Validation happens at the edge: a typo fails with the accepted
// range instead of a confusing downstream error.
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

// SetupCache wires a tool's -cachedir/-cacheclear/-remote flags into
// the harness artifact stores: install the disk tier (when dir is
// non-empty) and the remote blob tier (when remote is non-empty), then
// optionally wipe the disk tier. -cacheclear without -cachedir is an
// error — there is nothing to clear (the remote tier is shared with
// other workers and is never cleared from a client).
func SetupCache(dir string, clear bool, remote string) error {
	if dir == "" && clear {
		return fmt.Errorf("-cacheclear requires -cachedir")
	}
	if remote != "" {
		base, err := CheckRemote(remote)
		if err != nil {
			return err
		}
		harness.SetCacheRemote(base)
	}
	if dir == "" {
		return nil
	}
	harness.SetCacheDir(dir)
	if clear {
		if err := harness.ClearDiskCache(); err != nil {
			return fmt.Errorf("clearing cache dir %s: %w", dir, err)
		}
	}
	return nil
}
