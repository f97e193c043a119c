package ir

// Canonical content fingerprints of front-end programs — the key
// material for the content-addressed artifact store (internal/artifact).
// The fingerprint hashes the textual corpus form (text.go), which
// round-trips everything the compiler and interpreter consume, with one
// canonicalization: block names are replaced by their position in the
// function. Builders are free to generate unique block names however
// they like; block *order* is what fixes UID assignment and therefore
// compilation, and order is exactly what the positional names encode.
// (The workloads DSL and irgen now mint names from per-program
// counters, so raw names are build-independent too — the
// canonicalization remains as defense in depth against front ends that
// are not.)

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
)

// FingerprintScheme names the fingerprint derivation. Bump it whenever
// the textual form or the canonicalization changes meaning; stores key
// disk entries by it, so a bump invalidates (never misreads) old
// entries.
const FingerprintScheme = "helixir-fp1"

// Fingerprint returns the canonical SHA-256 fingerprint of the program
// (with entry marked), stable across processes and across repeated
// builds of the same workload. Two programs share a fingerprint iff
// their canonical textual forms agree.
func (p *Program) Fingerprint(entry *Function) string {
	h := sha256.New()
	io.WriteString(h, FingerprintScheme+"\n")
	canon := map[*Block]string{}
	for _, f := range p.Funcs {
		for i, b := range f.Blocks {
			canon[b] = fmt.Sprintf("b%d", i)
		}
	}
	p.writeText(h, entry, func(b *Block) string {
		if name, ok := canon[b]; ok {
			return name
		}
		return b.Name // unpositioned block (never from a verified program)
	})
	return hex.EncodeToString(h.Sum(nil))
}

// AppendCompiledText appends f's text for a compiled-program
// fingerprint to dst: its blocks and instructions in the corpus format
// with positional block names, each instruction followed by the
// compiler-assigned state the corpus omits (text.go) but the simulator
// reads — its shared segment and whether it was cloned from the input
// program (Origin >= 0).
func (f *Function) AppendCompiledText(dst []byte) []byte {
	pos := func(b *Block) string { return "b" + strconv.Itoa(b.Index) }
	dst = append(dst, "func params="...)
	dst = strconv.AppendInt(dst, int64(len(f.Params)), 10)
	dst = append(dst, " regs="...)
	dst = strconv.AppendInt(dst, int64(f.NumRegs), 10)
	dst = append(dst, '\n')
	for _, b := range f.Blocks {
		dst = append(dst, "block b"...)
		dst = strconv.AppendInt(dst, int64(b.Index), 10)
		dst = append(dst, '\n')
		for i := range b.Instrs {
			in := &b.Instrs[i]
			dst = appendInstr(append(dst, "  "...), in, pos)
			dst = strconv.AppendInt(append(dst, " shared="...), int64(in.SharedSeg), 10)
			dst = strconv.AppendBool(append(dst, " cloned="...), in.Origin >= 0)
			dst = append(dst, '\n')
		}
	}
	return dst
}
