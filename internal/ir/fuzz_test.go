package ir

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseText feeds arbitrary bytes to the corpus parser, which
// helix-fuzz -repro runs on any file it is given. The parser must
// reject malformed input with an error, never panic, and a program it
// accepts that also verifies must print and reparse to the same
// fingerprint. Seeds: the difftest corpus, the hand-built program of
// text_test.go, and three directives that once crashed the parser when
// they came without their operand or before the program directive.
func FuzzParseText(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "difftest", "testdata", "*.hir"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	p, entry, _ := buildTextProg()
	f.Add(p.Text(entry))
	f.Add("sites")
	f.Add("sites 3\nprogram x\n")
	f.Add("init g 1\nextern hash\nprogram x\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, entry, err := ParseText(src, nil)
		if err != nil || p.Verify() != nil {
			return
		}
		text := p.Text(entry)
		q, qentry, err := ParseText(text, nil)
		if err != nil {
			t.Fatalf("reparse of printed program: %v\n%s", err, text)
		}
		if got, want := q.Fingerprint(qentry), p.Fingerprint(entry); got != want {
			t.Fatalf("round trip changed the fingerprint: %s, want %s\n%s", got, want, text)
		}
	})
}
