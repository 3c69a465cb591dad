package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"qcc"
)

// digestsJSON holds the expected row-multiset digest of every job id the
// workloads can draw, at the workload sizes. See README.md for how it was
// made and why it is not an independent oracle.
//
//go:embed digests.json
var digestsJSON []byte

func expectedDigests() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// digest returns "<rows>:<hash>" over the result's rows as a multiset: row
// order does not count, duplicates do.
func digest(rows [][]string) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0x1e})
	}
	return fmt.Sprintf("%d:%s", len(rows), hex.EncodeToString(h.Sum(nil))[:16])
}

// genDigests runs every job of every workload on all seven engines, checks
// that the engines agree, and writes the interpreter's digests to path.
func genDigests(path string) error {
	out := map[string]string{}
	for _, name := range workloadNames() {
		w, err := getWorkload(name)
		if err != nil {
			return err
		}
		for _, e := range qc.Engines() {
			r := newRunner(w, nil)
			done := map[string]bool{}
			for _, j := range w.jobs {
				if done[j.id] {
					continue
				}
				done[j.id] = true
				j.engine = e
				res := r.exec(j)
				if res.panicked {
					res = r.exec(j) // once more, on the reopened database
				}
				if res.err != nil {
					return fmt.Errorf("%s on %s: %v", j.id, e, res.err)
				}
				d := digest(res.rows)
				if prev, ok := out[j.id]; ok && prev != d {
					return fmt.Errorf("%s: %s gives %s, earlier engines gave %s", j.id, e, d, prev)
				}
				out[j.id] = d
			}
			r.close()
			fmt.Fprintf(os.Stderr, "%s: %s agrees (%d reopens)\n", name, e, r.reopens)
		}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
