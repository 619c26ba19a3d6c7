package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"esd/internal/dist"
	"esd/internal/expr"
	"esd/internal/mir"
	"esd/internal/replay"
	"esd/internal/report"
	"esd/internal/trace"
)

// replayBudget bounds strict playback of a synthesized execution.
const replayBudget = 2_000_000

// checkExecution is the correctness gate for one synthesized execution:
// it must decode, replay in strict mode without diverging, and end in a
// state that matches the report it was synthesized from. It returns the
// execution's fingerprint (a hash of its encoded bytes).
func checkExecution(prog *mir.Program, rep *report.Report, encoded []byte) (string, error) {
	ex, err := trace.Decode(encoded)
	if err != nil {
		return "", fmt.Errorf("decoding execution: %w", err)
	}
	p, err := replay.NewPlayer(prog, ex, replay.Strict)
	if err != nil {
		return "", fmt.Errorf("preparing replay: %w", err)
	}
	final, err := p.Run(replayBudget)
	if err != nil {
		return "", fmt.Errorf("strict replay diverged: %w", err)
	}
	if !rep.Matches(final) {
		return "", fmt.Errorf("replay ends in %s, not the reported failure", final.Summary())
	}
	return fingerprint(encoded), nil
}

func fingerprint(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// dropCaches empties the program's process-wide caches — the
// fingerprint-keyed distance tables and the term interner — so the next
// synthesis starts as cold as a fresh esdsynth process.
func dropCaches() {
	dist.ResetSharedCache()
	expr.Reclaim()
	runtime.GC()
}
