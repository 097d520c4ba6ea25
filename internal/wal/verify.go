package wal

import "fmt"

// Verifier checks a resumed run's input against what a previous run's
// log recorded, so a resume whose input set changed under the log fails
// instead of skipping the wrong jobs by position. It compares each seq
// with a single digest (State.Digests) directly, and each fold of ok
// seqs at the fold's last seq: a change anywhere in the run is refused
// before any seq after the run is dispatched, and the run's own seqs
// all completed ok, so a resume skips them.
//
// Check takes the seqs in ascending order from 1, as a run reads its
// input. Not safe for concurrent use.
type Verifier struct {
	digests map[int]uint64
	folds   []fold
	next    int    // index of the fold the next seqs belong to
	at      int    // seq the running hash expects next; 0 when none is running
	h       uint64 // running hash of folds[next] up to seq at-1
}

// Verifier returns a checker of a resumed run's input against st.
func (st *State) Verifier() *Verifier {
	return &Verifier{digests: st.Digests, folds: st.folds}
}

// Check verifies seq's input record.
func (v *Verifier) Check(seq int, rec []string) error {
	var d uint64
	hashed := false
	if want, ok := v.digests[seq]; ok && want != 0 {
		d, hashed = ArgsDigest(rec), true
		if d != want {
			return fmt.Errorf("seq %d: input changed under resume: args digest %016x, log recorded %016x", seq, d, want)
		}
	}
	for v.next < len(v.folds) && v.folds[v.next].hi < seq {
		v.next++ // passed without seeing every seq: nothing to compare
		v.at = 0
	}
	if v.next == len(v.folds) {
		return nil
	}
	f := &v.folds[v.next]
	if seq == f.lo {
		v.h, v.at = foldSeed, seq
	}
	if seq != v.at {
		return nil
	}
	if !hashed {
		d = ArgsDigest(rec)
	}
	v.h = foldStep(v.h, d)
	v.at++
	if seq < f.hi {
		return nil
	}
	v.next++
	v.at = 0
	if v.h != f.h {
		return fmt.Errorf("seqs %d-%d: input changed under resume: the args digests of these %d completed jobs hash to %016x, log recorded %016x",
			f.lo, f.hi, f.hi-f.lo+1, v.h, f.h)
	}
	return nil
}
