package plurality

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
)

// epochGoldens records, for every EngineEpoch, the SHA-256 of the sorted
// digest golden tables (kernelGolden, adversaryGolden, goldenHashes) that
// epoch's engines reproduce. A change that re-records a golden must also
// bump EngineEpoch and add a row here; an existing row never changes.
var epochGoldens = map[int]string{
	1: "dedef1bcc17aad22b9a67782e20c5bd62b1857d3780ab889e4b601407bbef628",
	2: "8a891486bf46cf1b6a75b05bac3644419a0c7649067df303bcab4fd4c00598aa",
	3: "7601563b97e58fa046d28662364f2d5c8b1744b8e4c3da62f6acf4d2efcefd66",
}

func goldenTablesDigest() string {
	var lines []string
	for name, table := range map[string]map[string]string{
		"kernel": kernelGolden, "adversary": adversaryGolden, "default-topology": goldenHashes,
	} {
		for k, v := range table {
			lines = append(lines, fmt.Sprintf("%s\t%s\t%s\n", name, k, v))
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestEngineEpochPinsGoldens fails when a digest golden is re-recorded
// without an EngineEpoch bump: cache keys carry the epoch, so a behaviour
// change under an unchanged epoch would let pluralityd serve results the
// current engines no longer produce.
func TestEngineEpochPinsGoldens(t *testing.T) {
	latest := 0
	for e := range epochGoldens {
		latest = max(latest, e)
	}
	if EngineEpoch != latest {
		t.Fatalf("EngineEpoch = %d, but the latest pinned epoch is %d", EngineEpoch, latest)
	}
	if got, want := goldenTablesDigest(), epochGoldens[EngineEpoch]; got != want {
		t.Fatalf("the digest golden tables hash to %s, pinned %s for epoch %d: a golden was re-recorded; bump EngineEpoch and pin the new hash under it", got, want, EngineEpoch)
	}
}
