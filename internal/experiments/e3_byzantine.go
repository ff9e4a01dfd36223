package experiments

import (
	"fmt"
	"time"

	"fastread"
	"fastread/internal/sim"
	"fastread/internal/stats"
)

// RunE3 reproduces the Section 6.1 claim (algorithm of Figure 5): with
// S > (R+2)t + (R+1)b, a workload in which b servers actively misbehave
// (forged timestamps, stale replays, memory loss, inflated seen sets) still
// completes every read in one round-trip with an atomic history and never
// returns a value the writer did not write.
func RunE3() ([]*stats.Table, error) {
	table := stats.NewTable(
		"E3 — fast Byzantine-tolerant register under active attack (S > (R+2)t + (R+1)b)",
		"S", "t", "b", "R", "attack", "writes", "reads", "rounds/read", "forged value returned", "atomic",
	)
	table.AddNote("the malicious servers use a signing key that is not the writer's; unforgeability makes their forgeries detectable")

	for i, sh := range []struct {
		servers, faulty, malicious, readers int
		attack                              string
		behaviors                           []fastread.ByzantineBehavior
	}{
		{8, 1, 1, 1, "forged timestamps", []fastread.ByzantineBehavior{fastread.ByzantineForgeTimestamp}},
		{8, 1, 1, 1, "stale replay", []fastread.ByzantineBehavior{fastread.ByzantineStaleReplay}},
		{11, 1, 1, 2, "memory loss vs r1", []fastread.ByzantineBehavior{fastread.ByzantineMemoryLoss}},
		{11, 1, 1, 2, "inflated seen sets", []fastread.ByzantineBehavior{fastread.ByzantineInflateSeen}},
		{14, 2, 2, 1, "forgery + mute", []fastread.ByzantineBehavior{fastread.ByzantineForgeTimestamp, fastread.ByzantineMute}},
		{17, 2, 2, 2, "replay + inflated seen", []fastread.ByzantineBehavior{fastread.ByzantineStaleReplay, fastread.ByzantineInflateSeen}},
	} {
		// 40 writes and 60 reads per reader. The last b servers misbehave, the
		// row's behaviours assigned round-robin.
		sc := sim.Scenario{
			Name:     fmt.Sprintf("e3 S=%d %s", sh.servers, sh.attack),
			Protocol: "fast-byz",
			Servers:  sh.servers, Faulty: sh.faulty, Malicious: sh.malicious, Readers: sh.readers,
			Jitter: delta / 2, Duration: 480 * time.Millisecond,
			WriteGap: 12 * time.Millisecond, ReadGap: 8 * time.Millisecond,
			Byzantine: map[int]string{},
		}
		for s := sh.servers - sh.malicious + 1; s <= sh.servers; s++ {
			sc.Byzantine[s] = sh.behaviors[(s-1)%len(sh.behaviors)].String()
		}
		res, err := run(sc, int64(i+1))
		if err != nil {
			return nil, err
		}
		forgedReturned := false
		for _, h := range res.Histories {
			for _, op := range h.Reads() {
				if string(op.Result) == "forged-value" || string(op.Result) == "forged-prev" {
					forgedReturned = true
				}
			}
		}
		table.AddRow(
			sh.servers, sh.faulty, sh.malicious, sh.readers, sh.attack,
			res.Stats.Writes, res.Stats.Reads,
			res.Stats.ReadRoundsPerOp, yesNo(forgedReturned), yesNo(res.Check.OK),
		)
	}
	return []*stats.Table{table}, nil
}
