package adversary

import (
	"fmt"

	"fastread/internal/quorum"
	"fastread/internal/types"
)

// Partition is the division of the servers into the blocks used by the
// lower-bound constructions: Primary[i] are the blocks B1..B_{R+2} (T1..T_{R+2}
// in the Byzantine construction), each of size at most t; Shadow[i] are the
// additional blocks B1..B_{R+1} of size at most b used only by the Byzantine
// construction (these are the servers the adversary corrupts); Extra holds
// any servers the adversary cannot fit into blocks — which happens exactly
// when the configuration satisfies the fast-read bound and is why the
// schedule then fails to produce a violation.
type Partition struct {
	Primary [][]types.ProcessID
	Shadow  [][]types.ProcessID
	Extra   []types.ProcessID
}

// BuildCrashPartition splits the S servers into R+2 primary blocks of size at
// most t (Section 5, footnote 5), with any servers that do not fit going to
// Extra. It is the Byzantine partition with no shadow blocks.
func BuildCrashPartition(cfg quorum.Config) (Partition, error) {
	return buildPartition(cfg, false)
}

// BuildByzantinePartition splits the S servers into R+2 primary blocks
// T1..T_{R+2} of size at most t and R+1 shadow blocks B1..B_{R+1} of size at
// most b (Section 6.2), with the remainder in Extra. The shadow blocks are
// the servers the adversary makes malicious.
func BuildByzantinePartition(cfg quorum.Config) (Partition, error) {
	return buildPartition(cfg, true)
}

// buildPartition hands out s1..sS in order: one server to every block (so the
// construction is well formed), then the critical blocks T_{R+1} and B_{R+1}
// — the only ones the write reaches in the final partial run — up to
// capacity, then the others, mirroring the proof's freedom to choose the
// partition.
func buildPartition(cfg quorum.Config, byzantine bool) (Partition, error) {
	if err := cfg.Validate(); err != nil {
		return Partition{}, err
	}
	if cfg.Readers < 2 {
		return Partition{}, fmt.Errorf("adversary: the construction needs at least 2 readers, got %d", cfg.Readers)
	}
	if cfg.Faulty < 1 || (byzantine && cfg.Malicious < 1) {
		return Partition{}, fmt.Errorf("adversary: the construction needs t ≥ 1 (and b ≥ 1 with malicious servers), got %v", cfg)
	}
	p := Partition{Primary: make([][]types.ProcessID, cfg.Readers+2)}
	if byzantine {
		p.Shadow = make([][]types.ProcessID, cfg.Readers+1)
	}
	if blocks := len(p.Primary) + len(p.Shadow); cfg.Servers < blocks {
		return Partition{}, fmt.Errorf("adversary: need at least %d servers, one per block, got %d", blocks, cfg.Servers)
	}

	next := 1
	grow := func(block *[]types.ProcessID, size int) {
		for ; len(*block) < size && next <= cfg.Servers; next++ {
			*block = append(*block, types.Server(next))
		}
	}
	for i := range p.Primary {
		grow(&p.Primary[i], 1)
	}
	for i := range p.Shadow {
		grow(&p.Shadow[i], 1)
	}
	critical := cfg.Readers // index of T_{R+1} and of B_{R+1}
	grow(&p.Primary[critical], cfg.Faulty)
	if byzantine {
		grow(&p.Shadow[critical], cfg.Malicious)
	}
	for i := range p.Primary {
		grow(&p.Primary[i], cfg.Faulty)
	}
	for i := range p.Shadow {
		grow(&p.Shadow[i], cfg.Malicious)
	}
	grow(&p.Extra, cfg.Servers)
	return p, nil
}

// MaliciousServers returns every server in a shadow block.
func (p Partition) MaliciousServers() []types.ProcessID {
	return span(p.Shadow, 1, len(p.Shadow))
}

// span returns the servers of blocks lo..hi (1-based, inclusive). Indices
// past the last block name nothing, so the crash model's absent shadow
// blocks need no special case in the schedule.
func span(blocks [][]types.ProcessID, lo, hi int) []types.ProcessID {
	var out []types.ProcessID
	for i := lo; i <= hi && i <= len(blocks); i++ {
		out = append(out, blocks[i-1]...)
	}
	return out
}
