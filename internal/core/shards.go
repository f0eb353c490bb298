package core

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/noc"
)

// This file is the system-level side of the sharded BSP schedule
// (Config.Shards > 1; see internal/sim for the engine side). The
// partition is fixed by Build and independent of the shard count:
//
//	shard 0..n-1  cluster i: CPU i, its D- and I-cache, and the
//	              receive side of its NoC node
//	shard n       all memory banks (they share the memory space and
//	              serve each other's directory traffic, so they stay
//	              together)
//	shard n+1     the NoC (compute-empty; the network advances in its
//	              commit slot, after every send of the cycle)
//
// Compute phases touch only shard-local state — the one cross-shard
// structure, the network, is read via its per-node delivery queues
// plus one synchronized in-flight counter. All sends happen in the
// serial commit phase, cluster 0..n-1 then banks then the network
// tick: exactly the injection order of the serial schedule, which is
// why -shards N is byte-identical to -shards 1 (pinned by
// TestShardedMatchesSerial and the golden suite).

// cluster is one CPU's shard: the components whose old per-cycle
// sequence was cpu.Tick, dcache.Tick, icache.Tick, node.Tick. The
// receive half of the node tick stays in the compute phase; the send
// half is the cluster's commit.
type cluster struct {
	cpu  *cpu.CPU
	dc   coherence.DataCache
	ic   *coherence.ICache
	node *coherence.Node
}

func (c *cluster) Tick(now uint64) {
	c.cpu.Tick(now)
	c.dc.Tick(now)
	c.ic.Tick(now)
	c.node.RecvPhase(now)
}

func (c *cluster) Commit(now uint64) { c.node.SendPhase(now) }

// bankShard groups every memory bank: receive (directory work, memory
// reads/writes) in the compute phase, response injection at commit.
type bankShard struct {
	nodes []*coherence.Node
}

func (b *bankShard) Tick(now uint64) {
	for _, nd := range b.nodes {
		nd.RecvPhase(now)
	}
}

func (b *bankShard) Commit(now uint64) {
	for _, nd := range b.nodes {
		nd.SendPhase(now)
	}
}

// nocShard advances the network in its commit slot — after every node
// committed its sends, the position the serial schedule ticks it in.
type nocShard struct {
	net noc.Network
}

func (nocShard) Tick(uint64) {}

func (n nocShard) Commit(now uint64) { n.net.Tick(now) }

// registerSharded is Build's registration path for Config.Shards > 1.
func (s *System) registerSharded() {
	n := len(s.CPUs)
	for i := 0; i < n; i++ {
		s.Engine.RegisterShard(i, fmt.Sprintf("cluster%d", i), &cluster{
			cpu: s.CPUs[i], dc: s.DCaches[i], ic: s.ICaches[i], node: s.Nodes[i],
		})
	}
	s.Engine.RegisterShard(n, "banks", &bankShard{nodes: s.BNodes})
	s.Engine.RegisterShard(n+1, "noc", nocShard{net: s.Net})
	s.Engine.SetShards(s.Cfg.Shards)
}
