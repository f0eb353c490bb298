package coherence

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// ICache is the read-only instruction cache. Code is never written by
// the simulated programs, so instruction blocks are fetched outside the
// directory (ReqIFetch) and never invalidated; the cache still shares
// the CPU's single NoC port with the data cache, so heavy data traffic
// delays instruction refills exactly as the paper describes.
type ICache struct {
	id       int
	p        Params
	arr      *cacheArray
	node     *Node
	amap     *mem.AddrMap
	bankBase int

	pendActive bool
	pendIssued bool
	pendAddr   uint32

	// self is the cache's sleep/wake handle (inert outside a sleeping
	// engine).
	self sim.Handle

	// Stats.
	Fetches uint64
	Misses  uint64
}

// NewICache builds the instruction cache for CPU id.
func NewICache(id int, p Params, node *Node, amap *mem.AddrMap, bankBase int) *ICache {
	return &ICache{
		id:       id,
		p:        p,
		arr:      newCacheArray(p.ICacheBytes, p.BlockBytes, p.Ways),
		node:     node,
		amap:     amap,
		bankBase: bankBase,
	}
}

// Fetch returns the instruction word at addr if present, following the
// same poll-retry discipline as the data cache.
func (c *ICache) Fetch(now uint64, addr uint32) (uint32, bool) {
	if c.pendActive {
		return 0, false
	}
	if set, hit := c.arr.lookup(addr); hit {
		c.Fetches++
		return c.arr.readWord(set, WordAddr(addr)), true
	}
	c.Fetches++
	c.Misses++
	c.pendActive = true
	c.pendIssued = false
	c.pendAddr = c.p.BlockAddr(addr)
	c.tryIssue(now)
	return 0, false
}

// SetHandle wires the cache's sleep/wake handle.
func (c *ICache) SetHandle(h sim.Handle) { c.self = h }

// tryIssue puts the pending refill on the wire, or — when the port
// refuses it — keeps the cache awake to retry next cycle.
func (c *ICache) tryIssue(now uint64) {
	if !c.pendActive || c.pendIssued {
		return
	}
	if !c.node.CanSendReq() {
		c.self.Wake()
		return
	}
	m := c.node.NewMsg()
	m.Kind = ReqIFetch
	m.Src = c.id
	m.Addr = c.pendAddr
	if c.node.TrySendReq(m, c.bankBase+c.amap.BankOf(c.pendAddr), now) {
		c.pendIssued = true
	}
}

// Tick retries an unsent refill request, and sleeps once none is left:
// only a new miss (Fetch) gives it work again.
func (c *ICache) Tick(now uint64) {
	c.tryIssue(now)
	if !c.pendActive || c.pendIssued {
		c.self.Sleep(sim.NoWake)
	}
}

// SkipFetchHits charges k skipped cycles of a data-stalled CPU: each
// stalled retry re-fetches the current instruction, which hits and
// counts.
func (c *ICache) SkipFetchHits(k uint64) { c.Fetches += k }

// HandleMsg processes the refill response.
func (c *ICache) HandleMsg(m *Msg, now uint64) {
	if m.Kind != RspIData || !c.pendActive || m.Addr != c.pendAddr {
		panic(fmt.Sprintf("coherence: icache %d: unexpected %v", c.id, m))
	}
	c.arr.fill(m.Addr, Shared, m.Data)
	c.pendActive = false
}

// Drained reports whether no refill is outstanding.
func (c *ICache) Drained() bool { return !c.pendActive }
