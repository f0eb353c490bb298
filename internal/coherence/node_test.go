package coherence

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// recordSink collects delivered messages. It copies them: the node
// recycles the delivered *Msg into its pool after HandleMsg returns,
// so retaining the pointer would observe the recycled reuse.
type recordSink struct {
	accept bool
	msgs   []Msg
}

func (s *recordSink) Accept(now uint64) bool       { return s.accept }
func (s *recordSink) HandleMsg(m *Msg, now uint64) { s.msgs = append(s.msgs, *m) }

func TestNodeOutboundFIFOOrder(t *testing.T) {
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 2, FIFODepth: 8, SrcDepth: 4})
	sinks := []*recordSink{{accept: true}, {accept: true}}
	n0 := NewNode(0, net, sinks[0])
	n1 := NewNode(1, net, sinks[1])

	// Interleave ctrl and request sends: wire order must match enqueue
	// order regardless of class.
	n0.SendCtrl(&Msg{Kind: RspInvAck, Addr: 1}, 1, 0)
	if !n0.TrySendReq(&Msg{Kind: ReqRead, Addr: 2}, 1, 0) {
		t.Fatal("request refused below bound")
	}
	n0.SendCtrl(&Msg{Kind: RspInvAck, Addr: 3}, 1, 0)

	for cyc := uint64(0); cyc < 100 && len(sinks[1].msgs) < 3; cyc++ {
		n0.Tick(cyc)
		n1.Tick(cyc)
		net.Tick(cyc)
	}
	if len(sinks[1].msgs) != 3 {
		t.Fatalf("delivered %d messages", len(sinks[1].msgs))
	}
	for i, want := range []uint32{1, 2, 3} {
		if sinks[1].msgs[i].Addr != want {
			t.Fatalf("message %d has addr %d, want %d (FIFO order broken)", i, sinks[1].msgs[i].Addr, want)
		}
	}
}

func TestNodeRequestAdmissionBound(t *testing.T) {
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 2, FIFODepth: 1, SrcDepth: 1})
	n0 := NewNode(0, net, &recordSink{accept: true})
	n0.ReqBound = 2
	if !n0.TrySendReq(&Msg{Kind: ReqRead}, 1, 0) || !n0.TrySendReq(&Msg{Kind: ReqRead}, 1, 0) {
		t.Fatal("requests below bound refused")
	}
	if n0.TrySendReq(&Msg{Kind: ReqRead}, 1, 0) {
		t.Fatal("request above bound admitted")
	}
	if n0.SendStallCycles != 1 {
		t.Fatalf("SendStallCycles = %d", n0.SendStallCycles)
	}
	// Control messages are always admitted (they unblock the system).
	n0.SendCtrl(&Msg{Kind: RspInvAck}, 1, 0)
	if n0.OutQueueLen() != 3 {
		t.Fatalf("queue length = %d", n0.OutQueueLen())
	}
}

func TestNodeCanSendReqMatchesTrySendReq(t *testing.T) {
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 2, FIFODepth: 1, SrcDepth: 1})
	n0 := NewNode(0, net, &recordSink{accept: true})
	n0.ReqBound = 2
	if !n0.CanSendReq() {
		t.Fatal("CanSendReq false on an empty queue")
	}
	if n0.SendStallCycles != 0 {
		t.Fatal("CanSendReq counted a stall while admitting")
	}
	n0.TrySendReq(&Msg{Kind: ReqRead}, 1, 0)
	n0.TrySendReq(&Msg{Kind: ReqRead}, 1, 0)
	// At the bound: the pre-check must refuse AND count the stall, so a
	// retry loop using it accounts exactly like one calling TrySendReq.
	if n0.CanSendReq() {
		t.Fatal("CanSendReq true at the admission bound")
	}
	if n0.SendStallCycles != 1 {
		t.Fatalf("SendStallCycles = %d, want 1", n0.SendStallCycles)
	}
}

func TestNodeQuiescent(t *testing.T) {
	// A quiescent node sleeps: fresh nodes sleep after their first
	// tick, an enqueue wakes the sender, the arrival hook wakes the
	// receiver exactly when the packet becomes deliverable, and both
	// sleep again once drained — leaving only the always-awake network
	// ticker running.
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 1, FIFODepth: 8, SrcDepth: 4})
	sink := &recordSink{accept: true}
	n0 := NewNode(0, net, sink)
	n1 := NewNode(1, net, sink)
	e := sim.NewEngine()
	h0 := e.RegisterSleeper("n0", n0)
	h1 := e.RegisterSleeper("n1", n1)
	e.Register("net", sim.TickFunc(net.Tick))
	n0.SetHandles(h0, sim.Handle{}, sim.Handle{})
	n1.SetHandles(h1, sim.Handle{}, sim.Handle{})
	var readyAt uint64
	net.OnArrival(func(node int, at uint64) {
		readyAt = at
		[]sim.Handle{h0, h1}[node].WakeAt(at)
	})
	e.Step()
	e.Step()
	if e.Ticks() != 3+1 {
		t.Fatalf("fresh nodes still ticking: %d ticks over 2 cycles", e.Ticks())
	}
	n0.SendCtrl(&Msg{Kind: RspWriteAck}, 1, e.Now())
	for len(sink.msgs) == 0 && e.Now() < 30 {
		e.Step()
	}
	if len(sink.msgs) != 1 || e.Now() != readyAt+1 {
		t.Fatalf("delivered %d messages by cycle %d; want 1, at cycle %d", len(sink.msgs), e.Now()-1, readyAt)
	}
	// Cycle 2: n0 sends; cycle readyAt: n1 receives. Nothing else.
	before := e.Ticks()
	cycles := e.Now()
	if want := uint64(4 + 1 + 1 + (cycles - 2)); before != want {
		t.Fatalf("%d ticks by cycle %d; want %d", before, cycles, want)
	}
	for i := 0; i < 20; i++ {
		e.Step()
	}
	if e.Ticks()-before != 20 {
		t.Fatalf("drained nodes kept ticking: %d ticks over 20 cycles", e.Ticks()-before)
	}
}

func TestNodeNotBeforeDelaysInjection(t *testing.T) {
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 1, FIFODepth: 8, SrcDepth: 4})
	sink := &recordSink{accept: true}
	n0 := NewNode(0, net, sink)
	n1 := NewNode(1, net, sink)
	n0.SendCtrl(&Msg{Kind: RspWriteAck}, 1, 10)
	for cyc := uint64(0); cyc < 9; cyc++ {
		n0.Tick(cyc)
		n1.Tick(cyc)
		net.Tick(cyc)
	}
	if n0.Idle() {
		t.Fatal("message left before its notBefore cycle")
	}
}

func TestNodeSinkBackpressure(t *testing.T) {
	// A sink that refuses keeps messages in the network; flipping it
	// releases them.
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 1, FIFODepth: 8, SrcDepth: 4})
	src := NewNode(0, net, &recordSink{accept: true})
	dst := &recordSink{accept: false}
	n1 := NewNode(1, net, dst)
	src.SendCtrl(&Msg{Kind: RspWriteAck}, 1, 0)
	for cyc := uint64(0); cyc < 20; cyc++ {
		src.Tick(cyc)
		n1.Tick(cyc)
		net.Tick(cyc)
	}
	if len(dst.msgs) != 0 {
		t.Fatal("refusing sink received a message")
	}
	dst.accept = true
	for cyc := uint64(20); cyc < 40 && len(dst.msgs) == 0; cyc++ {
		src.Tick(cyc)
		n1.Tick(cyc)
		net.Tick(cyc)
	}
	if len(dst.msgs) != 1 {
		t.Fatal("message lost after sink started accepting")
	}
}

func TestCPUSinkRouting(t *testing.T) {
	p := DefaultParams(1)
	net := noc.NewGMN(noc.DefaultGMNConfig(2))
	sink := &CPUSink{}
	node := NewNode(0, net, sink)
	amap := mem.NewAddrMap(1)
	amap.AddRegion(mem.Region{Name: "all", Base: rigBase, Size: 1 << 20, Banks: []int{0}})
	dc := NewWTICache(0, p, node, amap, 1)
	ic := NewICache(0, p, node, amap, 1)
	sink.D = dc
	sink.I = ic

	// An instruction response goes to the icache...
	ic.Fetch(0, rigBase) // start a pending refill so the handler accepts
	blk := make([]byte, p.BlockBytes)
	sink.HandleMsg(&Msg{Kind: RspIData, Addr: rigBase, Data: blk}, 1)
	if !ic.Drained() {
		t.Fatal("icache did not receive its refill")
	}
	// ...and an invalidation to the dcache.
	sink.HandleMsg(&Msg{Kind: CmdInval, Addr: rigBase}, 2)
	if dc.Stats().InvalsReceived != 1 {
		t.Fatal("dcache did not receive the invalidation")
	}
}
