package coherence

import (
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Sink consumes messages delivered to a node. The bank controller uses
// Accept to model its service rate; cache-side sinks always accept.
type Sink interface {
	// Accept reports whether the sink can take one more message now.
	Accept(now uint64) bool
	// HandleMsg processes a delivered message.
	HandleMsg(m *Msg, now uint64)
}

type outMsg struct {
	dst int
	msg *Msg
}

// Node is one NoC endpoint: the single network port shared by a CPU's
// instruction and data caches (the paper: "the instruction and data
// cache use the same interconnect port in order to minimize the NoC
// area"), or a memory bank's port.
//
// Outgoing messages flow through one FIFO so a node's messages keep
// their program order on the wire; see the package documentation for
// why the protocols need this. Control-class messages (responses,
// acknowledgements) may always be enqueued — they are what unblocks the
// rest of the system — while request-class messages are admitted only
// below ReqBound, which is how NoC backpressure reaches the write
// buffer and the miss handlers.
type Node struct {
	ID   int
	net  noc.Network
	sink Sink
	outQ *sim.Port[outMsg]
	pool msgPool

	// Sleep/wake handles (inert when the node is not registered with a
	// sleeping engine): self is the node's own, woken by every enqueue
	// and by arrivals; owner is the CPU this node serves, woken by every
	// consumed delivery; net is the NoC's, woken by every injection.
	self, owner, netH sim.Handle

	// ReqBound is the admission bound for request-class messages.
	ReqBound int

	// Retry bounds the retransmission loop run when the network loses a
	// transfer (drops only happen under fault injection; on a reliable
	// network the retry state machine never leaves its idle state).
	Retry RetryPolicy
	// drops is the network's loss-notification interface, nil on
	// reliable networks. The retry FSM below is armed only when non-nil.
	drops noc.DropNotifier
	// attempts counts losses of the current head-of-line transfer
	// (0 = FSM idle); nextTry is the cycle the next re-offer is allowed;
	// retryStart is when the first loss happened (retry latency).
	attempts   int
	nextTry    uint64
	retryStart uint64
	// retryErr latches the liveness failure when attempts exceeds the
	// budget; the engine watchdog polls it via RetryErr.
	retryErr error

	// Trace, when non-nil, observes every message this node receives
	// ("rx") and injects ("tx") — the protocol event log.
	Trace func(now uint64, dir string, self, peer int, m *Msg)

	// Obs, when attached, records one instant event per injected
	// message on this port's trace track.
	Obs *obs.Recorder

	// Stats.
	SendStallCycles uint64
	MsgsSent        uint64
	MsgsReceived    uint64
	// Retransmits counts transfers lost on the wire and re-offered;
	// BackoffCycles counts cycles the port held its queue in backoff.
	Retransmits   uint64
	BackoffCycles uint64
}

// NewNode attaches a node to the network. If the network reports
// transfer losses (noc.DropNotifier — the fault-injection wrapper
// does), the node arms its retransmission state machine with
// DefaultRetryPolicy.
func NewNode(id int, net noc.Network, sink Sink) *Node {
	n := &Node{ID: id, net: net, sink: sink, outQ: sim.NewPort[outMsg](0), ReqBound: 4,
		Retry: DefaultRetryPolicy}
	n.drops, _ = net.(noc.DropNotifier)
	return n
}

// SetHandles wires the node's sleep/wake handles: its own, its owner
// CPU's (zero for bank nodes), and the network ticker's.
func (n *Node) SetHandles(self, owner, net sim.Handle) {
	n.self, n.owner, n.netH = self, owner, net
}

// WakeOwner wakes the CPU this node serves. A cache calls it when it
// may have unblocked its CPU without a delivery (a write-buffer entry
// leaving for the network).
func (n *Node) WakeOwner() { n.owner.Wake() }

// RetryErr reports the latched liveness failure (nil while the port is
// within budget); the engine watchdog polls it each cycle.
func (n *Node) RetryErr() error { return n.retryErr }

// NewMsg returns a zeroed message owned by the caller, drawn from the
// node's free list. The caller fills it and hands ownership to the
// outbound port via SendCtrl/TrySendReq; it is recycled by the
// receiving node after consumption. It runs on every protocol send:
// hot path.
//
//lint:hot
func (n *Node) NewMsg() *Msg { return n.pool.get() }

// SendCtrl enqueues a control-class message (always admitted) for dst,
// not injectable before cycle notBefore.
func (n *Node) SendCtrl(m *Msg, dst int, notBefore uint64) {
	n.outQ.Send(outMsg{dst: dst, msg: m}, notBefore)
	n.self.Wake()
}

// TrySendReq enqueues a request-class message if the outbound queue is
// below the admission bound, reporting whether it was admitted.
func (n *Node) TrySendReq(m *Msg, dst int, notBefore uint64) bool {
	if n.outQ.Len() >= n.ReqBound {
		n.SendStallCycles++
		return false
	}
	n.outQ.Send(outMsg{dst: dst, msg: m}, notBefore)
	n.self.Wake()
	return true
}

// CanSendReq reports whether a request-class message would be admitted
// this cycle, without constructing one. A false result counts a send
// stall exactly as a rejected TrySendReq would, so retry loops can ask
// first and skip allocating a message that would only be discarded; a
// true result guarantees an immediately following TrySendReq succeeds.
func (n *Node) CanSendReq() bool {
	if n.outQ.Len() >= n.ReqBound {
		n.SendStallCycles++
		return false
	}
	return true
}

// OutQueueLen reports the pending outbound messages (diagnostics).
func (n *Node) OutQueueLen() int { return n.outQ.Len() }

// Tick delivers arrived messages to the sink, drains the outbound
// queue into the network, and sleeps when nothing is left to do before
// a known cycle.
func (n *Node) Tick(now uint64) {
	n.receive(now)
	n.send(now)
	n.settle(now)
}

// settle puts the node to sleep until the next cycle its Tick can act:
// the head of its outbound queue coming due, or the head of its
// arrival queue becoming deliverable. Enqueues and new arrivals wake
// it earlier. A ready head that is still queued (refused by the
// network, or held by retry backoff) and a delivery the sink refused
// keep it awake, because those retries advance per-cycle counters.
// Under a fault plan the node stays awake while anything is in flight:
// stall windows and duplicates make arrival times unreliable.
func (n *Node) settle(now uint64) {
	if n.drops != nil && !n.net.Quiet() {
		return
	}
	until := sim.NoWake
	if at, ok := n.outQ.NextAt(); ok {
		if at <= now {
			return
		}
		until = at
	}
	if at, ok := n.net.NextArrival(n.ID); ok {
		if at <= now {
			return
		}
		until = min(until, at)
	}
	n.self.Sleep(until)
}

// receive delivers arrived messages to the sink. It never injects into
// the network — handlers enqueue responses on the outbound port, which
// send drains.
//
// receive runs for every awake node every cycle: hot path.
//
//lint:hot
func (n *Node) receive(now uint64) {
	// The arrival check comes first: on the (common) cycles with
	// nothing deliverable the sink is never consulted. Both sinks'
	// Accept are pure queries, so the swapped order cannot change
	// behaviour.
	for n.net.Deliverable(n.ID, now) && n.sink.Accept(now) {
		m, ok := n.net.Deliver(n.ID, now)
		if !ok {
			break
		}
		n.MsgsReceived++
		msg := m.Payload.(*Msg)
		if n.Trace != nil {
			n.Trace(now, "rx", n.ID, m.Src, msg)
		}
		n.sink.HandleMsg(msg, now)
		// HandleMsg never retains the pointer (the pool's ownership
		// contract), so the message recycles into this node's free list.
		// Whatever the handler unblocked in the CPU acts at its next
		// slot, the following cycle.
		n.pool.put(msg)
		n.owner.Wake()
	}
}

// send drains the outbound queue into the network, preserving FIFO
// order (the port enforces it even when a later message has an earlier
// not-before cycle). It is the only place this node calls Inject, and
// nodes tick in registration order, so the global injection sequence —
// and with it every fault-RNG draw — is fixed by that order. The
// retransmission FSM gates the head: while a lost transfer backs off,
// nothing from this port enters the network — head-of-line blocking is
// what keeps the per-(src,dst) FIFO guarantee intact across
// retransmissions.
//
// send runs for every awake node every cycle: hot path.
//
//lint:hot
func (n *Node) send(now uint64) {
	for {
		head, ok := n.outQ.Peek(now)
		if !ok {
			break
		}
		if n.attempts > 0 && now < n.nextTry {
			n.BackoffCycles++
			break
		}
		pkt := noc.Packet{Src: n.ID, Dst: head.dst, Bytes: head.msg.WireBytes(), Payload: head.msg}
		if !n.net.Inject(pkt, now) {
			if n.drops != nil && n.drops.TookDrop(n.ID) {
				n.transferLost(head, now)
			}
			break
		}
		if n.attempts > 0 {
			// The retransmission went through; record how long the
			// transfer fought the wire and return the FSM to idle.
			n.Obs.Lat(obs.LatRetry, now-n.retryStart)
			n.attempts = 0
		}
		if n.Trace != nil {
			n.Trace(now, "tx", n.ID, head.dst, head.msg)
		}
		if n.Obs != nil {
			n.Obs.Instant(obs.PortPid(n.ID), 0, head.msg.Kind.String(), now, head.msg.Addr)
		}
		n.netH.Wake()
		n.MsgsSent++
		n.outQ.Recv(now)
	}
}

// transferLost runs the retry FSM on a loss notification: schedule the
// re-offer of the (still queued) head with exponential backoff, and
// latch the liveness failure once the budget is spent. The port keeps
// retransmitting even past the budget — the watchdog, not the port,
// decides to stop the run, and a latched diagnostic must not deadlock
// a run that has no watchdog attached.
func (n *Node) transferLost(head outMsg, now uint64) {
	if n.attempts == 0 {
		n.retryStart = now
	}
	n.attempts++
	n.Retransmits++
	if n.attempts > n.Retry.Budget && n.retryErr == nil {
		n.retryErr = &LivenessError{Node: n.ID, Dst: head.dst, Kind: head.msg.Kind,
			Addr: head.msg.Addr, Attempts: n.attempts, Cycle: now}
	}
	n.nextTry = now + n.Retry.Backoff(n.attempts)
}

// Idle reports whether the node has nothing left to send.
func (n *Node) Idle() bool { return n.outQ.Empty() }
