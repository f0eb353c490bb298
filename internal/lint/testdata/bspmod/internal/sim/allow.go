package sim

// This file exercises the //lint:allow suppression directive and its
// hygiene findings.

var allowed = map[int]int{1: 1}

// Warm allocates on the hot path under a reasoned //lint:allow, which
// suppresses the hotalloc finding.
//
//lint:hot
func (r *ring) Warm() {
	//lint:allow hotalloc — warm-up growth, bounded by the ring's capacity
	r.slots = make([]int, 0, 8)
}

func reasonless() {
	//lint:allow maprange
	for k := range allowed { // BAD: a reasonless allow suppresses nothing
		_ = k
	}
}

func typoed() {
	//lint:allow nosuchanalyzer — the analyzer name is wrong on purpose
	_ = allowed
}
