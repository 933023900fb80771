package hj

import "sync"

// Phaser is the barrier-style synchronization construct of the Habanero
// model (the paper's Section 3.2 lists phasers among the constructs that
// preserve deadlock freedom). This implementation supports the
// forall-phased pattern: a fixed set of participants repeatedly computes
// a phase and calls Next to wait for everyone.
//
// Unlike Async tasks — which are run-to-completion closures on the
// work-stealing deques and therefore cannot suspend mid-task — phased
// participants are long-running activities. ForAllPhased runs each
// participant on its own goroutine; the deadlock-freedom argument is the
// classic cyclic-barrier one: every registered participant either
// reaches Next or returns (deregistering), so no phase can wait forever.
type Phaser struct {
	mu         sync.Mutex
	cond       *sync.Cond
	registered int
	arrived    int
	phase      int
}

// NewPhaser returns a phaser with the given number of registered
// participants.
func NewPhaser(participants int) *Phaser {
	if participants < 1 {
		panic("hj: NewPhaser needs at least one participant")
	}
	p := &Phaser{registered: participants}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Phase reports the current phase number (0-based).
func (p *Phaser) Phase() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.phase
}

// Next signals the participant's arrival at the current phase and blocks
// until every registered participant has arrived, then advances the
// phase. It returns the new phase number.
func (p *Phaser) Next() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.arrived++
	if p.arrived >= p.registered {
		p.arrived = 0
		p.phase++
		p.cond.Broadcast()
		return p.phase
	}
	myPhase := p.phase
	for p.phase == myPhase {
		p.cond.Wait()
	}
	return p.phase
}

// Drop deregisters the calling participant (HJlib's phaser drop): the
// remaining participants no longer wait for it. If the dropper was the
// last arrival needed, the phase advances.
func (p *Phaser) Drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.registered--
	if p.registered < 0 {
		panic("hj: Phaser.Drop without a registered participant")
	}
	if p.arrived >= p.registered && p.registered > 0 {
		p.arrived = 0
		p.phase++
		p.cond.Broadcast()
	}
	if p.registered == 0 {
		p.phase++
		p.cond.Broadcast()
	}
}

// ForAllPhased runs body(i, ph) for i in [0, n) as n phased activities
// sharing one phaser, and returns when all have finished — HJlib's
// forall construct with phaser registration. The body synchronizes
// phases with ph.Next(); a body that returns is automatically dropped
// from the phaser, so heterogeneous phase counts cannot deadlock.
func ForAllPhased(n int, body func(i int, ph *Phaser)) {
	if n <= 0 {
		return
	}
	ph := NewPhaser(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer ph.Drop()
			body(i, ph)
		}(i)
	}
	wg.Wait()
}
