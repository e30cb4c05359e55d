package sched

import "testing"

// Policy units: the scaling laws are pure functions of the signal, so
// each rule is pinned directly.

func TestQueueScalePolicy(t *testing.T) {
	p := QueueScale{TargetP99: 1000, Min: 2, Max: 64}
	// SLO violation: multiplicative growth.
	d := p.Scale(AutoSignal{Workers: 8, QueueP99: 5000, Util: 0.9})
	if d.Workers != 13 {
		t.Fatalf("p99 breach must grow 8 -> 13 (×3/2+1), got %d", d.Workers)
	}
	if d.Prewarm != (13+3)/4 {
		t.Fatalf("queue policy keeps a quarter standby, got %d", d.Prewarm)
	}
	// Quiet and idle: quarter decay.
	d = p.Scale(AutoSignal{Workers: 8, QueueP99: 100, Util: 0.2})
	if d.Workers != 6 {
		t.Fatalf("quiet fleet must decay 8 -> 6, got %d", d.Workers)
	}
	// Quiet but busy: hold.
	d = p.Scale(AutoSignal{Workers: 8, QueueP99: 100, Util: 0.8})
	if d.Workers != 8 {
		t.Fatalf("busy fleet must hold at 8, got %d", d.Workers)
	}
	// Clamps.
	if d = p.Scale(AutoSignal{Workers: 60, QueueP99: 9999}); d.Workers != 64 {
		t.Fatalf("growth must clamp at Max=64, got %d", d.Workers)
	}
	if d = p.Scale(AutoSignal{Workers: 2, QueueP99: 0, Util: 0}); d.Workers != 2 {
		t.Fatalf("decay must clamp at Min=2, got %d", d.Workers)
	}
}
