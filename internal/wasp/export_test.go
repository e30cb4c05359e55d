package wasp

import "repro/internal/vmm"

// SetFirstExitGate installs f as the first-exit seam for the external
// tests (nil removes it).
func SetFirstExitGate(f func(*vmm.Context)) { firstExitGate = f }
