package cpu

import (
	"testing"
	"unsafe"

	"repro/internal/isa"
)

// Every opcode runs in both engines or in neither: a special in Step's
// switch, any other as the step newStep builds, in every mode. An opcode
// that is neither would fault in Step and only end a trace.
func TestOpcodeCoverage(t *testing.T) {
	for op := isa.Op(0); op < isa.NumOps; op++ {
		for _, md := range []isa.Mode{isa.Mode16, isa.Mode32, isa.Mode64} {
			s, ok := newStep(isa.Inst{Op: op, Len: 1}, md)
			special := opEntry[op]&entSpecial != 0
			switch {
			case special && ok:
				t.Errorf("%v is a special, yet newStep builds it in %v", op, md)
			case !special && (!ok || s.fn == nil):
				t.Errorf("%v is no special, yet newStep does not build it in %v", op, md)
			}
		}
	}
	// A trace holds one step per instruction: its size is the trace's.
	if n := unsafe.Sizeof(step{}); n > 24 {
		t.Errorf("a step is %d bytes, want at most 24", n)
	}
}
