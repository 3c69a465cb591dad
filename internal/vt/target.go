package vt

import "fmt"

// Arch identifies a virtual target architecture.
type Arch uint8

// Supported architectures.
const (
	VX64 Arch = iota // 16 GPRs, two-address ALU, variable-length encoding
	VA64             // 32 GPRs, three-address ALU, fixed 4-byte encoding
)

func (a Arch) String() string {
	switch a {
	case VX64:
		return "vx64"
	case VA64:
		return "va64"
	}
	return "arch(?)"
}

// Set implements flag.Value: it sets a to the architecture named s
// ("vx64" or "va64"). An -arch flag declared with flag.Var therefore
// rejects an unknown name while parsing (exit status 2).
func (a *Arch) Set(s string) error {
	switch s {
	case "vx64":
		*a = VX64
	case "va64":
		*a = VA64
	default:
		return fmt.Errorf("unknown arch %q (want vx64 or va64)", s)
	}
	return nil
}

// Target describes the register file and calling convention of an
// architecture. Back-ends consult the Target when allocating registers and
// lowering calls; the vm uses it to set up frames.
type Target struct {
	Arch Arch
	Name string

	// NumGPR is the number of integer registers, including SP.
	NumGPR int
	// NumFPR is the number of floating-point registers.
	NumFPR int
	// SP is the stack-pointer register number. It is not allocatable.
	SP uint8
	// Scratch is a register reserved for encoder-internal expansion
	// sequences (va64 constant synthesis and branch expansion). It is not
	// allocatable on targets that need it; 0xFF means none is reserved.
	Scratch uint8

	// IntArgs lists the integer argument registers in order.
	IntArgs []uint8
	// FloatArgs lists the floating-point argument registers in order.
	FloatArgs []uint8
	// IntRet lists the integer return-value registers (up to two: 128-bit
	// values and by-value strings return in a pair).
	IntRet []uint8
	// CalleeSaved lists the integer registers a callee must preserve.
	CalleeSaved []uint8
	// CallerSaved lists the integer registers clobbered by calls,
	// excluding SP and Scratch.
	CallerSaved []uint8

	// TwoAddress reports whether register-register ALU operations require
	// RD == RA (the encoder rejects other forms).
	TwoAddress bool
	// FixedLen is the instruction size in bytes for fixed-length
	// encodings, or 0 for variable-length encodings.
	FixedLen int
}

func span(lo, hi uint8) []uint8 {
	r := make([]uint8, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		r = append(r, i)
	}
	return r
}

var vx64Target = &Target{
	Arch:        VX64,
	Name:        "vx64",
	NumGPR:      16,
	NumFPR:      16,
	SP:          15,
	Scratch:     0xFF,
	IntArgs:     []uint8{0, 1, 2, 3, 4, 5},
	FloatArgs:   []uint8{0, 1, 2, 3, 4, 5, 6, 7},
	IntRet:      []uint8{0, 1},
	CalleeSaved: span(10, 14),
	CallerSaved: span(0, 9),
	TwoAddress:  true,
	FixedLen:    0,
}

var va64Target = &Target{
	Arch:        VA64,
	Name:        "va64",
	NumGPR:      32,
	NumFPR:      16,
	SP:          31,
	Scratch:     30,
	IntArgs:     []uint8{0, 1, 2, 3, 4, 5, 6, 7},
	FloatArgs:   []uint8{0, 1, 2, 3, 4, 5, 6, 7},
	IntRet:      []uint8{0, 1},
	CalleeSaved: span(19, 29),
	CallerSaved: span(0, 18),
	TwoAddress:  false,
	FixedLen:    4,
}

// ForArch returns the Target descriptor for an architecture.
func ForArch(a Arch) *Target {
	switch a {
	case VX64:
		return vx64Target
	case VA64:
		return va64Target
	}
	panic("vt: unknown arch")
}

// IsCalleeSaved reports whether integer register r must be preserved by
// callees on this target.
func (t *Target) IsCalleeSaved(r uint8) bool {
	for _, c := range t.CalleeSaved {
		if c == r {
			return true
		}
	}
	return false
}

// AllocatableGPRs returns the integer registers available to a register
// allocator, excluding SP and the encoder scratch register.
func (t *Target) AllocatableGPRs() []uint8 {
	rs := make([]uint8, 0, t.NumGPR)
	for i := 0; i < t.NumGPR; i++ {
		r := uint8(i)
		if r == t.SP || r == t.Scratch {
			continue
		}
		rs = append(rs, r)
	}
	return rs
}
