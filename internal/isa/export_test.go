package isa

// IsInt reports whether the class executes on the integer cluster (branches
// resolve on the integer ALUs, as in the 21264).
func (c Class) IsInt() bool {
	return c == ClassNop || c == ClassIntALU || c == ClassIntMul || c == ClassBranch
}
