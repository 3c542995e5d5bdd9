package campaign

// Resolves returns how many times resolve has run in this process.
func Resolves() uint64 { return resolves.Load() }
