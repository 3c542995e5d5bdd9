package trace

// Wrapped returns how many times the replay restarted the stream.
func (s *ReplaySource) Wrapped() uint64 { return s.wrapped }
