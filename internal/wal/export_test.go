package wal

// EncodeRecord frames a payload: the exact bytes Append writes.
func EncodeRecord(payload []byte) []byte { return appendFrame(nil, payload) }
