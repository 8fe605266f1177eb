package wal

// AppendSync appends one frame and syncs.
func (l *Log) AppendSync(payload []byte) error {
	if err := l.Append(payload); err != nil {
		return err
	}
	return l.Sync()
}
