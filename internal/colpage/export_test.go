package colpage

// WalkWindow walks the scan's next readahead window from its cursor,
// which it leaves where it is, and reports the pages it would fetch and
// the pages pruned so far — for tests outside the package, which build
// their chains with the access methods.
func (s *Scan) WalkWindow() (fetch int, pruned int64, ok bool, err error) {
	_, ok, err = s.walkAhead(s.window())
	return len(s.fetch), s.pruned, ok, err
}
