package kplist

// SetVisitMemoCeiling lowers the visit-order memo's byte ceiling for one
// test and returns the function that restores it.
func SetVisitMemoCeiling(n int) (restore func()) {
	old := visitMemoCeiling
	visitMemoCeiling = n
	return func() { visitMemoCeiling = old }
}

// VisitMemo reports the session's visit-order memo entry for p on its
// current snapshot: the chunks it holds and whether it passed the
// ceiling. found is false when there is no such entry.
func (s *Session) VisitMemo(p int) (chunks int, over, found bool) {
	s.gtMu.Lock()
	e, found := s.gt[gtKey{p: p, visit: true}]
	s.gtMu.Unlock()
	if !found || e.g != s.Graph() {
		return 0, false, false
	}
	<-e.done
	return len(e.chunks), e.over, true
}
