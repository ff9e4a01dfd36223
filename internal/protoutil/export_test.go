package protoutil

// Test-only views of the shell's log, for the tests that pin the commit rule.

// EndRun ends an executor run by hand: a test that calls Log outside the
// executor commits what it staged exactly as a worker would.
func (s *Shell[S]) EndRun() error { return s.commitRun() }

// DurableLSN is the log's durable LSN (durable.Log.DurableLSN).
func (s *Shell[S]) DurableLSN() int64 { return s.dlog.DurableLSN() }

// CloseLog closes the log under a running server, the one log failure a test
// can cause without a filesystem seam.
func (s *Shell[S]) CloseLog() error { return s.dlog.Close() }

// LSN is the LSN of the last record logged for the slot's register.
func (sl *Slot[S]) LSN() int64 { return sl.lsn }
