package congest

import "context"

// CtxErr reports whether a (possibly nil) context has been cancelled. The
// listing algorithms thread an optional context through their Params and
// poll it at round boundaries; nil means "no cancellation", so callers
// that never set one pay a single nil check per round.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
