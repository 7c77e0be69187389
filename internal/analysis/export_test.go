package analysis

import (
	"testing"

	"depscope/internal/ecosystem"
)

// hookNewChunked makes measureSnapshot start each world with f for the rest
// of the test, so a test can watch the worlds a run makes.
func hookNewChunked(t *testing.T, f func(*ecosystem.Universe, ecosystem.Snapshot) *ecosystem.Chunked) {
	t.Helper()
	old := newChunked
	newChunked = f
	t.Cleanup(func() { newChunked = old })
}
