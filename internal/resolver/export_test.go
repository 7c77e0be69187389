package resolver

// NewCountingTransport wraps inner in the tests' countingTransport, so
// external tests can build a cached resolver over an in-process store.
func NewCountingTransport(inner Transport) Transport {
	return &countingTransport{inner: inner}
}
