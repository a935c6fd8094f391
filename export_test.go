package lowsensing

// UnregisterProtocol removes a protocol kind. Tests that register a kind
// call it from t.Cleanup, so the registration cannot leak into tests that
// iterate ProtocolKinds, nor trip the duplicate panic under -count=N.
func UnregisterProtocol(kind string) {
	protocolRegistry.mu.Lock()
	defer protocolRegistry.mu.Unlock()
	delete(protocolRegistry.entries, kind)
}
