package ldp

// OLHAVX512Detected is the CPUID verdict olhAVX512 started from.
var OLHAVX512Detected = olhAVX512

// SetOLHAVX512 forces the OLH sweep onto the AVX-512 kernel (on) or the
// portable Go loop (off) and returns a func restoring the previous
// choice. Forcing it on is only valid when OLHAVX512Detected is true;
// tests that call it must not run in parallel.
func SetOLHAVX512(on bool) (restore func()) {
	prev := olhAVX512
	olhAVX512 = on
	return func() { olhAVX512 = prev }
}

// PartialFrameRejections returns the count-frame spec cases under "LP"
// magic, for tests that feed each one further down the partial lane.
func PartialFrameRejections() (names []string, frames [][]byte) {
	for _, tc := range countFrameRejections(partialMagic) {
		names = append(names, tc.name)
		frames = append(frames, tc.frame)
	}
	return names, frames
}
