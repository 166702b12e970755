package checker

// MaxLive exposes the per-exposure live-access cap to the external tests.
const MaxLive = maxLive
