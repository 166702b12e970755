//go:build !race || !linux

package lockrank

const checked = false

func mine() *stack { return nil }

func unwire(*stack) {}
