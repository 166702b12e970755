//go:build lockcount

package lockrank

const counting = true
