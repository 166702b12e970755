//go:build !lockcount

package lockrank

const counting = false
