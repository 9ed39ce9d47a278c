// Package testutil holds the helpers that the test files of more than one
// package share. Production code does not import it.
package testutil

import "time"

// Await polls cond every millisecond until it holds, for at most five
// seconds, and reports whether it held. The caller fails the test with
// its own message when it did not.
func Await(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
