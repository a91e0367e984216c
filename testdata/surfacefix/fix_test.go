package surfacefix

import "testing"

func TestOnlyUser(t *testing.T) {
	if TestOnly() != 3 {
		t.Fatal("TestOnly")
	}
}
