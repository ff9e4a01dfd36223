package wire

import "testing"

func TestArenaStartsWithOneReference(t *testing.T) {
	a := GetArena(64)
	if got := a.Refs(); got != 1 {
		t.Fatalf("fresh arena refs = %d, want 1", got)
	}
	if len(a.Bytes()) != 64 {
		t.Fatalf("buffer length = %d, want 64", len(a.Bytes()))
	}
	a.Release()
}

func TestArenaRefRelease(t *testing.T) {
	a := GetArena(16)
	a.Ref()
	a.Ref()
	if got := a.Refs(); got != 3 {
		t.Fatalf("refs = %d, want 3", got)
	}
	a.Release()
	a.Release()
	if got := a.Refs(); got != 1 {
		t.Fatalf("refs = %d, want 1", got)
	}
	a.Release()
}

func TestArenaViewsStayValidWhileReferenced(t *testing.T) {
	a := GetArena(8)
	copy(a.Bytes(), "payload!")
	view := a.Bytes()[:7]
	a.Ref()
	a.Release() // the delivered message's reference drops...
	if string(view) != "payload" {
		t.Fatalf("view corrupted while referenced: %q", view)
	}
	a.Release() // ...and the retainer's reference recycles the buffer.
}

func TestArenaDoubleReleasePanics(t *testing.T) {
	// Release the arena's only reference twice. The underflow must panic in
	// every build: handing a live frame buffer to the next frame is memory
	// corruption, and the discipline is deliberately loud in that direction.
	a := GetArena(4)
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	a.Release()
}

// TestArenaPinsAtMostItsClass: a small frame never gets the buffer a large
// frame left in the pool, so retaining its arena pins at most the smallest
// class that holds it — max(2 × the frame, minArenaClass); frames beyond
// maxArenaRetain stay unpooled.
func TestArenaPinsAtMostItsClass(t *testing.T) {
	GetArena(60_000).Release()
	small := GetArena(100)
	if c := cap(small.Bytes()); c > minArenaClass {
		t.Errorf("a 100-byte frame got a %d-byte buffer, want at most %d", c, minArenaClass)
	}
	small.Release()
	for _, n := range []int{1, 60, minArenaClass, minArenaClass + 1, 3000, maxArenaRetain} {
		a := GetArena(n)
		if c := cap(a.Bytes()); c < n || c > max(2*n, minArenaClass) {
			t.Errorf("GetArena(%d) has capacity %d, want [%d, %d]", n, c, n, max(2*n, minArenaClass))
		}
		if n < minArenaClass && cap(a.Bytes()) != minArenaClass {
			t.Errorf("GetArena(%d) pins %d bytes, want the %d-byte floor", n, cap(a.Bytes()), minArenaClass)
		}
		a.Release()
	}
	big := GetArena(maxArenaRetain + 1)
	big.Release()
	if again := GetArena(maxArenaRetain + 1); again == big {
		t.Error("an oversized arena was pooled")
	}
}

func TestArenaReuseGrowsBuffer(t *testing.T) {
	a := GetArena(4)
	a.Release()
	b := GetArena(128)
	if len(b.Bytes()) != 128 {
		t.Fatalf("buffer length = %d, want 128", len(b.Bytes()))
	}
	b.Release()
}
