package ring

import (
	"testing"
	"testing/quick"
)

func TestFIFO(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	if r.Len() != 100 {
		t.Fatalf("len = %d", r.Len())
	}
	for i := 0; i < 100; i++ {
		if got := r.Pop(); got != i {
			t.Fatalf("pop %d = %d", i, got)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("len after drain = %d", r.Len())
	}
}

func TestWrapAround(t *testing.T) {
	// Cycle a small working set far past the initial capacity: the
	// buffer must wrap, not grow.
	var r Ring[int]
	for i := 0; i < 4; i++ {
		r.Push(i)
	}
	for i := 4; i < 10_000; i++ {
		if got := r.Pop(); got != i-4 {
			t.Fatalf("pop = %d, want %d", got, i-4)
		}
		r.Push(i)
	}
	if cap := len(r.buf); cap > 8 {
		t.Fatalf("steady-state cycling grew the buffer to %d", cap)
	}
}

func TestFront(t *testing.T) {
	var r Ring[int]
	r.Push(7)
	r.Push(8)
	if *r.Front() != 7 {
		t.Fatalf("front = %d", *r.Front())
	}
	*r.Front() = 9 // in-place update visible to Pop
	if got := r.Pop(); got != 9 {
		t.Fatalf("pop after front update = %d", got)
	}
	if *r.Front() != 8 {
		t.Fatalf("front after pop = %d", *r.Front())
	}
}

func TestEmptyPanics(t *testing.T) {
	for name, fn := range map[string]func(*Ring[int]){
		"Pop":   func(r *Ring[int]) { r.Pop() },
		"Front": func(r *Ring[int]) { r.Front() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of empty ring did not panic", name)
				}
			}()
			var r Ring[int]
			fn(&r)
		}()
	}
}

func TestPointerSlotsCleared(t *testing.T) {
	var r Ring[*int]
	v := new(int)
	r.Push(v)
	r.Pop()
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatal("popped slot still references the element")
		}
	}
}

// Property: any interleaving of pushes and pops behaves like a slice
// queue.
func TestPropertyMatchesSliceQueue(t *testing.T) {
	f := func(ops []int16) bool {
		var r Ring[int16]
		var model []int16
		for _, op := range ops {
			if op%3 == 0 && len(model) > 0 {
				want := model[0]
				model = model[1:]
				if r.Pop() != want {
					return false
				}
			} else {
				r.Push(op)
				model = append(model, op)
			}
			if r.Len() != len(model) {
				return false
			}
		}
		for _, want := range model {
			if r.Pop() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAtIndexesFromFront(t *testing.T) {
	var r Ring[int]
	// Wrap the buffer first so At has to cross the end of the slice.
	for i := 0; i < 6; i++ {
		r.Push(i)
	}
	for i := 0; i < 5; i++ {
		r.Pop()
	}
	for i := 6; i < 12; i++ {
		r.Push(i)
	}
	for i := 0; i < r.Len(); i++ {
		if got := *r.At(i); got != 5+i {
			t.Fatalf("At(%d) = %d, want %d", i, got, 5+i)
		}
	}
	*r.At(2) = -1
	r.Pop()
	r.Pop()
	if got := r.Pop(); got != -1 {
		t.Fatalf("write through At lost: popped %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At past the back did not panic")
		}
	}()
	r.At(r.Len())
}
