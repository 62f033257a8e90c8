package budget

import (
	"errors"
	"sync"
	"testing"

	"github.com/mdz/mdz/internal/telemetry"
)

func TestNilBudgetUnlimited(t *testing.T) {
	var b *Budget
	tx := b.Begin()
	if tx != nil {
		t.Fatalf("nil budget Begin = %v, want nil tx", tx)
	}
	if err := tx.Reserve(1 << 50); err != nil {
		t.Fatalf("nil tx Reserve: %v", err)
	}
	tx.Close()
	if b.Used() != 0 {
		t.Fatalf("nil budget Used = %d, want 0", b.Used())
	}
}

func TestNewNonPositiveLimit(t *testing.T) {
	if b := New(0); b != nil {
		t.Fatalf("New(0) = %v, want nil", b)
	}
	if b := New(-5); b != nil {
		t.Fatalf("New(-5) = %v, want nil", b)
	}
}

func TestReserveAndRelease(t *testing.T) {
	b := New(100)
	tx := b.Begin()
	if err := tx.Reserve(60); err != nil {
		t.Fatalf("Reserve(60): %v", err)
	}
	if got := b.Used(); got != 60 {
		t.Fatalf("Used = %d, want 60", got)
	}
	if err := tx.Reserve(50); !errors.Is(err, ErrExceeded) {
		t.Fatalf("Reserve(50) over limit: err = %v, want ErrExceeded", err)
	}
	if got := b.Used(); got != 60 {
		t.Fatalf("Used after rejection = %d, want 60 (failed reserve must not charge)", got)
	}
	if err := tx.Reserve(40); err != nil {
		t.Fatalf("Reserve(40) at exactly limit: %v", err)
	}
	tx.Close()
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after Close = %d, want 0", got)
	}
	tx.Close() // idempotent
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after double Close = %d, want 0", got)
	}
}

func TestRejectionCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("budget.rejections")
	b := New(10)
	b.SetTelemetry(c)
	tx := b.Begin()
	defer tx.Close()
	if err := tx.Reserve(11); !errors.Is(err, ErrExceeded) {
		t.Fatalf("Reserve(11): %v", err)
	}
	if err := tx.Reserve(5); err != nil {
		t.Fatalf("Reserve(5): %v", err)
	}
	if got := c.Value(); got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}
}

func TestConcurrentTxSharedBudget(t *testing.T) {
	const (
		goroutines = 16
		perG       = 200
		limit      = 4 // only 4 single-byte reservations can be live at once
	)
	b := New(limit)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tx := b.Begin()
				if err := tx.Reserve(1); err == nil {
					if u := b.Used(); u < 1 || u > limit {
						t.Errorf("Used = %d outside [1,%d]", u, limit)
					}
				}
				tx.Close()
			}
		}()
	}
	wg.Wait()
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after all Tx closed = %d, want 0", got)
	}
}

func TestConcurrentReserveSameTx(t *testing.T) {
	b := New(1000)
	tx := b.Begin()
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tx.Reserve(1)
			}
		}()
	}
	wg.Wait()
	if got := b.Used(); got != 1000 {
		t.Fatalf("Used = %d, want 1000", got)
	}
	tx.Close()
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after Close = %d, want 0", got)
	}
}
