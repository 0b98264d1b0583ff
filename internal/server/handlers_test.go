package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// awaitRelease waits for detach's goroutine to call release, which it does
// after handing over its outcome.
func awaitRelease(t *testing.T, released chan struct{}) {
	t.Helper()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("release was never called")
	}
	if len(released) != 0 {
		t.Fatal("release was called more than once")
	}
}

func TestDetach(t *testing.T) {
	req := httptest.NewRequest("POST", "/", nil)

	t.Run("result", func(t *testing.T) {
		released := make(chan struct{}, 2)
		v, err := detach(req, func() { released <- struct{}{} }, "job", func() (int, error) { return 7, nil })
		if v != 7 || err != nil {
			t.Fatalf("detach = %d, %v; want 7, nil", v, err)
		}
		awaitRelease(t, released)
	})

	t.Run("error", func(t *testing.T) {
		released := make(chan struct{}, 2)
		want := errors.New("no luck")
		if _, err := detach(req, func() { released <- struct{}{} }, "job", func() (int, error) { return 0, want }); err != want {
			t.Fatalf("detach error = %v, want fn's own", err)
		}
		awaitRelease(t, released)
	})

	t.Run("panic", func(t *testing.T) {
		released := make(chan struct{}, 2)
		_, err := detach(req, func() { released <- struct{}{} }, "job 17", func() (int, error) { panic("boom") })
		if err == nil || !strings.Contains(err.Error(), "job 17 panicked: boom") {
			t.Fatalf("detach error = %v, want one naming the job and the panic", err)
		}
		awaitRelease(t, released)
	})

	// The request gives up first: the 503 comes at once, but the session
	// stays held until fn is done with it.
	t.Run("timeout", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		released := make(chan struct{}, 2)
		gate := make(chan struct{})
		_, err := detach(req.WithContext(ctx), func() { released <- struct{}{} }, "job", func() (int, error) {
			<-gate
			return 7, nil
		})
		var ae *apiError
		if !errors.As(err, &ae) || ae.status != http.StatusServiceUnavailable || ae.code != "timeout" ||
			!strings.HasPrefix(ae.msg, "job still running") {
			t.Fatalf("detach error = %#v, want the 503 timeout", err)
		}
		if len(released) != 0 {
			t.Fatal("release ran at the 503, while fn still holds the session")
		}
		close(gate)
		awaitRelease(t, released)
	})
}

// TestProbePanicClearsFlight: a probe that panics must take its flight out
// of the singleflight table, or every later probe at that threshold joins
// the dead flight and waits forever.
func TestProbePanicClearsFlight(t *testing.T) {
	ms := &ManagedSession{ID: "s1"} // no Session: the engine call dereferences nil
	for call := 1; call <= 2; call++ {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if rec := recover(); rec != nil {
					done <- fmt.Errorf("escaped: %v", rec)
				}
			}()
			_, _, err := ms.Probe(0.5, 0, nil)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.HasPrefix(err.Error(), "probe panicked") {
				t.Fatalf("call %d: err = %v, want the panic reported as an error", call, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d hung on a dead flight", call)
		}
	}
}
