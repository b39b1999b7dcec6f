package sim

import "testing"

// TestTickWorkersPolicy pins the sizing rule behind Options.TickWorkers:
// an explicit count wins, otherwise GOMAXPROCS is shared among the
// simulations on the cache-miss path, capped at the semaphore size.
func TestTickWorkersPolicy(t *testing.T) {
	cases := []struct {
		name                             string
		configured, demand, slots, procs int
		want                             int
	}{
		{"explicit count is used as is", 3, 8, 8, 8, 3},
		{"explicit serial is used as is", 1, 1, 4, 8, 1},
		{"explicit above procs is used as is", 16, 1, 4, 8, 16},
		{"lone simulation gets every proc", 0, 1, 8, 8, 8},
		{"two simulations split the procs", 0, 2, 8, 8, 4},
		{"uneven split rounds down", 0, 3, 8, 8, 2},
		{"demand at procs runs serially", 0, 8, 8, 8, 1},
		{"demand above procs runs serially", 0, 12, 16, 8, 1},
		{"demand capped at the semaphore size", 0, 10, 2, 8, 4},
		{"zero demand counts as one", 0, 0, 4, 8, 8},
		{"never below one", 0, 5, 5, 1, 1},
		{"never below one with no procs", 0, 1, 1, 0, 1},
	}
	for _, c := range cases {
		if got := tickWorkers(c.configured, c.demand, c.slots, c.procs); got != c.want {
			t.Errorf("%s: tickWorkers(%d, %d, %d, %d) = %d, want %d",
				c.name, c.configured, c.demand, c.slots, c.procs, got, c.want)
		}
	}
}
