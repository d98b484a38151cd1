package livekv

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEveryNodesClientsRideEverySlot is the proposer-starvation
// regression. A slot decides one batch, and LastVoting's phase-1
// coordinator votes its own proposal, so when a
// batch held only its proposer's commands node 0's clients rode every
// slot and the others' waited for a slot node 0 had nothing for: with
// this load the least-served node completed about a twentieth of the
// most-served node's operations. With forward + merge every proposal
// carries every replica's commands, so the closed-loop clients of all
// three nodes advance together.
//
// The load is hoperf's live_delay in miniature — 16 closed-loop clients
// pinned to node c mod 3, two groups, a fixed 500 µs one-way delay so a
// slot takes long enough for commands to arrive while it runs — run to
// a fixed operation count. Both assertions are ratios of counts; nothing
// here depends on how fast the host is.
func TestEveryNodesClientsRideEverySlot(t *testing.T) {
	const clients, totalOps = 16, 2400
	c, err := NewCluster(Config{Replicas: 3, Groups: 2, RoundTimeout: 5 * time.Millisecond}, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N(); i++ {
		c.Faults(i).SetDelay(500*time.Microsecond, 500*time.Microsecond)
	}
	c.Start()
	t.Cleanup(c.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var issued atomic.Int64
	perNode := make([]atomic.Int64, c.N())
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			node := cl % c.N()
			for i := 0; issued.Add(1) <= totalOps; i++ {
				// Eight keys per client spread its operations over both groups.
				if err := c.Node(node).Put(ctx, fmt.Sprintf("c%d-k%d", cl, i%8), "v"); err != nil {
					t.Errorf("client %d op %d: %v", cl, i, err)
					return
				}
				perNode[node].Add(1)
			}
		}(cl)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := c.ConvergedWithin(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	lo, hi := perNode[0].Load(), perNode[0].Load()
	for i := range perNode {
		lo, hi = min(lo, perNode[i].Load()), max(hi, perNode[i].Load())
	}
	t.Logf("operations completed per node: %d %d %d", perNode[0].Load(), perNode[1].Load(), perNode[2].Load())
	// Node 0 is every slot's phase-1 coordinator, and the others' commands
	// ride its batch a forward later: it stays the most-served node. The
	// ratio measures 0.72–0.78 (−race included); the floor sits below that
	// and above the 0.62–0.64 measured while the other nodes waited a hop
	// for node 0's ack before deciding.
	if float64(lo) < 0.7*float64(hi) {
		t.Errorf("least-served node completed %d operations, most-served %d: ratio %.2f < 0.7 — a node's clients are starved",
			lo, hi, float64(lo)/float64(hi))
	}

	var committed, slots, forwards, merged int
	for _, st := range c.Node(0).Status() {
		committed += st.Stats.Committed
		slots += int(st.Stats.Applied)
		forwards += st.Stats.Forwards
		merged += st.Stats.Merged
	}
	t.Logf("node 0: %d commands in %d slots (%.2f per slot), %d forwards sent, %d commands proposed for peers",
		committed, slots, float64(committed)/float64(slots), forwards, merged)
	if committed != totalOps {
		t.Errorf("committed %d commands, want %d", committed, totalOps)
	}
	// This load measures 2.51–2.52 commands per slot, run after run. It was
	// ≈ 4.3 with one slot at a time: a command that arrives while a slot
	// runs opens the next slot at once instead of queueing behind it with
	// its neighbours, so the same commands spread over nearly twice the
	// slots — the window's stated cost. And it was 2.69–2.72 when a slot
	// took four rounds: at two, fewer commands arrive while one runs. The
	// floor sits well below the measurement and above one node's commands
	// alone riding each slot.
	if float64(committed) < 2.2*float64(slots) {
		t.Errorf("%d commands in %d slots = %.2f per slot, want ≥ 2.2: slots are not carrying every node's commands",
			committed, slots, float64(committed)/float64(slots))
	}
	if forwards == 0 || merged == 0 {
		t.Errorf("forwards sent %d, commands merged %d: the forward + merge path never ran", forwards, merged)
	}
}
