package main

import (
	"fmt"
	"math/rand/v2"

	"repro/oodb"
)

// The workload definitions (schemas, populations and mixes) are kept
// here, not imported from internal/bench or internal/workload, so that
// editing those packages cannot change what this benchmark runs.

// bankingSource is the banking schema: an account hierarchy whose
// deposit is declared to commute with itself (escrow style).
const bankingSource = `
class account is
    instance variables are
        number  : integer
        owner   : string
        balance : integer
        flagged : boolean
    method deposit(n) is
        balance := balance + n
    end
    method withdraw(n) is
        if n <= balance then
            balance := balance - n
        end
        return balance
    end
    method getbalance is
        return balance
    end
    method rename(who) is
        owner := who
    end
end

class savings inherits account is
    instance variables are
        ratepct : integer
    method accrue is
        send deposit(balance * ratepct / 100) to self
    end
end

class checking inherits account is
    instance variables are
        overdraft : integer
    method withdraw(n) is redefined as
        if n <= balance + overdraft then
            balance := balance - n
        end
        return balance
    end
end
`

// cadSource is the CAD schema: parts with read-heavy inspections,
// design sessions that inspect and then revise, and assemblies whose
// sessions also count their children. revisions exists only so the
// benchmark can read the counters back for its correctness check.
const cadSource = `
class part is
    instance variables are
        partno   : integer
        geometry : integer
        revision : integer
        checked  : boolean
    method inspect(work) is
        var i := 0
        var acc := 0
        while i < work do
            i := i + 1
            acc := acc + geometry * i
        end
        return acc
    end
    method revise(delta) is
        geometry := geometry + delta
        revision := revision + 1
        checked := false
    end
    method session(work) is
        var score := send inspect(work) to self
        send revise(score % 7 + 1) to self
    end
    method approve is
        checked := true
    end
    method revisions is
        return revision
    end
end

class assembly inherits part is
    instance variables are
        children : integer
    method session(work) is redefined as
        send part.session(work) to self
        children := children + 1
    end
end
`

func compileBanking() (*oodb.Schema, error) {
	return oodb.Compile(bankingSource, oodb.WithCommuting("account", "deposit", "deposit"))
}

func compileCAD() (*oodb.Schema, error) {
	return oodb.Compile(cadSource)
}

const (
	// initialBalance is large enough that no withdrawal in a run can
	// overdraw an account, so every balance is the initial value plus
	// the acknowledged deposits minus the acknowledged withdrawals,
	// whatever order concurrent sessions commit in.
	initialBalance = int64(1_000_000_000)
	maxAmount      = 100

	cadWork = int64(8) // inspect and session loop count
)

// account returns the class and positional field values of account i:
// savings and checking alternate.
func account(i int) (string, []any) {
	owner := fmt.Sprintf("owner-%07d", i)
	if i%2 == 0 {
		return "savings", []any{int64(i), owner, initialBalance, false, int64(2)}
	}
	return "checking", []any{int64(i), owner, initialBalance, false, int64(500)}
}

// cadObject returns the class and field values of CAD object i: parts
// and assemblies alternate, so half of the population is assemblies.
func cadObject(i int) (string, []any) {
	if i%2 == 0 {
		return "part", []any{int64(i), int64(i%97 + 1), int64(0), false}
	}
	return "assembly", []any{int64(i), int64(i%89 + 1), int64(0), false, int64(0)}
}

// The transaction mixes, as counts per block of transactions.
var (
	bankingMix = []int{mixDeposit: 5, mixTransfer: 2, mixBalance: 3}
	cadMix     = []int{mixInspect: 29, mixSession: 20, mixScan: 1}
)

// Operation kinds of the two mixes.
const (
	mixDeposit = iota
	mixTransfer
	mixBalance
)

const (
	mixInspect = iota
	mixSession
	mixScan
)

// deck deals operation kinds in shuffled blocks that hold each kind in
// its exact share, so the mix of a run, or of any second of it, does
// not wander with the random stream.
type deck struct {
	cards []int
	next  int
	rng   *rand.Rand
}

func newDeck(rng *rand.Rand, mix []int) *deck {
	d := &deck{rng: rng}
	for kind, n := range mix {
		for range n {
			d.cards = append(d.cards, kind)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}
