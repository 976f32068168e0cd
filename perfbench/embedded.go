package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/oodb"
)

const (
	oltpAccounts = 100_000
	cadObjects   = 4096
	cadZipfS     = 1.2
	populateTxn  = 1000 // objects created per set-up transaction
)

// populate creates n objects through Update, populateTxn per
// transaction, and returns their OIDs in creation order.
func populate(db *oodb.Database, n int, object func(int) (string, []any)) ([]oodb.OID, error) {
	oids := make([]oodb.OID, 0, n)
	for lo := 0; lo < n; lo += populateTxn {
		hi := min(lo+populateTxn, n)
		err := db.Update(func(tx *oodb.Txn) error {
			oids = oids[:lo]
			for i := lo; i < hi; i++ {
				class, fields := object(i)
				oid, err := tx.New(class, fields...)
				if err != nil {
					return err
				}
				oids = append(oids, oid)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	return oids, nil
}

// embedded is a volatile database driven in-process.
type embedded struct {
	db    *oodb.Database
	oids  []oodb.OID
	ws    []worker
	check func() error
}

func (e *embedded) workers() []worker { return e.ws }
func (e *embedded) counters() counts  { return snapshotCounters(e.db, nil) }
func (e *embedded) verify() error     { return e.check() }
func (e *embedded) close() error      { return e.db.Close() }

// openEmbedded compiles, opens a volatile Fine database and populates it.
func openEmbedded(compile func() (*oodb.Schema, error), n int, object func(int) (string, []any)) (*embedded, setupTimes, error) {
	st := setupTimes{objects: n}
	t0 := time.Now()
	schema, err := compile()
	if err != nil {
		return nil, st, fmt.Errorf("compile: %w", err)
	}
	st.compile = time.Since(t0)
	db, err := oodb.Open(schema, oodb.Fine)
	if err != nil {
		return nil, st, fmt.Errorf("open: %w", err)
	}
	t1 := time.Now()
	oids, err := populate(db, n, object)
	if err != nil {
		db.Close()
		return nil, st, err
	}
	st.populate = time.Since(t1)
	return &embedded{db: db, oids: oids}, st, nil
}

// readBack sends a read-only method to every object in one View and
// passes each result to check.
func readBack(db *oodb.Database, oids []oodb.OID, method string, check func(i int, v int64) error) error {
	return db.View(func(tx *oodb.Txn) error {
		for i, oid := range oids {
			v, err := tx.Send(oid, method)
			if err != nil {
				return err
			}
			n, _ := v.(int64)
			if err := check(i, n); err != nil {
				return err
			}
		}
		return nil
	})
}

// ---- embedded-oltp -------------------------------------------------

func setupOLTP(cfg *config, _ int) (env, setupTimes, error) {
	e, st, err := openEmbedded(compileBanking, oltpAccounts, account)
	if err != nil {
		return nil, st, err
	}
	w := newBankWorker(e.db, e.oids, cfg.seed)
	e.ws = []worker{w}
	e.check = func() error {
		return readBack(e.db, e.oids, "getbalance", func(i int, v int64) error {
			if v != w.model[i] {
				return fmt.Errorf("account %d: balance %d, acknowledged commits imply %d", i, v, w.model[i])
			}
			return nil
		})
	}
	return e, st, nil
}

// bankWorker is the single embedded-oltp client. With one client every
// committed effect is known in order, so model holds each account's
// exact balance and every read is checked against it.
type bankWorker struct {
	db    *oodb.Database
	oids  []oodb.OID
	model []int64
	rng   *rand.Rand
	mix   *deck

	// The operation in flight, read by the prebuilt closures so that
	// issuing a transaction allocates nothing on the benchmark's side.
	tr        *tracer
	a, b      int
	amt       int64
	got       int64
	withdrawn int64 // the withdrawal's result within a transfer
	attempts  int64

	deposit, transfer, getbalance func(*oodb.Txn) error
}

func newBankWorker(db *oodb.Database, oids []oodb.OID, seed uint64) *bankWorker {
	rng := rand.New(rand.NewPCG(seed, 1))
	w := &bankWorker{db: db, oids: oids, model: make([]int64, len(oids)), rng: rng, mix: newDeck(rng, bankingMix)}
	for i := range w.model {
		w.model[i] = initialBalance
	}
	w.deposit = func(tx *oodb.Txn) error {
		w.attempts++
		return w.send(tx, w.a, "deposit", w.amt)
	}
	w.transfer = func(tx *oodb.Txn) error {
		w.attempts++
		if err := w.send(tx, w.a, "withdraw", w.amt); err != nil {
			return err
		}
		w.withdrawn = w.got
		return w.send(tx, w.b, "deposit", w.amt)
	}
	w.getbalance = func(tx *oodb.Txn) error {
		return w.send(tx, w.a, "getbalance")
	}
	return w
}

// send is one traced Txn.Send; an integer result lands in w.got.
func (w *bankWorker) send(tx *oodb.Txn, i int, method string, args ...any) error {
	s := w.tr.childStart()
	v, err := tx.Send(w.oids[i], method, args...)
	w.tr.child(spanSend, s)
	w.got, _ = v.(int64)
	return err
}

func (w *bankWorker) run(deadline time.Time, tr *tracer, t *tally) {
	w.tr = tr
	w.attempts = 0
	n := len(w.oids)
	for time.Now().Before(deadline) {
		kind := w.mix.deal()
		w.a = w.rng.IntN(n)
		w.amt = 1 + w.rng.Int64N(maxAmount)
		switch kind {
		case mixDeposit:
			lat, err := timeTxn(w.db, tr, spanUpdate, w.deposit)
			if t.record(&t.upd, lat, err) {
				w.model[w.a] += w.amt
			}
		case mixTransfer:
			w.b = w.rng.IntN(n - 1)
			if w.b >= w.a {
				w.b++
			}
			lat, err := timeTxn(w.db, tr, spanUpdate, w.transfer)
			if t.record(&t.upd, lat, err) {
				w.model[w.a] -= w.amt
				w.model[w.b] += w.amt
				if w.withdrawn != w.model[w.a] {
					t.mismatch("withdraw from account %d returned %d, acknowledged commits imply %d", w.a, w.withdrawn, w.model[w.a])
				}
			}
		case mixBalance:
			lat, err := timeTxn(w.db, tr, spanView, w.getbalance)
			if t.record(&t.read, lat, err) && w.got != w.model[w.a] {
				t.mismatch("read of account %d: balance %d, acknowledged commits imply %d", w.a, w.got, w.model[w.a])
			}
		}
	}
	t.attempts += w.attempts
}

// timeTxn runs fn as one Update, or as one View when kind is spanView,
// and returns its latency; when traced, the root span covers the same
// interval.
func timeTxn(db *oodb.Database, tr *tracer, kind spanKind, fn func(*oodb.Txn) error) (time.Duration, error) {
	tr.beginRoot()
	t0 := time.Now()
	var err error
	if kind == spanView {
		err = db.View(fn)
	} else {
		err = db.Update(fn)
	}
	lat := time.Since(t0)
	tr.endRoot(kind)
	return lat, err
}

// ---- cad-contended -------------------------------------------------

func setupCAD(cfg *config, _ int) (env, setupTimes, error) {
	e, st, err := openEmbedded(compileCAD, cadObjects, cadObject)
	if err != nil {
		return nil, st, err
	}
	perm := hotOrder()
	var cws []*cadWorker
	for i := range 2 {
		w := newCADWorker(e.db, e.oids, perm, cfg.seed, uint64(i+1))
		cws = append(cws, w)
		e.ws = append(e.ws, w)
	}
	e.check = func() error {
		return readBack(e.db, e.oids, "revisions", func(i int, v int64) error {
			var want int64
			for _, w := range cws {
				want += w.revised[i]
			}
			if v != want {
				return fmt.Errorf("object %d: %d revisions, acknowledged revise calls imply %d", i, v, want)
			}
			return nil
		})
	}
	return e, st, nil
}

// cadWorker is one of the two cad-contended clients. revised counts the
// revise calls of its committed design sessions, per object.
type cadWorker struct {
	db         *oodb.Database
	oids       []oodb.OID
	perm       []int
	zipf       *rand.Zipf
	mix        *deck
	assemblies int
	revised    []int64

	tr       *tracer
	a, b     int
	visited  int
	attempts int64

	inspect, design, scan func(*oodb.Txn) error
}

func newCADWorker(db *oodb.Database, oids []oodb.OID, perm []int, seed, stream uint64) *cadWorker {
	rng := rand.New(rand.NewPCG(seed, stream+1))
	w := &cadWorker{
		db: db, oids: oids, perm: perm, mix: newDeck(rng, cadMix),
		zipf:       rand.NewZipf(rng, cadZipfS, 1, uint64(len(oids)-1)),
		assemblies: len(oids) / 2,
		revised:    make([]int64, len(oids)),
	}
	w.inspect = func(tx *oodb.Txn) error {
		return w.send(tx, w.a, "inspect", cadWork)
	}
	w.design = func(tx *oodb.Txn) error {
		w.attempts++
		if err := w.send(tx, w.a, "session", cadWork); err != nil {
			return err
		}
		return w.send(tx, w.b, "revise", int64(1))
	}
	w.scan = func(tx *oodb.Txn) error {
		w.attempts++
		s := w.tr.childStart()
		n, err := tx.ScanSend("assembly", "inspect", false, cadWork)
		w.tr.child(spanScan, s)
		w.visited = n
		return err
	}
	return w
}

func (w *cadWorker) send(tx *oodb.Txn, i int, method string, args ...any) error {
	s := w.tr.childStart()
	_, err := tx.Send(w.oids[i], method, args...)
	w.tr.child(spanSend, s)
	return err
}

func (w *cadWorker) pick() int { return w.perm[w.zipf.Uint64()] }

// hotOrder maps Zipf ranks to CAD objects. It is fixed, not drawn from
// the seed: where the hottest objects sit (part or assembly, early or
// late in a scan) shapes the contention, and the seed must vary only
// the stream of transactions, not the workload. Even ranks are parts
// and odd ranks assemblies, each class in a fixed shuffled order.
func hotOrder() []int {
	rng := rand.New(rand.NewPCG(0xcad, 0xcad))
	parts, assemblies := rng.Perm(cadObjects/2), rng.Perm(cadObjects/2)
	order := make([]int, cadObjects)
	for r := range order {
		if r%2 == 0 {
			order[r] = 2 * parts[r/2] // cadObject puts parts at even indices
		} else {
			order[r] = 2*assemblies[r/2] + 1
		}
	}
	return order
}

func (w *cadWorker) run(deadline time.Time, tr *tracer, t *tally) {
	w.tr = tr
	w.attempts = 0
	for time.Now().Before(deadline) {
		switch w.mix.deal() {
		case mixInspect:
			w.a = w.pick()
			lat, err := timeTxn(w.db, tr, spanView, w.inspect)
			t.record(&t.read, lat, err)
		case mixSession:
			w.a = w.pick()
			for w.b = w.pick(); w.b == w.a; w.b = w.pick() {
			}
			lat, err := timeTxn(w.db, tr, spanUpdate, w.design)
			if t.record(&t.upd, lat, err) {
				w.revised[w.a]++
				w.revised[w.b]++
			}
		case mixScan:
			lat, err := timeTxn(w.db, tr, spanUpdate, w.scan)
			if t.record(&t.scan, lat, err) && w.visited != w.assemblies {
				t.mismatch("scan visited %d assemblies, population has %d", w.visited, w.assemblies)
			}
		}
	}
	t.attempts += w.attempts
}
