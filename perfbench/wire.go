package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/serv"
	"repro/oodb"
	"repro/oodb/client"
)

const (
	wireAccounts = 100_000
	wireClients  = 2
	wireDepth    = 32  // pipelined transactions each client keeps outstanding
	wireBatch    = 250 // objects created per set-up request (≤ serv.MaxCmds)
)

// served is wire-durable's set-up: a durable database behind an
// in-process server on a unix socket, and one client connection per
// client goroutine. The log acknowledges a commit once its group-commit
// batch is written to the operating system, without waiting for fsync:
// on a disk shared with other machines, fsync times move by tens of
// percent from one run to the next, and a full-sync run measures them
// rather than the program. A process crash still loses nothing, which is
// what verify checks. With no fsync to amortise, the log batches only
// what is already queued (no group-commit window): a timed window would
// add its own wait to every commit.
type served struct {
	schema  *oodb.Schema
	dir     string
	db      *oodb.Database
	srv     *serv.Server
	clients []*client.Client
	oids    []oodb.OID
	ws      []*wireWorker
}

func setupWire(cfg *config, round int) (env, setupTimes, error) {
	st := setupTimes{objects: wireAccounts}
	e := &served{dir: filepath.Join(cfg.runDir, fmt.Sprintf("wal-%d", round))}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, st, err
	}
	fail := func(err error) (env, setupTimes, error) {
		e.close()
		return nil, st, err
	}
	t0 := time.Now()
	schema, err := compileBanking()
	if err != nil {
		return fail(fmt.Errorf("compile: %w", err))
	}
	st.compile = time.Since(t0)
	e.schema = schema
	if e.db, err = oodb.Open(schema, oodb.Fine, oodb.Durable(e.dir), oodb.SyncNever()); err != nil {
		return fail(fmt.Errorf("open: %w", err))
	}
	sock, err := socketPath(filepath.Join(cfg.runDir, fmt.Sprintf("s%d.sock", round)))
	if err != nil {
		return fail(err)
	}
	if e.srv, err = serv.Listen(e.db, "unix", sock, serv.Config{}); err != nil {
		return fail(fmt.Errorf("listen: %w", err))
	}
	for range wireClients {
		c, err := client.Dial(sock)
		if err != nil {
			return fail(fmt.Errorf("dial: %w", err))
		}
		e.clients = append(e.clients, c)
	}
	t1 := time.Now()
	if e.oids, err = populateWire(e.clients[0], wireAccounts); err != nil {
		return fail(err)
	}
	st.populate = time.Since(t1)
	for i, c := range e.clients {
		e.ws = append(e.ws, newWireWorker(c, e.oids, cfg.seed, uint64(i+1)))
	}
	return e, st, nil
}

// socketPath shortens path relative to the working directory: a unix
// socket address is limited to about 100 bytes.
func socketPath(path string) (string, error) {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, path); err == nil && len(rel) < len(path) {
			path = rel
		}
	}
	if len(path) > 100 {
		return "", fmt.Errorf("socket path %q is too long", path)
	}
	return path, nil
}

// populateWire creates n accounts over the wire, wireBatch per
// transaction with up to wireDepth in flight, and returns their OIDs.
func populateWire(c *client.Client, n int) ([]oodb.OID, error) {
	ctx := context.Background()
	oids := make([]oodb.OID, 0, n)
	var pend []*client.Pending
	collect := func(p *client.Pending) error {
		res, err := p.Wait()
		if err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		for i := range res.Len() {
			oid, err := res.OID(i)
			if err != nil {
				return fmt.Errorf("populate: %w", err)
			}
			oids = append(oids, oid)
		}
		return nil
	}
	for lo := 0; lo < n; lo += wireBatch {
		tx := client.NewTx()
		for i := lo; i < min(lo+wireBatch, n); i++ {
			class, fields := account(i)
			tx.New(class, fields...)
		}
		p, err := c.Start(ctx, tx)
		if err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
		pend = append(pend, p)
		if len(pend) == wireDepth {
			if err := collect(pend[0]); err != nil {
				return nil, err
			}
			pend = pend[1:]
		}
	}
	for _, p := range pend {
		if err := collect(p); err != nil {
			return nil, err
		}
	}
	return oids, nil
}

func (e *served) workers() []worker {
	ws := make([]worker, len(e.ws))
	for i, w := range e.ws {
		ws[i] = w
	}
	return ws
}

func (e *served) counters() counts { return snapshotCounters(e.db, e.srv) }

// verify shuts the server and database down, reopens the directory and
// checks that recovery reproduced every acknowledged commit.
func (e *served) verify() error {
	if err := e.shutdown(); err != nil {
		return err
	}
	db, err := oodb.Open(e.schema, oodb.Fine, oodb.Durable(e.dir))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	e.db = db
	return readBack(db, e.oids, "getbalance", func(i int, v int64) error {
		want := initialBalance
		for _, w := range e.ws {
			want += w.delta[i]
		}
		if v != want {
			return fmt.Errorf("account %d after recovery: balance %d, acknowledged commits imply %d", i, v, want)
		}
		return nil
	})
}

// shutdown closes the clients, drains the server and closes the
// database, returning the first error.
func (e *served) shutdown() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range e.clients {
		keep(c.Close())
	}
	e.clients = nil
	if e.srv != nil {
		keep(e.srv.Close())
		e.srv = nil
	}
	if e.db != nil {
		keep(e.db.Close())
		e.db = nil
	}
	return first
}

func (e *served) close() error {
	err := e.shutdown()
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}

// wireWorker is one client goroutine of wire-durable: it keeps wireDepth
// transactions in flight on its own connection. delta is the net amount
// its acknowledged commits moved into each account.
type wireWorker struct {
	c     *client.Client
	oids  []oodb.OID
	rng   *rand.Rand
	mix   *deck
	delta []int64

	upd, view *client.Tx
	q         []inflight // oldest first
}

// inflight is one pipelined request awaiting its ack.
type inflight struct {
	p       *client.Pending
	t0      time.Time
	kind    spanKind // spanUpdate or spanView
	a, b    int32    // b < 0: a deposit to a; else a transfer from a to b
	amt     int64
	id, req uint64 // span IDs when traced
	s0, s1  int64  // Start call's span
}

func newWireWorker(c *client.Client, oids []oodb.OID, seed, stream uint64) *wireWorker {
	rng := rand.New(rand.NewPCG(seed, 100+stream))
	return &wireWorker{
		c: c, oids: oids, rng: rng, mix: newDeck(rng, bankingMix),
		delta: make([]int64, len(oids)),
		upd:   client.NewTx(), view: client.NewView(),
		q: make([]inflight, 0, wireDepth),
	}
}

func (w *wireWorker) run(deadline time.Time, tr *tracer, t *tally) {
	ctx := context.Background()
	for {
		if time.Now().Before(deadline) {
			for len(w.q) < wireDepth {
				if err := w.issue(ctx, tr); err != nil {
					t.record(&t.upd, 0, err)
					break
				}
			}
		}
		if len(w.q) == 0 {
			return
		}
		w.complete(tr, t)
	}
}

// issue starts one transaction of the banking mix.
func (w *wireWorker) issue(ctx context.Context, tr *tracer) error {
	n := len(w.oids)
	kind := w.mix.deal()
	r := inflight{a: int32(w.rng.IntN(n)), b: -1, amt: 1 + w.rng.Int64N(maxAmount), kind: spanUpdate}
	tx := w.upd.Reset()
	switch kind {
	case mixDeposit:
		tx.Send(w.oids[r.a], "deposit", r.amt)
	case mixTransfer:
		b := w.rng.IntN(n - 1)
		if b >= int(r.a) {
			b++
		}
		r.b = int32(b)
		tx.Send(w.oids[r.a], "withdraw", r.amt)
		tx.Send(w.oids[r.b], "deposit", r.amt)
	case mixBalance:
		r.kind = spanView
		tx = w.view.Reset()
		tx.Send(w.oids[r.a], "getbalance")
	}
	if tr != nil {
		tr.req++
		r.req, r.id = tr.req, tr.newID()
		r.s0 = tr.now()
	}
	r.t0 = time.Now()
	p, err := w.c.Start(ctx, tx)
	if err != nil {
		return err
	}
	if tr != nil {
		r.s1 = tr.now()
		tr.add(tr.newID(), r.id, r.req, spanStart, r.s0, r.s1, 0)
	}
	r.p = p
	w.q = append(w.q, r)
	return nil
}

// complete waits for the oldest request's ack (sessions ack in arrival
// order) and records it.
func (w *wireWorker) complete(tr *tracer, t *tally) {
	r := w.q[0]
	w.q = append(w.q[:0], w.q[1:]...)
	_, err := r.p.Wait()
	lat := time.Since(r.t0)
	if tr != nil {
		tr.add(r.id, 0, r.req, spanRequest, r.s0, tr.now(), r.s1-r.s0)
	}
	o := &t.upd
	if r.kind == spanView {
		o = &t.read
	}
	if !t.record(o, lat, err) || r.kind == spanView {
		return
	}
	if r.b < 0 { // a deposit
		w.delta[r.a] += r.amt
	} else { // a transfer from a to b
		w.delta[r.a] -= r.amt
		w.delta[r.b] += r.amt
	}
}
