package tpcc

import (
	"math/rand"
	"slices"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/workload"
)

// A transaction is one object, its program: the engine.Txn, its blocks,
// the values its hooks produce (workload.Values) and the numbers drawn
// for it, plus one array of ops cut to its final length. The program is
// the Txn's State, and that is how hooks and key functions reach it:
// they are package functions, the same for every transaction of a type,
// and the cell lists they go with are package variables — nothing
// downstream writes to an op's ReadCells or WriteCells. What does vary
// per transaction is data in the program, never a fresh closure.
//
// Ops that differ only by their position (order line i) take their
// functions from a table built once by keyFns / hooks.

type (
	keyFn = func(state any) layout.Key
	hook  = func(state any, read [][]byte) [][]byte
)

// keyFns returns n key functions of program type P, the i-th calling f
// with i.
func keyFns[P any](n int, f func(p *P, i int) layout.Key) []keyFn {
	fns := make([]keyFn, n)
	for i := range fns {
		fns[i] = func(state any) layout.Key { return f(state.(*P), i) }
	}
	return fns
}

// hooks returns n hooks of program type P, the i-th calling f with i.
func hooks[P any](n int, f func(p *P, i int, read [][]byte) [][]byte) []hook {
	fns := make([]hook, n)
	for i := range fns {
		fns[i] = func(state any, read [][]byte) [][]byte { return f(state.(*P), i, read) }
	}
	return fns
}

// ignore is the hook of a read whose values the program does not use.
func ignore(any, [][]byte) [][]byte { return nil }

// Cell sizes the hooks write: every integer column, and the two text
// columns a transaction fills (OL_DIST_INFO, H_DATA).
const (
	intCell  = 8
	textCell = 24
)

// scanLines is how many order lines OrderStatus, Delivery and
// StockLevel visit.
const scanLines = 5

// nuRand is TPC-C's non-uniform random distribution NURand(A, x, y):
// customers are selected with a skew toward a hashed hot set, per
// clause 2.1.6 of the specification. C is fixed per generator run.
func nuRand(rng *rand.Rand, a, x, y int) int {
	c := a / 2
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

// customer picks a customer id within a district using NURand(1023),
// scaled to the configured district size.
func (g *Generator) customer(rng *rand.Rand) int {
	n := g.cfg.CustomersPerDistrict
	return nuRand(rng, 1023, 0, n-1) % n
}

// permute is rng.Perm(len(g.perm)) into g.perm: the same inside-out
// shuffle making the same draws, without the slice per call. (An entry
// is assigned before it is read, so the old contents do not matter.)
func (g *Generator) permute(rng *rand.Rand) []int {
	m := g.perm
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// newOrderProg is a NewOrder. oID is the order id resolved in block 1
// and threaded into the key-dependent block 2 (the paper's Fig 9
// example is exactly this dependency: the order rows' keys derive from
// D_NEXT_O_ID).
type newOrderProg struct {
	txn      engine.Txn
	blocks   [2]engine.Block
	vals     workload.Values
	g        *Generator
	w, d, cu int
	oID      uint64
	lines    []orderLine
}

type orderLine struct {
	item int
	qty  uint64
}

// newOrderLines are NewOrder's functions for order line i.
type newOrderLines struct {
	stock   []hook  // the line's stock update
	key     []keyFn // the order-line row's key
	olWrite []hook  // the order-line row's insert
}

func makeNewOrderLines(n int) newOrderLines {
	return newOrderLines{
		stock:   hooks(n, (*newOrderProg).updateStock),
		key:     keyFns(n, (*newOrderProg).lineKey),
		olWrite: hooks(n, (*newOrderProg).writeLine),
	}
}

var (
	noWarehouseRead = []int{WName, WTax}
	noDistrictRead  = []int{DTax, DNextOID}
	noDistrictWrite = []int{DNextOID}
	noCustomerRead  = []int{CLast, CCredit, CDiscount}
	noItemRead      = []int{IName, IPrice}
	noStockRead     = []int{SQty, SDist}
	noStockWrite    = []int{SQty, SYtd, SOrderCnt}
	noOrdersWrite   = []int{OCID, OEntryD, OCarrier, OOLCnt}
	noNewOrderWrite = []int{0}
	noLineWrite     = []int{OLIID, OLSupplyW, OLQty, OLAmount, OLDistInfo}
)

// newOrder places an order: it reads the warehouse tax/name columns
// (never writing the warehouse — the false-conflict half of §2.3),
// increments the district's next-order-id (the true hot cell), updates
// stock, and writes the order rows in a dependent second block.
func (g *Generator) newOrder(rng *rand.Rand) *engine.Txn {
	c := g.cfg
	p := &newOrderProg{g: g}
	p.w = rng.Intn(c.Warehouses)
	p.d = rng.Intn(c.Districts)
	p.cu = g.customer(rng)
	nOL := 5 + rng.Intn(c.MaxOrderLines-4)
	items := g.permute(rng)[:nOL]
	p.lines = make([]orderLine, nOL)
	// One value per written cell: the district's counter, three stock
	// columns a line, the orders row, the new-order flag, and an
	// order-line row (four integers and a text) a line.
	p.vals.Size(intCell*(1+3*nOL+4+1+4*nOL)+textCell*nOL, 1+3*nOL+4+1+5*nOL)

	ops := make([]engine.Op, 3+2*nOL+2+nOL)
	block1, block2 := ops[:3+2*nOL:3+2*nOL], ops[3+2*nOL:]
	block1[0] = engine.Op{Table: WarehouseTable, Key: layout.Key(p.w), ReadCells: noWarehouseRead, Hook: ignore}
	block1[1] = engine.Op{Table: DistrictTable, Key: g.districtKey(p.w, p.d),
		ReadCells: noDistrictRead, WriteCells: noDistrictWrite, Hook: takeOrderID}
	block1[2] = engine.Op{Table: CustomerTable, Key: g.customerKey(p.w, p.d, p.cu), ReadCells: noCustomerRead, Hook: ignore}
	for ol, item := range items {
		supplyW := p.w
		if c.Warehouses > 1 && rng.Intn(100) == 0 {
			supplyW = rng.Intn(c.Warehouses) // 1% remote per spec
		}
		p.lines[ol] = orderLine{item: item, qty: uint64(rng.Intn(10) + 1)}
		block1[3+2*ol] = engine.Op{Table: ItemTable, Key: layout.Key(item), ReadCells: noItemRead, Hook: ignore}
		block1[4+2*ol] = engine.Op{Table: StockTable, Key: g.stockKey(supplyW, item),
			ReadCells: noStockRead, WriteCells: noStockWrite, Hook: g.lines.stock[ol]}
	}
	block2[0] = engine.Op{Table: OrdersTable, KeyFn: newOrderKey, WriteCells: noOrdersWrite, Hook: writeOrder}
	block2[1] = engine.Op{Table: NewOrderTable, KeyFn: newOrderKey, WriteCells: noNewOrderWrite, Hook: flagNewOrder}
	for ol := range items {
		block2[2+ol] = engine.Op{Table: OrderLineTable, KeyFn: g.lines.key[ol], WriteCells: noLineWrite, Hook: g.lines.olWrite[ol]}
	}
	p.blocks = [2]engine.Block{{Ops: block1}, {Ops: block2}}
	p.txn = engine.Txn{Label: "NewOrder", State: p, Blocks: p.blocks[:]}
	return &p.txn
}

func takeOrderID(state any, read [][]byte) [][]byte {
	p := state.(*newOrderProg)
	p.oID = workload.GetU64(read[1])
	return p.vals.One(p.vals.PutU64(read[1], p.oID+1))
}

func (p *newOrderProg) updateStock(ol int, read [][]byte) [][]byte {
	qty := p.lines[ol].qty
	have := workload.GetU64(read[0])
	if have >= qty+10 {
		have -= qty
	} else {
		have = have - qty + 91
	}
	out := p.vals.Out(3)
	out[0] = p.vals.PutU64(read[0], have)
	out[1] = p.vals.U64(qty, intCell)
	out[2] = p.vals.U64(1, intCell)
	return out
}

func newOrderKey(state any) layout.Key {
	p := state.(*newOrderProg)
	return p.g.orderKey(p.w, p.d, p.oID)
}

func writeOrder(state any, _ [][]byte) [][]byte {
	p := state.(*newOrderProg)
	out := p.vals.Out(4)
	out[0] = p.vals.U64(uint64(p.cu), intCell)
	out[1] = p.vals.U64(p.oID, intCell)
	out[2] = p.vals.U64(0, intCell)
	out[3] = p.vals.U64(uint64(len(p.lines)), intCell)
	return out
}

func flagNewOrder(state any, _ [][]byte) [][]byte {
	p := state.(*newOrderProg)
	return p.vals.One(p.vals.U64(1, intCell))
}

func (p *newOrderProg) lineKey(ol int) layout.Key {
	return p.g.orderLineKey(p.w, p.d, p.oID, ol)
}

func (p *newOrderProg) writeLine(ol int, _ [][]byte) [][]byte {
	item := uint64(p.lines[ol].item)
	out := p.vals.Out(5)
	out[0] = p.vals.U64(item, intCell)
	out[1] = p.vals.U64(uint64(p.w), intCell)
	out[2] = p.vals.U64(1, intCell)
	out[3] = p.vals.U64(100, intCell)
	out[4] = p.vals.Text(item, textCell)
	return out
}

// paymentProg is a Payment.
type paymentProg struct {
	txn     engine.Txn
	blocks  [1]engine.Block
	ops     [4]engine.Op
	vals    workload.Values
	amount  uint64
	histKey layout.Key
}

var (
	payWarehouseRead  = []int{WName, WYtd}
	payWarehouseWrite = []int{WYtd}
	payDistrictRead   = []int{DName, DYtd}
	payDistrictWrite  = []int{DYtd}
	payCustomerRead   = []int{CLast, CCredit, CBalance, CYtdPayment, CPaymentCnt}
	payCustomerWrite  = []int{CBalance, CYtdPayment, CPaymentCnt}
	payHistoryWrite   = []int{0, 1}
)

// payment records a customer payment: it updates the warehouse and
// district YTD columns (the cells NewOrder never touches), the
// customer's balance columns, and appends a history row.
func (g *Generator) payment(rng *rand.Rand) *engine.Txn {
	c := g.cfg
	w := rng.Intn(c.Warehouses)
	d := rng.Intn(c.Districts)
	// 85% local customer, 15% remote warehouse (spec), which adds the
	// cross-warehouse contention the paper's skew sweep relies on.
	cw, cd := w, d
	if c.Warehouses > 1 && rng.Intn(100) < 15 {
		for cw == w {
			cw = rng.Intn(c.Warehouses)
		}
		cd = rng.Intn(c.Districts)
	}
	cu := g.customer(rng)
	p := &paymentProg{amount: uint64(rng.Intn(5000) + 100)}
	g.histSeq++
	p.histKey = layout.Key(g.histSeq % uint64(c.HistoryCap))
	p.vals.Size(intCell*6+textCell, 7)

	p.ops = [4]engine.Op{
		{Table: WarehouseTable, Key: layout.Key(w),
			ReadCells: payWarehouseRead, WriteCells: payWarehouseWrite, Hook: addToYtd},
		{Table: DistrictTable, Key: g.districtKey(w, d),
			ReadCells: payDistrictRead, WriteCells: payDistrictWrite, Hook: addToYtd},
		{Table: CustomerTable, Key: g.customerKey(cw, cd, cu),
			ReadCells: payCustomerRead, WriteCells: payCustomerWrite, Hook: payCustomer},
		{Table: HistoryTable, Key: p.histKey, WriteCells: payHistoryWrite, Hook: writeHistory},
	}
	p.blocks[0].Ops = p.ops[:]
	p.txn = engine.Txn{Label: "Payment", State: p, Blocks: p.blocks[:]}
	return &p.txn
}

// addToYtd adds the amount to the YTD column, the second cell read of
// both the warehouse and the district.
func addToYtd(state any, read [][]byte) [][]byte {
	p := state.(*paymentProg)
	return p.vals.One(p.vals.PutU64(read[1], workload.GetU64(read[1])+p.amount))
}

func payCustomer(state any, read [][]byte) [][]byte {
	p := state.(*paymentProg)
	out := p.vals.Out(3)
	out[0] = p.vals.PutU64(read[2], workload.GetU64(read[2])-p.amount)
	out[1] = p.vals.PutU64(read[3], workload.GetU64(read[3])+p.amount)
	out[2] = p.vals.PutU64(read[4], workload.GetU64(read[4])+1)
	return out
}

func writeHistory(state any, _ [][]byte) [][]byte {
	p := state.(*paymentProg)
	out := p.vals.Out(2)
	out[0] = p.vals.U64(p.amount, intCell)
	out[1] = p.vals.Text(uint64(p.histKey), textCell)
	return out
}

// orderStatusProg is an OrderStatus. nextO carries the district's next
// order id into the dependent read of a recent order, back orders
// behind it.
type orderStatusProg struct {
	txn         engine.Txn
	blocks      [2]engine.Block
	ops         [2 + 1 + scanLines]engine.Op
	g           *Generator
	w, d        int
	back, nextO uint64
}

var (
	osCustomerRead = []int{CFirst, CMiddle, CLast, CBalance}
	osDistrictRead = []int{DNextOID}
	osOrdersRead   = []int{OCID, OEntryD, OCarrier, OOLCnt}
	osLineRead     = []int{OLIID, OLSupplyW, OLQty, OLAmount}
	osLineKeys     = keyFns(scanLines, (*orderStatusProg).lineKey)
)

// orderStatus is read-only: customer balance plus a recent order and
// its order lines.
func (g *Generator) orderStatus(rng *rand.Rand) *engine.Txn {
	c := g.cfg
	p := &orderStatusProg{g: g}
	p.w = rng.Intn(c.Warehouses)
	p.d = rng.Intn(c.Districts)
	cu := g.customer(rng)
	p.back = uint64(rng.Intn(8) + 1)

	p.ops[0] = engine.Op{Table: CustomerTable, Key: g.customerKey(p.w, p.d, cu), ReadCells: osCustomerRead, Hook: ignore}
	p.ops[1] = engine.Op{Table: DistrictTable, Key: g.districtKey(p.w, p.d), ReadCells: osDistrictRead, Hook: noteNextOrder}
	p.ops[2] = engine.Op{Table: OrdersTable, KeyFn: recentOrderKey, ReadCells: osOrdersRead, Hook: ignore}
	for ol := 0; ol < scanLines; ol++ {
		p.ops[3+ol] = engine.Op{Table: OrderLineTable, KeyFn: osLineKeys[ol], ReadCells: osLineRead, Hook: ignore}
	}
	p.blocks = [2]engine.Block{{Ops: p.ops[:2:2]}, {Ops: p.ops[2:]}}
	p.txn = engine.Txn{Label: "OrderStatus", ReadOnly: true, State: p, Blocks: p.blocks[:]}
	return &p.txn
}

func noteNextOrder(state any, read [][]byte) [][]byte {
	state.(*orderStatusProg).nextO = workload.GetU64(read[0])
	return nil
}

// order is the order back behind the district's next one, or the first.
func (p *orderStatusProg) order() uint64 {
	if p.nextO > p.back {
		return p.nextO - p.back
	}
	return 0
}

func recentOrderKey(state any) layout.Key {
	p := state.(*orderStatusProg)
	return p.g.orderKey(p.w, p.d, p.order())
}

func (p *orderStatusProg) lineKey(ol int) layout.Key {
	return p.g.orderLineKey(p.w, p.d, p.order(), ol)
}

// deliveryProg is a Delivery; cID and total are the delivered order's
// customer and the sum of its lines.
type deliveryProg struct {
	txn                 engine.Txn
	blocks              [2]engine.Block
	ops                 [2 + scanLines + 1]engine.Op
	vals                workload.Values
	g                   *Generator
	w, d                int
	carrier, cID, total uint64
}

var (
	dlvNewOrderCells = []int{0}
	dlvOrdersRead    = []int{OCID, OOLCnt}
	dlvOrdersWrite   = []int{OCarrier}
	dlvLineRead      = []int{OLAmount}
	dlvCustomerCells = []int{CBalance}
)

// delivery delivers one order in one district (the spec delivers all
// ten districts; DESIGN.md documents the scaling): it clears the
// new-order flag, stamps the carrier, sums the order lines, and
// credits the customer's balance in a dependent block.
func (g *Generator) delivery(rng *rand.Rand) *engine.Txn {
	c := g.cfg
	p := &deliveryProg{g: g}
	p.w = rng.Intn(c.Warehouses)
	p.d = rng.Intn(c.Districts)
	o := uint64(rng.Intn(c.OrdersPerDistrict))
	p.carrier = uint64(rng.Intn(10) + 1)
	p.vals.Size(intCell*3, 3)

	p.ops[0] = engine.Op{Table: NewOrderTable, Key: g.orderKey(p.w, p.d, o),
		ReadCells: dlvNewOrderCells, WriteCells: dlvNewOrderCells, Hook: clearNewOrder}
	p.ops[1] = engine.Op{Table: OrdersTable, Key: g.orderKey(p.w, p.d, o),
		ReadCells: dlvOrdersRead, WriteCells: dlvOrdersWrite, Hook: stampCarrier}
	for ol := 0; ol < scanLines; ol++ {
		p.ops[2+ol] = engine.Op{Table: OrderLineTable, Key: g.orderLineKey(p.w, p.d, o, ol), ReadCells: dlvLineRead, Hook: sumLine}
	}
	p.ops[2+scanLines] = engine.Op{Table: CustomerTable, KeyFn: deliveredCustomerKey,
		ReadCells: dlvCustomerCells, WriteCells: dlvCustomerCells, Hook: creditCustomer}
	p.blocks = [2]engine.Block{{Ops: p.ops[: 2+scanLines : 2+scanLines]}, {Ops: p.ops[2+scanLines:]}}
	p.txn = engine.Txn{Label: "Delivery", State: p, Blocks: p.blocks[:]}
	return &p.txn
}

// clearNewOrder is the attempt's first hook: it also starts the line
// sum over, so a retry does not credit the customer twice.
func clearNewOrder(state any, read [][]byte) [][]byte {
	p := state.(*deliveryProg)
	p.total = 0
	return p.vals.One(p.vals.PutU64(read[0], 0))
}

func stampCarrier(state any, read [][]byte) [][]byte {
	p := state.(*deliveryProg)
	p.cID = workload.GetU64(read[0])
	return p.vals.One(p.vals.U64(p.carrier, intCell))
}

func sumLine(state any, read [][]byte) [][]byte {
	state.(*deliveryProg).total += workload.GetU64(read[0])
	return nil
}

func deliveredCustomerKey(state any) layout.Key {
	p := state.(*deliveryProg)
	return p.g.customerKey(p.w, p.d, int(p.cID)%p.g.cfg.CustomersPerDistrict)
}

func creditCustomer(state any, read [][]byte) [][]byte {
	p := state.(*deliveryProg)
	return p.vals.One(p.vals.PutU64(read[0], workload.GetU64(read[0])+p.total))
}

// stockLevelProg is a StockLevel; it resolves the three-stage key
// dependency district → recent order lines → their items' stock rows.
// items are the first scanLines item ids block 2 read (a retry reads
// more, and they change nothing: the keys are settled by then), keys
// the stock rows they resolve to.
type stockLevelProg struct {
	txn    engine.Txn
	blocks [3]engine.Block
	ops    [1 + 2*scanLines]engine.Op
	g      *Generator
	w, d   int
	nextO  uint64
	items  [scanLines]uint64
	nItems int
	keys   [scanLines]layout.Key
	keyed  bool
}

var (
	slDistrictRead = []int{DNextOID}
	slLineRead     = []int{OLIID}
	slStockRead    = []int{SQty}
	slLineKeys     = keyFns(scanLines, (*stockLevelProg).lineKey)
	slStockKeys    = keyFns(scanLines, (*stockLevelProg).stockKey)
)

// stockLevel is read-only and pipeline-heavy: three blocks chained by
// key dependencies.
func (g *Generator) stockLevel(rng *rand.Rand) *engine.Txn {
	c := g.cfg
	p := &stockLevelProg{g: g}
	p.w = rng.Intn(c.Warehouses)
	p.d = rng.Intn(c.Districts)

	p.ops[0] = engine.Op{Table: DistrictTable, Key: g.districtKey(p.w, p.d), ReadCells: slDistrictRead, Hook: noteStockLevelOrder}
	for i := 0; i < scanLines; i++ {
		p.ops[1+i] = engine.Op{Table: OrderLineTable, KeyFn: slLineKeys[i], ReadCells: slLineRead, Hook: noteItem}
		p.ops[1+scanLines+i] = engine.Op{Table: StockTable, KeyFn: slStockKeys[i], ReadCells: slStockRead, Hook: ignore}
	}
	p.blocks = [3]engine.Block{{Ops: p.ops[:1:1]}, {Ops: p.ops[1 : 1+scanLines : 1+scanLines]}, {Ops: p.ops[1+scanLines:]}}
	p.txn = engine.Txn{Label: "StockLevel", ReadOnly: true, State: p, Blocks: p.blocks[:]}
	return &p.txn
}

func noteStockLevelOrder(state any, read [][]byte) [][]byte {
	state.(*stockLevelProg).nextO = workload.GetU64(read[0])
	return nil
}

// lineKey is the first line of the order i+1 behind the district's
// next one, or of the first order.
func (p *stockLevelProg) lineKey(i int) layout.Key {
	o := uint64(0)
	if p.nextO > uint64(i+1) {
		o = p.nextO - uint64(i+1)
	}
	return p.g.orderLineKey(p.w, p.d, o, 0)
}

func noteItem(state any, read [][]byte) [][]byte {
	p := state.(*stockLevelProg)
	if p.nItems < scanLines {
		p.items[p.nItems] = workload.GetU64(read[0])
		p.nItems++
	}
	return nil
}

// stockKey dedupes the item ids read in block 2 into distinct stock
// keys, once (a transaction accesses each record at most once;
// duplicate items probe to the neighbouring stock row, an
// approximation noted in DESIGN.md), and returns the i-th.
func (p *stockLevelProg) stockKey(i int) layout.Key {
	if !p.keyed {
		p.keyed = true
		g, items := p.g, p.g.cfg.Items
		for n := range p.keys {
			// Missing items (none, once block 2 has run) are made up.
			it := n * 7 % items
			if n < p.nItems {
				it = int(p.items[n]) % items
			}
			k := g.stockKey(p.w, it)
			for slices.Contains(p.keys[:n], k) {
				k = g.stockKey(p.w, (int(k)+1)%items)
			}
			p.keys[n] = k
		}
	}
	return p.keys[i]
}
