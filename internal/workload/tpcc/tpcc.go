// Package tpcc implements a TPC-C-style OLTP workload with the
// column-access patterns the paper's analysis depends on (§2.3): the
// warehouse table is touched by ~92% of transactions, NewOrder only
// reads warehouse identification/tax columns while Payment updates the
// YTD column, so record-level concurrency control suffers false
// conflicts that cell-level concurrency control avoids.
//
// Scaling: per the reproduction notes in DESIGN.md, cardinalities
// (customers, items, order rings) are scaled down from the TPC-C spec
// — contention level is controlled by the warehouse count, exactly the
// knob the paper sweeps (80 warehouses = low contention, 20 = high).
// Order/order-line/history rows are pre-allocated as rings and
// "inserted" by writing fresh slots, which keeps the contention
// behaviour (the hot D_NEXT_O_ID counter) while avoiding runtime index
// inserts.
package tpcc

import (
	"math/rand"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/workload"
)

// Table ids.
const (
	WarehouseTable layout.TableID = 30
	DistrictTable  layout.TableID = 31
	CustomerTable  layout.TableID = 32
	HistoryTable   layout.TableID = 33
	NewOrderTable  layout.TableID = 34
	OrdersTable    layout.TableID = 35
	OrderLineTable layout.TableID = 36
	ItemTable      layout.TableID = 37
	StockTable     layout.TableID = 38
)

// Warehouse cells.
const (
	WName = iota
	WStreet1
	WStreet2
	WCity
	WState
	WZip
	WTax
	WYtd
)

// District cells.
const (
	DName = iota
	DStreet
	DCity
	DState
	DZip
	DTax
	DYtd
	DNextOID
)

// Customer cells.
const (
	CFirst = iota
	CMiddle
	CLast
	CStreet1
	CStreet2
	CCity
	CState
	CZip
	CPhone
	CCredit
	CCreditLim
	CDiscount
	CBalance
	CYtdPayment
	CPaymentCnt
	CData
)

// Orders cells.
const (
	OCID = iota
	OEntryD
	OCarrier
	OOLCnt
)

// OrderLine cells.
const (
	OLIID = iota
	OLSupplyW
	OLQty
	OLAmount
	OLDistInfo
)

// Stock cells.
const (
	SQty = iota
	SDist
	SYtd
	SOrderCnt
	SRemoteCnt
	SData
)

// Item cells.
const (
	IName = iota
	IPrice
	IData
)

// Config sizes the workload. Warehouses is the paper's contention
// knob.
type Config struct {
	Warehouses           int // paper default 40; 80 = low, 20 = high contention
	Districts            int // per warehouse (spec: 10)
	CustomersPerDistrict int // scaled (spec: 3000)
	Items                int // scaled (spec: 100,000)
	OrdersPerDistrict    int // order ring capacity per district
	MaxOrderLines        int // order lines per order (spec: 5–15, capped)
	HistoryCap           int // history ring capacity
}

// DefaultConfig is the paper's default contention level at laptop
// scale.
func DefaultConfig() Config {
	return Config{
		Warehouses:           40,
		Districts:            10,
		CustomersPerDistrict: 48,
		Items:                1000,
		OrdersPerDistrict:    64,
		MaxOrderLines:        10,
		HistoryCap:           1 << 15,
	}
}

// Generator produces TPC-C transactions with the standard mix:
// NewOrder 45%, Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel
// 4% (92% read-write, matching §2.3).
//
// It is not PartitionSafe — the history sequence advances — so Next
// runs on one goroutine and may keep scratch of its own (perm).
type Generator struct {
	cfg     Config
	histSeq uint64
	// perm is NewOrder's permutation of the items, redrawn in place.
	perm []int
	// lines are NewOrder's per-order-line functions, one set per
	// position, built once (see newOrderLines).
	lines newOrderLines
}

// New builds a generator.
func New(cfg Config) *Generator {
	if cfg.Warehouses <= 0 || cfg.Districts <= 0 || cfg.CustomersPerDistrict <= 0 ||
		cfg.Items <= 0 || cfg.OrdersPerDistrict <= 0 || cfg.MaxOrderLines < 5 {
		panic("tpcc: invalid config")
	}
	return &Generator{cfg: cfg, perm: make([]int, cfg.Items), lines: makeNewOrderLines(cfg.MaxOrderLines)}
}

// Name implements workload.Generator.
func (g *Generator) Name() string { return "tpcc" }

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Key composition helpers.

func (g *Generator) districtKey(w, d int) layout.Key {
	return layout.Key(w*g.cfg.Districts + d)
}

func (g *Generator) customerKey(w, d, c int) layout.Key {
	return layout.Key((w*g.cfg.Districts+d)*g.cfg.CustomersPerDistrict + c)
}

func (g *Generator) orderKey(w, d int, o uint64) layout.Key {
	return layout.Key(uint64(w*g.cfg.Districts+d)*uint64(g.cfg.OrdersPerDistrict) +
		o%uint64(g.cfg.OrdersPerDistrict))
}

func (g *Generator) orderLineKey(w, d int, o uint64, ol int) layout.Key {
	return layout.Key(uint64(g.orderKey(w, d, o))*uint64(g.cfg.MaxOrderLines) + uint64(ol))
}

func (g *Generator) stockKey(w, i int) layout.Key {
	return layout.Key(w*g.cfg.Items + i)
}

// Tables implements workload.Generator.
func (g *Generator) Tables() []workload.TableDef {
	c := g.cfg
	nDist := c.Warehouses * c.Districts
	nOrders := nDist * c.OrdersPerDistrict
	return []workload.TableDef{
		{Schema: layout.Schema{ID: WarehouseTable, Name: "warehouse",
			CellSizes: []int{10, 20, 20, 20, 2, 9, 8, 8}}, Capacity: c.Warehouses},
		{Schema: layout.Schema{ID: DistrictTable, Name: "district",
			CellSizes: []int{10, 20, 20, 2, 9, 8, 8, 8}}, Capacity: nDist},
		{Schema: layout.Schema{ID: CustomerTable, Name: "customer",
			CellSizes: []int{16, 2, 16, 20, 20, 20, 2, 9, 16, 2, 8, 8, 8, 8, 8, 100}},
			Capacity: nDist * c.CustomersPerDistrict},
		{Schema: layout.Schema{ID: HistoryTable, Name: "history",
			CellSizes: []int{8, 24}}, Capacity: c.HistoryCap},
		{Schema: layout.Schema{ID: NewOrderTable, Name: "neworder",
			CellSizes: []int{8}}, Capacity: nOrders},
		{Schema: layout.Schema{ID: OrdersTable, Name: "orders",
			CellSizes: []int{8, 8, 8, 8}}, Capacity: nOrders},
		{Schema: layout.Schema{ID: OrderLineTable, Name: "orderline",
			CellSizes: []int{8, 8, 8, 8, 24}}, Capacity: nOrders * c.MaxOrderLines},
		{Schema: layout.Schema{ID: ItemTable, Name: "item",
			CellSizes: []int{24, 8, 50}}, Capacity: c.Items},
		{Schema: layout.Schema{ID: StockTable, Name: "stock",
			CellSizes: []int{8, 24, 8, 8, 8, 50}}, Capacity: c.Warehouses * c.Items},
	}
}

// Load implements workload.Generator: full initial population,
// including a half-full order ring per district so read-only
// transactions have history to scan. Each table has one row, refilled
// for every record; cells that are the same in every record of a table
// are filled once.
func (g *Generator) Load(fn func(layout.TableID, layout.Key, [][]byte)) {
	c := g.cfg
	rng := rand.New(rand.NewSource(99))
	rows := map[layout.TableID]*workload.Row{}
	for _, def := range g.Tables() {
		rows[def.Schema.ID] = workload.NewRow(def.Schema.CellSizes)
	}
	// texts fills cells [0, n) of r with Text(tag), Text(tag+1), …
	texts := func(r *workload.Row, n int, tag uint64) {
		for i := 0; i < n; i++ {
			r.Text(i, tag+uint64(i))
		}
	}

	wh := rows[WarehouseTable]
	wh.U64(WYtd, 0)
	for w := 0; w < c.Warehouses; w++ {
		texts(wh, WTax, uint64(w))
		wh.U64(WTax, uint64(rng.Intn(2000))) // basis points
		fn(WarehouseTable, layout.Key(w), wh.Cells)
	}

	initialOrders := uint64(c.OrdersPerDistrict / 2)
	dist, cust := rows[DistrictTable], rows[CustomerTable]
	ord, newOrd, line := rows[OrdersTable], rows[NewOrderTable], rows[OrderLineTable]
	dist.U64(DYtd, 0)
	dist.U64(DNextOID, initialOrders)
	cust.U64(CCreditLim, 50_000)
	cust.U64(CBalance, 1_000_000)
	cust.U64(CYtdPayment, 0)
	cust.U64(CPaymentCnt, 0)
	ord.U64(OCarrier, 0)
	newOrd.U64(0, 0)
	line.U64(OLQty, 5)
	line.U64(OLAmount, 100)
	for w := 0; w < c.Warehouses; w++ {
		for d := 0; d < c.Districts; d++ {
			dk := g.districtKey(w, d)
			texts(dist, DTax, uint64(dk))
			dist.U64(DTax, uint64(rng.Intn(2000)))
			fn(DistrictTable, dk, dist.Cells)
			for cu := 0; cu < c.CustomersPerDistrict; cu++ {
				ck := g.customerKey(w, d, cu)
				texts(cust, CCreditLim, uint64(ck))
				cust.U64(CDiscount, uint64(rng.Intn(5000))) // basis points
				cust.Text(CData, uint64(ck)+10)
				fn(CustomerTable, ck, cust.Cells)
			}
			for o := uint64(0); o < uint64(c.OrdersPerDistrict); o++ {
				ok := g.orderKey(w, d, o)
				loaded := o < initialOrders
				cid, olCnt := uint64(0), uint64(0)
				if loaded {
					cid = uint64(rng.Intn(c.CustomersPerDistrict))
					olCnt = 5
				}
				ord.U64(OCID, cid)
				ord.U64(OEntryD, o)
				ord.U64(OOLCnt, olCnt)
				fn(OrdersTable, ok, ord.Cells)
				fn(NewOrderTable, ok, newOrd.Cells)
				line.U64(OLSupplyW, uint64(w))
				line.Text(OLDistInfo, uint64(ok))
				for ol := 0; ol < c.MaxOrderLines; ol++ {
					iid := uint64(0)
					if loaded && ol < int(olCnt) {
						iid = uint64(rng.Intn(c.Items))
					}
					line.U64(OLIID, iid)
					fn(OrderLineTable, g.orderLineKey(w, d, o, ol), line.Cells)
				}
			}
		}
	}

	item := rows[ItemTable]
	for i := 0; i < c.Items; i++ {
		item.Text(IName, uint64(i))
		item.U64(IPrice, uint64(rng.Intn(9900)+100))
		item.Text(IData, uint64(i)+1)
		fn(ItemTable, layout.Key(i), item.Cells)
	}
	stock := rows[StockTable]
	stock.U64(SYtd, 0)
	stock.U64(SOrderCnt, 0)
	stock.U64(SRemoteCnt, 0)
	for w := 0; w < c.Warehouses; w++ {
		for i := 0; i < c.Items; i++ {
			stock.U64(SQty, uint64(rng.Intn(90)+10))
			stock.Text(SDist, uint64(i))
			stock.Text(SData, uint64(i)+2)
			fn(StockTable, g.stockKey(w, i), stock.Cells)
		}
	}
	hist := rows[HistoryTable]
	hist.U64(0, 0)
	for h := 0; h < c.HistoryCap; h++ {
		hist.Text(1, uint64(h))
		fn(HistoryTable, layout.Key(h), hist.Cells)
	}
}

// Next implements workload.Generator.
func (g *Generator) Next(rng *rand.Rand) *engine.Txn {
	switch p := rng.Float64(); {
	case p < 0.45:
		return g.newOrder(rng)
	case p < 0.88:
		return g.payment(rng)
	case p < 0.92:
		return g.orderStatus(rng)
	case p < 0.96:
		return g.delivery(rng)
	default:
		return g.stockLevel(rng)
	}
}
