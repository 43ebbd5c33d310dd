"""TPC-C: the paper's representative contended workload.

Standard five-transaction mix (NewOrder 45%, Payment 43%, OrderStatus 4%,
Delivery 4%, StockLevel 4%) with the contention structure of the
OLTP-Bench implementation on MySQL:

- NewOrder takes ``SELECT ... FOR UPDATE`` on its district row (an X lock
  from a *select* statement — the paper's ``os_event_wait [A]`` call
  site) and holds it to commit: the district rows (10 per warehouse) are
  the primary hot spot.
- Payment updates the warehouse row directly (X from an *update*
  statement — call site [B]): W rows shared by 43% of transactions.
- Delivery walks all 10 districts of a warehouse, making it the long,
  lock-hungry transaction.
- NewOrder's 5-15 order lines are the benchmark's *inherent* work
  variance; ``fixed_order_lines`` pins them for the Appendix C.1
  pure-workload experiment.

Every operation is tagged with its ``home`` warehouse, so the workload
shards naturally by warehouse under the cluster router.  Two knobs
create genuine cross-shard transactions: ``remote_warehouse_prob``
(spec 2.4.1.5: ~1% of NewOrder order lines draw stock from a remote
warehouse) and ``remote_payment_prob`` (spec 2.5.1.2: a Payment for a
customer homed at another warehouse; the spec says 15%, default here is
0 so single-node runs mint byte-identical specs).  ``item`` is the
replicated read-only table — its selects carry ``home=None``.

Row counts are scaled down from the spec (3000 customers/district ->
``customers_per_district``) — contention depends on the *hot* row counts
(W warehouses, 10W districts), which are kept exact, not on the cold
table sizes.
"""

from repro.sim.rand import Zipfian, bounded_draw
from repro.workloads.base import Workload, trusted_op


class TPCC(Workload):
    name = "tpcc"

    ITEMS = 10_000

    def __init__(
        self,
        warehouses=128,
        customers_per_district=300,
        items_per_warehouse=2_000,
        fixed_order_lines=None,
        remote_warehouse_prob=0.01,
        remote_payment_prob=0.0,
        warehouse_zipf_theta=0.99,
        item_zipf_theta=0.8,
        payment_name_scan=10,
    ):
        super().__init__()
        if warehouses < 1:
            raise ValueError("need at least one warehouse")
        self.warehouses = warehouses
        # Uniform bounded draws, each value- and stream-identical to
        # ``rng.randrange(n)`` for its fixed n.
        self._any_warehouse = bounded_draw(warehouses)
        self._other_warehouse = (
            bounded_draw(warehouses - 1) if warehouses > 1 else None
        )
        self._district_offset = bounded_draw(10)
        self._customer_offset = bounded_draw(customers_per_district)
        self._any_item = bounded_draw(self.ITEMS)
        # ``rng.randint(5, 15) == 5 + self._extra_lines(rng)``.
        self._extra_lines = bounded_draw(11)
        # Warehouse activity is skewed (terminals are not equally busy);
        # this is the contention-calibration knob that puts the simulated
        # 128-WH run in the paper's lock-bound regime.  None = uniform.
        if warehouse_zipf_theta and warehouses > 1:
            self._warehouse = Zipfian(warehouses, theta=warehouse_zipf_theta).sample
        else:
            self._warehouse = self._any_warehouse
        self.payment_name_scan = payment_name_scan
        # Item popularity is skewed (best-sellers): stock rows of popular
        # items are locked mid-NewOrder, *after* the district wait, which
        # is what makes transaction ages diverge from queue-arrival order
        # — the regime where the scheduling discipline matters.
        if item_zipf_theta:
            self._item = Zipfian(self.ITEMS, theta=item_zipf_theta).sample
        else:
            self._item = self._any_item
        self.customers_per_district = customers_per_district
        self.items_per_warehouse = items_per_warehouse
        self.fixed_order_lines = fixed_order_lines
        self.remote_warehouse_prob = remote_warehouse_prob
        self.remote_payment_prob = remote_payment_prob
        w = warehouses
        self.schema = {
            "warehouse": w,
            "district": w * 10,
            "customer": w * 10 * customers_per_district,
            "stock": w * items_per_warehouse,
            "item": self.ITEMS,
            "orders": w * 10 * customers_per_district,
            "order_line": w * 10 * customers_per_district * 10,
            "new_order": w * 10,
            "history": w * 10 * customers_per_district,
        }
        self._any_order = bounded_draw(self.schema["orders"])
        self._any_order_line = bounded_draw(self.schema["order_line"])
        self.mix = [
            ("NewOrder", 45, self._new_order),
            ("Payment", 43, self._payment),
            ("OrderStatus", 4, self._order_status),
            ("Delivery", 4, self._delivery),
            ("StockLevel", 4, self._stock_level),
        ]
        self.finalize()

    # ------------------------------------------------------------------
    # Transaction makers
    #
    # Keys: district ``w * 10 + offset``; customer
    # ``d * customers_per_district + offset``; stock
    # ``w * items_per_warehouse + item % items_per_warehouse``.  Ops are
    # literal statement shapes built through ``trusted_op`` (kind, table,
    # key, lock, home), with updates and inserts spelling out their X lock.
    # ------------------------------------------------------------------

    def _new_order(self, rng):
        w = self._warehouse(rng)
        d = w * 10 + self._district_offset(rng)
        c = d * self.customers_per_district + self._customer_offset(rng)
        ops = [
            trusted_op("select", "warehouse", w, None, w),
            trusted_op("select", "customer", c, None, w),
            # SELECT ... FOR UPDATE on the district row (hot!): an X lock
            # taken from a select statement -> os_event_wait call site A.
            trusted_op("select", "district", d, "X", w),
            trusted_op("update", "district", d, "X", w),
        ]
        n_lines = self.fixed_order_lines
        if n_lines is None:
            n_lines = 5 + self._extra_lines(rng)
        item_of = self._item
        remote_prob = self.remote_warehouse_prob
        multi_warehouse = self.warehouses > 1
        per_warehouse = self.items_per_warehouse
        extend = ops.extend
        for _ in range(n_lines):
            item = item_of(rng)
            if rng.random() < remote_prob and multi_warehouse:
                supply_w = self._any_warehouse(rng)
            else:
                supply_w = w
            stock = supply_w * per_warehouse + item % per_warehouse
            extend((
                # ITEM is read-only and replicated everywhere: home=None.
                trusted_op("select", "item", item, None, None),
                trusted_op("select", "stock", stock, "X", supply_w),
                trusted_op("update", "stock", stock, "X", supply_w),
                trusted_op(
                    "insert", "order_line", self.fresh_key("order_line"), "X", w
                ),
            ))
        extend((
            trusted_op("insert", "orders", self.fresh_key("orders"), "X", w),
            # Inserting into NEW_ORDER takes a next-key lock on the
            # district's insertion point — the classic TPC-C conflict with
            # Delivery, which locks the same spot while consuming the
            # oldest order.
            trusted_op("update", "new_order", d, "X", w),
            trusted_op("insert", "new_order", self.fresh_key("new_order"), "X", w),
        ))
        return ops

    def _payment(self, rng):
        w = self._warehouse(rng)
        d = w * 10 + self._district_offset(rng)
        # Remote payment (spec 2.5.1.2): the paying customer is homed at
        # another warehouse — the canonical TPC-C cross-shard write.  The
        # short-circuit keeps the draw (and the RNG stream) out of
        # single-node runs, where the default probability is 0.
        if (
            self.remote_payment_prob
            and self.warehouses > 1
            and rng.random() < self.remote_payment_prob
        ):
            cw = (w + 1 + self._other_warehouse(rng)) % self.warehouses
            cd = cw * 10 + self._district_offset(rng)
        else:
            cw = w
            cd = d
        first_customer = cd * self.customers_per_district
        customer_offset = self._customer_offset
        c = first_customer + customer_offset(rng)
        ops = [
            # UPDATE WAREHOUSE ... : X lock from an update statement (site B)
            trusted_op("update", "warehouse", w, "X", w),
            trusted_op("update", "district", d, "X", w),
        ]
        if rng.random() < 0.6:
            # Lookup by last name: a secondary-index range scan over the
            # namesakes before the update (the expensive Payment variant).
            for _ in range(self.payment_name_scan):
                ops.append(
                    trusted_op(
                        "select", "customer", first_customer + customer_offset(rng),
                        None, cw,
                    )
                )
        ops.append(trusted_op("update", "customer", c, "X", cw))
        ops.append(trusted_op("insert", "history", self.fresh_key("history"), "X", w))
        return ops

    def _order_status(self, rng):
        w = self._warehouse(rng)
        d = w * 10 + self._district_offset(rng)
        c = d * self.customers_per_district + self._customer_offset(rng)
        ops = [trusted_op("select", "customer", c, None, w)]
        any_order_line = self._any_order_line
        for _ in range(5 + self._extra_lines(rng)):
            ops.append(
                trusted_op("select", "order_line", any_order_line(rng), None, w)
            )
        return ops

    def _delivery(self, rng):
        w = self._warehouse(rng)
        per_district = self.customers_per_district
        ops = []
        for d in range(w * 10, w * 10 + 10):
            ops.extend((
                # The oldest NEW_ORDER row per district is found with a
                # locking select (site A) before being consumed.
                trusted_op("select", "new_order", d, "X", w),
                trusted_op("update", "new_order", d, "X", w),
                trusted_op("update", "orders", self._any_order(rng), "X", w),
                trusted_op(
                    "update", "customer",
                    d * per_district + self._customer_offset(rng), "X", w,
                ),
            ))
        return ops

    def _stock_level(self, rng):
        w = self._warehouse(rng)
        d = w * 10 + self._district_offset(rng)
        per_warehouse = self.items_per_warehouse
        first_stock = w * per_warehouse
        ops = [trusted_op("select", "district", d, None, w)]
        for _ in range(20):
            item = self._any_item(rng)
            ops.append(
                trusted_op(
                    "select", "stock", first_stock + item % per_warehouse, None, w
                )
            )
        return ops
