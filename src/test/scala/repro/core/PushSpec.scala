package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Rows.R

/** `Engine.push`, the one path by which task outputs reach their
  * consumers, on a two-stage plan (scan -> agg) whose agg channel c sits
  * on worker c. The agg stage's one consumer is the collector on the head
  * node.
  */
class PushSpec extends AnyFunSuite {
  private val sch = Sch.of("k" -> CLong, "v" -> CLong)

  private def engine(workers: Int, rows: Array[R] = Array(Array[Any](1L, 1L)),
                     batchRows: Int = 4096): Engine = {
    val b = new PlanBuilder("push")
    val s = b.input("a", sch)(identity)
    b.agg(s, r => Vector(r(0)), 1, sch)((acc, r) => acc(0) += Rows.lng(r, 1))(
      (k, a) => Array[Any](k(0), a(0)))
    new Engine(EngineConfig(workers, inputBatchRows = batchRows), b.build(), Map("a" -> rows))
  }

  /** One row for each of the first two agg channels, by channel. */
  private val slices: Array[Array[R]] =
    Array(Array[R](Array[Any](0L, 1L)), Array[R](Array[Any](1L, 2L)))

  test("slices already consumed or already in a mailbox are not sent") {
    val e = engine(2)
    val Vector(d0, d1) = e.channels(1)
    d0.consumed(e.slot(0, 0)) = 1
    d1.arrive(e.slot(0, 0), 0, slices(1))
    val net = e.workers(0).net.freeAt
    assert(e.push(0, 2.0, 0, 0, 0, slices, epoch = 0) == 2.0)
    assert(e.sim.pendingEvents == 0)
    assert(e.workers(0).net.freeAt == net)
    assert(e.metrics.shuffleBytes == 0)
  }

  test("a consumer on the sending worker gets its slice without the NIC") {
    val e = engine(2)
    e.channels(1)(1).arrive(e.slot(0, 0), 0, slices(1))
    val net = e.workers(0).net.freeAt
    assert(e.push(0, 2.0, 0, 0, 0, slices, epoch = 0) == 2.0 + 1e-6)
    assert(e.workers(0).net.freeAt == net)
    assert(e.metrics.shuffleBytes == sch.rowBytes)
    e.sim.run()
    assert(e.channels(1)(0).mailbox(e.slot(0, 0)).contains(0))
  }

  test("a consumer on a dead worker is skipped") {
    val e = engine(2)
    e.workers(1).deadAt = 0.0
    e.push(0, 0.0, 0, 0, 0, slices, epoch = 0)
    assert(e.sim.pendingEvents == 1) // only the same-worker slice to channel 0
    assert(e.metrics.shuffleBytes == sch.rowBytes)
    e.sim.run()
    assert(!e.channels(1)(1).mailbox(e.slot(0, 0)).contains(0))
  }

  test("returns the last arrival time") {
    val e = engine(3)
    // channels 0 and 1 are remote to worker 2: both slices use its NIC
    val last = e.push(2, 1.0, 0, 2, 0, slices, epoch = 0)
    assert(last == e.workers(2).net.freeAt && last > 1.0)
    e.sim.run()
    assert(e.sim.now == last)
    assert(e.channels(1)(0).mailbox(e.slot(0, 2)).contains(0) && e.channels(1)(1).mailbox(e.slot(0, 2)).contains(0))
  }

  test("a push from the store crosses each needing consumer's own store link") {
    val e = engine(3)
    val three = slices :+ Array[R](Array[Any](2L, 3L))
    val p = e.slot(0, 0)
    e.channels(1)(1).consumed(p) = 1 // channel 1 already consumed its slice
    val nets = e.workers.map(_.net.freeAt)
    val end = 2.0 + e.cfg.cost.storeS(sch.rowBytes, 1)
    assert(e.push(Engine.Store, 2.0, 0, 0, 0, three, epoch = 0) == end)
    assert(e.workers.map(_.storeLink.freeAt) == Vector(end, 0.0, end))
    assert(e.workers.map(_.net.freeAt) == nets)
    assert(e.metrics.shuffleBytes == 2 * sch.rowBytes)
    // an arrival on the 1e-6 local path would land before this check
    var early = true
    e.sim.at(end - 1e-9) { early = e.channels(1).exists(_.mailbox(p).contains(0)) }
    e.sim.run()
    assert(!early && e.sim.now == end)
    assert(e.channels(1).map(_.mailbox(p).contains(0)) == Vector(true, false, true))
  }

  test("a final flush reaches the collector over the sender's NIC") {
    val e = engine(2)
    val net = e.workers(1).net.freeAt
    val last = e.push(1, 2.0, 1, 1, 3, Array(slices(0)), epoch = 0)
    assert(last == e.workers(1).net.freeAt && net < last && last > 2.0)
    assert(e.metrics.shuffleBytes == sch.rowBytes)
    e.sim.run()
    assert(e.collector.mailbox(e.slot(1, 1)).contains(3))
  }

  test("a replayed flush already in the collector is not sent again") {
    val e = engine(2)
    e.collector.arrive(e.slot(1, 0), 2, slices(0))
    val net = e.workers(0).net.freeAt
    assert(e.push(0, 2.0, 1, 0, 2, Array(slices(0)), epoch = 0) == 2.0)
    assert(e.sim.pendingEvents == 0 && e.workers(0).net.freeAt == net)
    assert(e.metrics.shuffleBytes == 0)
  }

  test("a consume task of the final aggregation sends nothing") {
    val e = engine(2, Array.tabulate(64)(i => Array[Any](i.toLong % 5, 1L)), batchRows = 4)
    val rr = e.run()
    assert(rr.rows.map(r => Rows.lng(r, 1)).sum == 64)
    for (ch <- e.channels(1)) {
      val flushSeq = e.gcs.committedCount(ch.idx) - 1
      assert(flushSeq > 0, s"channel ${ch.ch} ran no consume task")
      val mb = e.collector.mailbox(e.slot(1, ch.ch))
      assert(mb.count == 1 && mb.contains(flushSeq), s"channel ${ch.ch} sent more than its flush")
    }
  }

  test("a mailbox tracks the run of arrived slices across arrival, truncation and rewind") {
    val e = engine(2)
    val d = e.channels(1)(0)
    val p = e.slot(0, 1)
    val rows = slices(0)
    d.arrive(p, 1, rows)
    assert(d.arrivedEnd(p) == 0) // seq 0 has not arrived
    d.arrive(p, 0, rows)
    d.arrive(p, 2, rows)
    assert(d.arrivedEnd(p) == 3)
    d.truncate(p, 1) // the producer was rewound with one committed output
    assert(d.arrivedEnd(p) == 1 && d.mailbox(p).contains(0) && !d.mailbox(p).contains(1))
    assert(!e.needsSlice(d, p, 0) && e.needsSlice(d, p, 1))
    d.consumed(p) = 1
    d.clearInputs() // the consumer itself was rewound
    assert(d.arrivedEnd(p) == 0 && d.consumed(p) == 0 && !d.mailbox(p).contains(0))
  }
}
