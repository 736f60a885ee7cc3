package repro.core

import repro.{SparkSpec, TestUtil}
import repro.core.Rows.{R, lng}

/** Engine semantics on tiny hand-built plans with known answers. */
class EngineBasicSpec extends SparkSpec {
  private val sch2 = Sch.of("k" -> CLong, "v" -> CLong)

  private def rowsOf(pairs: (Long, Long)*): Array[R] =
    pairs.map { case (k, v) => Array[Any](k, v) }.toArray

  private def cfg = EngineConfig(
    workers = 2,
    cost = CostParams(coresPerWorker = 2),
    inputBatchRows = 2)

  /** scan(a) -> agg: sum v group by k. */
  private def aggPlan: Plan = {
    val b = new PlanBuilder("mini-agg")
    val s = b.input("a", sch2)(identity)
    b.agg(s, r => Vector(r(0)), 1, sch2)((acc, r) => acc(0) += lng(r, 1))(
      (k, a) => Array[Any](k(0), a(0)))
    b.build()
  }

  /** scan(a) join scan(b) on k -> agg count group by k. */
  private def joinPlan: Plan = {
    val b = new PlanBuilder("mini-join")
    val sa = b.input("a", sch2)(identity)
    val sb = b.input("b", sch2)(identity)
    val j = b.join(sa, sb, Seq("k") -> Seq("k"), sch2) { (l, r) =>
      Array[Any](lng(l, 0), lng(l, 1) * lng(r, 1))
    }
    b.agg(j, r => Vector(r(0)), 1, sch2)((acc, r) => acc(0) += lng(r, 1))(
      (k, a) => Array[Any](k(0), a(0)))
    b.build()
  }

  test("grouped sum over partitioned batches") {
    val data = Map("a" -> rowsOf((1L, 10L), (2L, 5L), (1L, 7L), (3L, 1L), (2L, 2L)))
    val rr = new Engine(cfg, aggPlan, data).run()
    assert(TestUtil.canon(rr.rows) == TestUtil.canon(Seq(
      Array[Any](1L, 17L), Array[Any](2L, 7L), Array[Any](3L, 1L))))
  }

  test("symmetric hash join emits every matching pair exactly once") {
    val data = Map(
      "a" -> rowsOf((1L, 2L), (1L, 3L), (2L, 4L)),
      "b" -> rowsOf((1L, 10L), (2L, 1L), (2L, 2L), (9L, 9L)))
    val rr = new Engine(cfg, joinPlan, data).run()
    // k=1: (2+3)*10 = 50; k=2: 4*1 + 4*2 = 12; k=9 unmatched
    assert(TestUtil.canon(rr.rows) == TestUtil.canon(Seq(
      Array[Any](1L, 50L), Array[Any](2L, 12L))))
  }

  test("empty input tables produce empty results, not hangs") {
    val data = Map("a" -> rowsOf(), "b" -> rowsOf((1L, 1L)))
    val rr = new Engine(cfg, joinPlan, data).run()
    assert(rr.rows.isEmpty)
    assert(rr.simSeconds > 0)
  }

  test("join emit may filter pairs (residual predicates)") {
    val b = new PlanBuilder("mini-filter-join")
    val sa = b.input("a", sch2)(identity)
    val sb = b.input("b", sch2)(identity)
    val j = b.join(sa, sb, Seq("k") -> Seq("k"), sch2) { (l, r) =>
      if (lng(r, 1) > 1L) Array[Any](lng(l, 0), lng(r, 1)) else null
    }
    b.agg(j, r => Vector(r(0)), 1, sch2)((acc, r) => acc(0) += lng(r, 1))(
      (k, a) => Array[Any](k(0), a(0)))
    val data = Map(
      "a" -> rowsOf((1L, 0L), (2L, 0L)),
      "b" -> rowsOf((1L, 1L), (1L, 5L), (2L, 2L)))
    val rr = new Engine(cfg, b.build(), data).run()
    assert(TestUtil.canon(rr.rows) == TestUtil.canon(Seq(
      Array[Any](1L, 5L), Array[Any](2L, 2L))))
  }

  test("results are identical across worker counts and batch sizes") {
    val data = Map(
      "a" -> rowsOf((1L to 40L).map(i => (i % 7, i)): _*),
      "b" -> rowsOf((1L to 40L).map(i => (i % 5, 1L)): _*))
    val ref = TestUtil.canon(new Engine(cfg, joinPlan, data).run().rows)
    for (w <- Seq(1, 3, 4); batch <- Seq(1, 3, 64)) {
      val rr = new Engine(cfg.copy(workers = w, inputBatchRows = batch), joinPlan, data).run()
      assert(TestUtil.canon(rr.rows) == ref, s"workers=$w batch=$batch diverged")
    }
  }

  test("task and transaction accounting is plausible") {
    val data = Map("a" -> rowsOf((1L to 20L).map(i => (i, i)): _*))
    val rr = new Engine(cfg, aggPlan, data).run()
    // 10 input batches + >=1 consume + flush per agg channel
    assert(rr.metrics.tasks >= 12)
    assert(rr.gcsTxns >= rr.metrics.tasks, "every task commits at least one txn")
    assert(rr.metrics.shuffleBytes > 0)
  }

  test("input channel c reads batches c, c + C, ...; a channel with no batch is done with an empty log") {
    val data = Map("a" -> rowsOf((1L to 10L).map(i => (i, i)): _*)) // 5 batches of 2 rows
    for (w <- Seq(2, 3, 8)) {
      val e = new Engine(cfg.copy(workers = w), aggPlan, data)
      e.run()
      for (c <- 0 until w) {
        val i = e.gcs.index(0, c)
        val batches = (c until 5 by w).map(b => data("a").slice(2 * b, 2 * b + 2).toSeq)
        val log = (0 until e.gcs.committedCount(i)).map(e.gcs.rec(i, _))
        assert(log == batches.map(_ => ReadRec), s"workers=$w channel $c")
        // the backed-up output of task (c, s) holds the rows of batch s * C + c
        for ((batch, s) <- batches.zipWithIndex)
          assert(TestUtil.canon(e.copies(i)(s).slices.flatten.toSeq) == TestUtil.canon(batch),
            s"workers=$w channel $c seq $s")
        assert(e.gcs.channelDone(i), s"workers=$w channel $c not done")
      }
    }
  }

  test("the simulated clock advances monotonically with more data") {
    val small = Map("a" -> rowsOf((1L to 10L).map(i => (i, i)): _*))
    val big = Map("a" -> rowsOf((1L to 2000L).map(i => (i, i)): _*))
    val ts = new Engine(cfg, aggPlan, small).run().simSeconds
    val tb = new Engine(cfg, aggPlan, big).run().simSeconds
    assert(tb > ts)
  }

  test("kernelFactor slows the clock without changing results") {
    val data = Map("a" -> rowsOf((1L to 100L).map(i => (i % 3, i)): _*))
    val fast = new Engine(cfg, aggPlan, data).run()
    val slow = new Engine(cfg.copy(kernelFactor = 4.0), aggPlan, data).run()
    assert(slow.simSeconds > fast.simSeconds)
    assert(TestUtil.canon(slow.rows) == TestUtil.canon(fast.rows))
  }

  test("a missing input table fails fast") {
    assertThrows[NoSuchElementException] {
      new Engine(cfg, joinPlan, Map("a" -> rowsOf((1L, 1L)))).run()
    }
  }
}
