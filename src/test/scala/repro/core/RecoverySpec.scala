package repro.core

import repro.{SparkSpec, TestUtil}
import repro.baselines.EngineRunner
import repro.ft._
import repro.queries.{Q, TpchData, TpchLite}

/** Fault-injection matrix: kill a worker mid-query under every recoverable
  * FT strategy and check that (a) the result is identical to the clean run
  * (which QueriesSpec verifies against DuckDB), (b) recovery actually
  * happened (rewinds/replays observed), and (c) the engine's built-in
  * replay-identity invariant (output-hash comparison on every replayed
  * task) never fired.
  */
class RecoverySpec extends SparkSpec {
  private val SF = 0.005
  private lazy val t = TpchData.load(spark, SF)

  private def base: EngineConfig = EngineConfig(
    workers = 3,
    cost = CostParams(coresPerWorker = 4, detectS = 0.3, planS = 0.05),
    inputBatchRows = 1024)

  private val systems: Vector[(String, EngineConfig)] = Vector(
    "quokka-wal"  -> base,
    "spark-like"  -> base.copy(mode = Stagewise, staticLineage = true, channelsPerWorker = 2),
    "spooling"    -> base.copy(ft = Spool),
  )

  private def clean(cfg: EngineConfig, q: Q) = EngineRunner.run(cfg, q, t)

  for (q <- TpchLite.representative; (sys, cfg) <- systems; frac <- Vector(0.3, 0.6)) {
    test(s"${q.id}/$sys: correct result when worker 1 dies at ${(frac * 100).toInt}%") {
      val ref = clean(cfg, q)
      val killAt = ref.simSeconds * frac
      val rr = EngineRunner.run(cfg, q, t, failures = Seq((1, killAt)))
      assert(TestUtil.canon(rr.rows) == TestUtil.canon(ref.rows), s"${q.id}/$sys wrong result")
      assert(rr.simSeconds >= killAt, "finished before the failure it survived?")
      if (cfg.ft == Spool) {
        // every lost partition is re-pushed from its store copy
        val m = rr.metrics
        assert(m.recoveredPartitions > 0 && m.repushJobs == m.recoveredPartitions &&
          m.rereadJobs == 0 && m.backupBytes == 0,
          s"repush ${m.repushJobs}, recovered ${m.recoveredPartitions}, reread ${m.rereadJobs}, " +
            s"backup ${m.backupBytes}")
      }
    }
  }

  test("recovery actually rewinds and replays state (q9, WAL)") {
    val q = TpchLite.q9
    val ref = clean(base, q)
    val rr = EngineRunner.run(base, q, t, failures = Seq((1, ref.simSeconds * 0.6)))
    assert(rr.metrics.rewoundChannels > 0, "no channels rewound")
    assert(rr.metrics.replayTasks > 0, "no tasks replayed")
    assert(rr.metrics.recoveredPartitions > 0, "no partitions recovered")
    assert(rr.simSeconds > ref.simSeconds, "failure run not slower than clean run")
  }

  test("recovery re-reads lost input partitions data-parallel (q1, WAL)") {
    val q = TpchLite.q1
    val ref = clean(base, q)
    val rr = EngineRunner.run(base, q, t, failures = Seq((1, ref.simSeconds * 0.5)))
    assert(TestUtil.canon(rr.rows) == TestUtil.canon(ref.rows))
    // worker 1's own input backups die with it => some re-reads must happen
    assert(rr.metrics.rereadJobs > 0, "expected input re-read jobs")
  }

  test("failure near query start and near query end both recover (q5, WAL)") {
    val q = TpchLite.q5
    val ref = clean(base, q)
    for (frac <- Vector(0.05, 0.9)) {
      val rr = EngineRunner.run(base, q, t, failures = Seq((1, ref.simSeconds * frac)))
      assert(TestUtil.canon(rr.rows) == TestUtil.canon(ref.rows), s"frac=$frac wrong result")
    }
  }

  test("failure after query completion is a no-op (q3, WAL)") {
    val q = TpchLite.q3
    val ref = clean(base, q)
    val rr = EngineRunner.run(base, q, t, failures = Seq((1, ref.simSeconds + 100.0)))
    assert(rr.simSeconds == ref.simSeconds)
    assert(rr.metrics.rewoundChannels == 0)
  }

  test("two sequential failures of different workers recover (q9, WAL)") {
    val q = TpchLite.q9
    val ref = clean(base, q)
    val rr = EngineRunner.run(base, q, t,
      failures = Seq((1, ref.simSeconds * 0.3), (2, ref.simSeconds * 1.2)))
    assert(TestUtil.canon(rr.rows) == TestUtil.canon(ref.rows))
  }

  test("every worker is a survivable kill target (q7, WAL)") {
    val q = TpchLite.q7
    val ref = clean(base, q)
    for (w <- 0 until base.workers) {
      val rr = EngineRunner.run(base, q, t, failures = Seq((w, ref.simSeconds * 0.5)))
      assert(TestUtil.canon(rr.rows) == TestUtil.canon(ref.rows), s"kill worker $w wrong result")
    }
  }

  test("ft=none cannot recover: the engine reports the restart requirement") {
    val q = TpchLite.q3
    val cfg = base.copy(ft = NoFt)
    val ref = clean(cfg, q)
    assertThrows[IllegalStateException] {
      EngineRunner.run(cfg, q, t, failures = Seq((1, ref.simSeconds * 0.5)))
    }
  }

  test("failure runs are deterministic: identical clock, counters, txns and rows (q9, WAL)") {
    val q = TpchLite.q9
    val killAt = clean(base, q).simSeconds * 0.5
    val Seq(a, b) = Seq.fill(2)(EngineRunner.run(base, q, t, failures = Seq((1, killAt))))
    def counters(m: Metrics): Map[String, Any] =
      classOf[Metrics].getDeclaredFields.toSeq.map { f => f.setAccessible(true); f.getName -> f.get(m) }.toMap
    assert(a.metrics.rewoundChannels > 0, "no recovery happened")
    assert(a.simSeconds == b.simSeconds)
    assert(counters(a.metrics) == counters(b.metrics))
    assert(a.gcsTxns == b.gcsTxns)
    assert(a.rows.map(_.toSeq) == b.rows.map(_.toSeq))
  }

  test("a flush committed before the failure is replayed (q3, WAL)") {
    // two final-stage channels per worker, so the victim can hold one that
    // has flushed and one that has not: the query then waits for recovery
    val cfg = base.copy(channelsPerWorker = 2)
    val q = TpchLite.q3
    val victim = 1
    def flushedOnVictim(e: Engine): Vector[Int] = e.channels(e.plan.last)
      .filter(ch => ch.worker == victim && e.gcs.channelDone(ch.idx)).map(_.ch)
    // kill at the first instant a final-stage channel of the victim is done
    val probe = new Engine(cfg, q.mkPlan(t), t.rows)
    var killAt = Double.NaN
    def watch(): Unit =
      if (flushedOnVictim(probe).nonEmpty) killAt = probe.sim.now
      else probe.sim.after(1e-4)(watch())
    probe.sim.at(0.0)(watch())
    val ref = probe.run()
    val e = new Engine(cfg, q.mkPlan(t), t.rows, Seq((victim, killAt)))
    var atKill = Vector.empty[Int]
    e.sim.at(killAt) { atKill = flushedOnVictim(e) }
    val rr = e.run()
    assert(atKill.nonEmpty && killAt < ref.simSeconds, "no flush committed before the kill")
    assert(TestUtil.canon(rr.rows) == TestUtil.canon(ref.rows))
    for (c <- atKill) {
      val ch = e.channels(e.plan.last)(c)
      assert(ch.worker != victim && ch.flushed && ch.seq == e.gcs.committedCount(ch.idx),
        s"channel $c did not replay its flush")
    }
  }

  test("rewinding a final channel truncates its uncommitted flush from the collector") {
    // scan -> agg on 3 workers; final channel c sits on worker c
    val sch = Sch.of("k" -> CLong, "v" -> CLong)
    val b = new PlanBuilder("rewind-final")
    val s = b.input("a", sch)(identity)
    b.agg(s, r => Vector(r(0)), 1, sch)((acc, r) => acc(0) += Rows.lng(r, 1))(
      (k, a) => Array[Any](k(0), a(0)))
    val e = new Engine(base, b.build(), Map("a" -> Array.empty[Rows.R]))
    val flush: Array[Rows.R] = Array(Array[Any](1L, 2L))
    val Vector(c0, c1, _) = e.channels(e.plan.last)
    e.collector.arrive(e.slot(1, 0), 0, flush) // channel 0's flush, uncommitted
    e.collector.arrive(e.slot(1, 1), 0, flush) // channel 1's flush, committed
    e.gcs.commit(c1.idx, 0, FlushRec, markDone = true)
    e.workers(0).deadAt = 0.0
    e.workers(1).deadAt = 0.0
    Recovery.plan(e)
    assert(c0.worker == 2 && c1.worker == 2)
    assert(!e.collector.mailbox(e.slot(1, 0)).contains(0), "uncommitted flush kept")
    assert(e.collector.mailbox(e.slot(1, 1)).contains(0), "committed flush dropped")
  }

  test("recovery keeps the committed-lineage-only invariant observable") {
    // lineage bytes after a failure run are >= the clean run's: replay never
    // uncommits, and re-executed suffix tasks commit again
    val q = TpchLite.q9
    val ref = clean(base, q)
    val rr = EngineRunner.run(base, q, t, failures = Seq((1, ref.simSeconds * 0.5)))
    assert(rr.gcsLineageBytes >= ref.gcsLineageBytes)
  }
}
