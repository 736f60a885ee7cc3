package repro.core

import repro.SparkSpec
import repro.baselines.Systems
import repro.ft.Spool
import repro.queries.{Q, TpchData, TpchLite}

/** In-order, complete consumption: the property that lets a consume task's
  * lineage be (upstream position, count) without its first seq. At the end
  * of a run, for every stateful channel and every upstream position p, the
  * counts its committed lineage logs for p sum to the channel's watermark
  * `consumed(p)` and to the upstream channel's committed count. Checked on
  * clean runs and on runs whose worker 1 dies at 50% of the clean run.
  */
class ConsumptionSpec extends SparkSpec {
  private lazy val t = TpchData.load(spark, 0.005)

  private val base = EngineConfig(
    workers = 3, cost = CostParams(coresPerWorker = 4, detectS = 0.3, planS = 0.05),
    inputBatchRows = 1024)

  private def check(cfg: EngineConfig, q: Q, kill: Boolean): Unit = {
    val failures =
      if (kill) Seq(1 -> new Engine(cfg, q.mkPlan(t), t.rows).run().simSeconds * 0.5) else Nil
    val e = new Engine(cfg, q.mkPlan(t), t.rows, failures)
    e.run()
    if (kill) assert(e.metrics.rewoundChannels > 0, "the kill rewound no channel")
    for (st <- e.channels; ch <- st if e.plan.stages(ch.stage).stateful) {
      val logged = new Array[Int](ch.consumed.length)
      for (s <- 0 until e.gcs.committedCount(ch.idx)) e.gcs.rec(ch.idx, s) match {
        case ConsumeRec(p, k) => logged(p) += k
        case _ =>
      }
      val ups = e.plan.stages(ch.stage).upstreams
      for (p <- logged.indices) {
        val (us, uc) = (ups(p / e.C), p % e.C)
        val committed = e.gcs.committedCount(e.gcs.index(us, uc))
        assert(logged(p) == ch.consumed(p) && logged(p) == committed,
          s"${q.id} channel (${ch.stage},${ch.ch}) from ($us,$uc): logged ${logged(p)}, " +
            s"consumed ${ch.consumed(p)}, committed upstream $committed")
      }
    }
  }

  for (q <- Seq(TpchLite.q3, TpchLite.q9)) {
    for ((ft, cfg) <- Seq("WAL" -> base, "Spool" -> base.copy(ft = Spool)); kill <- Seq(false, true))
      test(s"${q.id}, 3 workers, $ft${if (kill) ", worker 1 killed" else ""}: " +
          "logged counts sum to the watermark and the upstream commits") {
        check(cfg, q, kill)
      }
    test(s"${q.id}, 16 workers, worker 1 killed: logged counts sum to the watermark and the " +
        "upstream commits") {
      check(Systems.quokka(16), q, kill = true)
    }
  }
}
