package repro.bench

import repro.{SparkSpec, TestUtil}
import repro.baselines.{EngineRunner, Systems}
import repro.queries.{TpchData, TpchLite}

/** The paper's figures at SF 0.005 on 4 workers: their shape, sampled cells
  * against direct engine runs, their relations, and the run cache.
  */
class ExperimentsSpec extends SparkSpec {
  private lazy val t = TpchData.load(spark, 0.005)
  private val w = 4

  /** Every figure, with the queries of its rows (none for the kill sweep)
    * and whether its relations cover categories II+III only.
    */
  private lazy val figures = {
    import Experiments._
    val (all, rep) = (TpchLite.all, TpchLite.representative)
    Vector(
      (normalExec(t, w), all, false), (pipelinedVsStagewise(t, w), rep, true),
      (dynamicVsStatic(t, w), rep, true), (ftOverhead(t, w), rep, false),
      (lineageFootprint(t, w), rep, false), (recovery(t, w), rep, false),
      (killSweep(t, w), Vector.empty, false))
  }

  private def fig(prefix: String): Figure = figures.map(_._1).find(_.title.startsWith(prefix)).get

  test("every figure has one row per query of its set and only finite cells") {
    for ((f, qs, _) <- figures) {
      if (qs.nonEmpty) assert(f.labels == qs.map(q => Seq(q.id, q.cat)), f.title)
      else assert(f.labels == Vector(Seq("25%"), Seq("50%"), Seq("75%")), f.title)
      for (c <- f.cols; v <- c.cells)
        assert(!v.isNaN && !v.isInfinite, s"${f.title}, ${c.name}: $v")
    }
  }

  test("sampled cells equal direct engine runs") {
    val q = TpchLite.q9
    val i = TpchLite.representative.indexOf(q)
    def sim(cfg: repro.core.EngineConfig, kills: Seq[(Int, Double)] = Nil) =
      EngineRunner.run(cfg, q, t, kills).simSeconds
    val (quokka, spark) = (Systems.quokka(w), Systems.sparkLike(w))
    val (clean, sparkClean) = (sim(quokka), sim(spark))
    assert(fig("Fig 9").col("Quokka WAL")(i) == clean / sim(Systems.quokkaNoFt(w)))
    val rec = fig("Fig 10a")
    assert(rec.col("restart baseline")(i) == 1 + 0.5 + quokka.cost.detectS / clean)
    assert(rec.col("Quokka e2e")(i) == sim(quokka, Seq((1, clean * 0.5))))
    assert(rec.col("SparkSQL")(i) == sim(spark, Seq((1, sparkClean * 0.5))) / sparkClean)
    assert(fig("Fig 6").col("vs Spark")(TpchLite.all.indexOf(q)) == sparkClean / clean)
    assert(fig("Fig 10b").col("Quokka e2e (s)")(1) == rec.col("Quokka e2e")(i))
  }

  test("each relation is the geomean of its column over its rows") {
    for ((f, qs, joinsOnly) <- figures; r <- f.rels) {
      val rows = qs.indices.filter(k => !joinsOnly || Set("II", "III")(qs(k).cat))
      assert(r.rows == rows, s"${f.title}, ${r.name}")
      val v = f.col(r.col)
      assert(f.value(r.name) == math.exp(rows.map(k => math.log(v(k))).sum / rows.size), r.name)
    }
    assert(Seq("Fig 6", "Fig 7", "Fig 8", "Fig 9", "Fig 10a").forall(fig(_).rels.nonEmpty))
    val sped = TpchLite.representative.filter(_.cat != "I").map { q =>
      EngineRunner.run(Systems.quokkaStagewise(w), q, t).simSeconds /
        EngineRunner.run(Systems.quokka(w), q, t).simSeconds
    }
    assert(fig("Fig 7").value("speedup on categories II+III") == Experiments.geomean(sped))
  }

  test("the run cache keeps runs on tables of different scale factors apart") {
    val (cfg, q) = (Systems.quokka(w), TpchLite.q3)
    val small = TpchData.load(spark, 0.004)
    val (a, b) = (Experiments.run(cfg, q, t), Experiments.run(cfg, q, small))
    assert(a.simSeconds != b.simSeconds)
    assert(TestUtil.canon(a.rows) != TestUtil.canon(b.rows))
    assert(Experiments.run(cfg, q, small) eq b)
    val kill = Seq((1, a.simSeconds * 0.5))
    assert(Experiments.run(cfg, q, t, kill) eq Experiments.run(cfg, q, t, kill))
  }
}
