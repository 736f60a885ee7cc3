package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.baselines.{EngineRunner, Systems}
import repro.bench.{Experiments, Figure}
import repro.bench.Experiments._
import repro.core.EngineConfig
import repro.queries.{Tables, TpchData, TpchLite}

/** Shared session for the spark-submit entrypoints (one per evaluation
  * table/figure; see DESIGN.md §3). Run via e.g.
  * `spark-submit --class repro.jobs.Fig6 repro.jar` or `sbt "runMain repro.jobs.Fig6"`.
  */
object JobSession {
  def spark(): SparkSession = SparkSession.builder
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName("repro-jobs")
    .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.ui.enabled", false)
    .getOrCreate()

  def withTables(f: (SparkSession, Tables) => Unit): Unit = {
    val s = spark()
    try f(s, TpchData.load(s, Experiments.benchSf)) finally s.stop()
  }
}

/** A main that prints the figures `figures` selects, built on the benchmark tables. */
abstract class FigureJob(val figures: Tables => Seq[Figure]) {
  def main(args: Array[String]): Unit =
    JobSession.withTables((_, t) => figures(t).foreach(f => println(f.text)))
}

/** Table I: the design-choice matrix, derived from the FT strategy flags. */
object TableOne { def main(args: Array[String]): Unit = println(Experiments.tableOneText) }

/** Fig 6: Quokka vs SparkSQL vs Trino(FT), normal execution, 4w & 16w. */
object Fig6 extends FigureJob(t => Seq(4, 16).map(normalExec(t, _)))

/** Fig 7: pipelined vs stagewise Quokka on the 8 representative queries, 4w & 16w. */
object Fig7 extends FigureJob(t => Seq(4, 16).map(pipelinedVsStagewise(t, _)))

/** Fig 8: dynamic vs static task dependencies (batch 8 vs 128), 4w & 16w. */
object Fig8 extends FigureJob(t => Seq(4, 16).map(dynamicVsStatic(t, _)))

/** Fig 9: fault-tolerance overhead in normal execution, with the lineage footprint. */
object Fig9
    extends FigureJob(t => Seq(4, 16).flatMap(w => Seq(ftOverhead(t, w), lineageFootprint(t, w))))

/** Fig 10: fault recovery at 50% kill (a) + Q9 kill-point sweep (b). */
object Fig10 extends FigureJob(t => Seq(recovery(t, 16), killSweep(t, 16)))

/** Fig 11: 32-worker scalability: Fig 6 (a) and Fig 10a (b) at 32 workers. */
object Fig11 extends FigureJob(t => Seq(normalExec(t, 32, "Fig 11a"), recovery(t, 32, "Fig 11b")))

/** Calibration probe: prints every figure, on one session. */
object Calibrate
    extends FigureJob(t => Seq(Fig6, Fig7, Fig8, Fig9, Fig10, Fig11).flatMap(_.figures(t)))

/** Run a single query on a named system: RunQuery <system> <queryId> [workers]. */
object RunQuery {
  def main(args: Array[String]): Unit = {
    def arg(i: Int, default: String) = args.lift(i).getOrElse(default)
    val (sys0, qid, w) = (arg(0, "quokka"), arg(1, "q1"), arg(2, "4").toInt)
    val systems = Map[String, Int => EngineConfig]("quokka" -> Systems.quokka,
      "spark" -> Systems.sparkLike, "trino" -> Systems.trinoLike,
      "stagewise" -> Systems.quokkaStagewise)
    val cfg = systems.getOrElse(sys0, throw new IllegalArgumentException(s"unknown system $sys0"))
    JobSession.withTables { (spark, t) =>
      val rr = EngineRunner.run(cfg(w), TpchLite.byId(qid), t)
      println(f"$qid on $sys0 ($w workers): ${rr.simSeconds}%.2f simulated seconds, " +
        s"${rr.rows.size} result rows, ${rr.metrics.tasks} tasks")
      EngineRunner.resultDf(spark, rr).show(20, truncate = false)
    }
  }
}
