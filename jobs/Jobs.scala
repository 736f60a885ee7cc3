package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Experiments
import repro.bench.Experiments._
import repro.queries.Tables

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
    try f(s, Experiments.load(s)) finally s.stop()
  }
}

/** Table I: the design-choice matrix, derived from the FT strategy flags. */
object TableOne {
  def main(args: Array[String]): Unit = println(Experiments.tableOneText)
}

/** Fig 6: Quokka vs SparkSQL vs Trino(FT), normal execution, 4w & 16w. */
object Fig6 {
  def main(args: Array[String]): Unit = JobSession.withTables { (_, t) =>
    for (w <- Seq(4, 16)) {
      val rows = normalExec(t, w)
      println(table(s"Fig 6: normal execution, $w workers (simulated s)",
        Seq("query", "cat", "Quokka", "SparkSQL", "Trino+FT", "vs Spark", "vs Trino"),
        rows.map(r => Seq(r.q.id, r.q.cat, fmt(r.quokka), fmt(r.spark), fmt(r.trino),
          fmt(r.vsSpark) + "x", fmt(r.vsTrino) + "x"))))
      println(f"geomean speedup vs SparkSQL: ${geomean(rows.map(_.vsSpark))}%.2fx; " +
        f"vs Trino: ${geomean(rows.map(_.vsTrino))}%.2fx")
    }
  }
}

/** Fig 7: pipelined vs stagewise Quokka on the 8 representative queries. */
object Fig7 {
  def main(args: Array[String]): Unit = JobSession.withTables { (_, t) =>
    for (w <- Seq(4, 16)) {
      val rows = pipelinedVsStagewise(t, w)
      println(table(s"Fig 7: pipelined vs stagewise, $w workers (simulated s)",
        Seq("query", "cat", "pipelined", "stagewise", "speedup"),
        rows.map(r => Seq(r.q.id, r.q.cat, fmt(r.pipelined), fmt(r.stagewise),
          fmt(r.speedup) + "x"))))
      val j = rows.filter(r => r.q.cat != "I")
      println(f"geomean speedup on categories II+III: ${geomean(j.map(_.speedup))}%.2fx")
    }
  }
}

/** Fig 8: dynamic vs static task dependencies (batch 8 vs 128). */
object Fig8 {
  def main(args: Array[String]): Unit = JobSession.withTables { (_, t) =>
    for (w <- Seq(4, 16)) {
      val rows = dynamicVsStatic(t, w)
      println(table(s"Fig 8: dynamic vs static lineage, $w workers (simulated s)",
        Seq("query", "cat", "dynamic", "static-8", "static-128"),
        rows.map(r => Seq(r.q.id, r.q.cat, fmt(r.dynamic), fmt(r.static8), fmt(r.static128)))))
      val j = rows.filter(_.q.cat != "I")
      println(f"geomean static-128/static-8 (II+III): ${geomean(j.map(r => r.static128 / r.static8))}%.2fx; " +
        f"dynamic/best-static: ${geomean(j.map(r => r.dynamic / math.min(r.static8, r.static128)))}%.2fx")
    }
  }
}

/** Fig 9: fault-tolerance overhead in normal execution. */
object Fig9 {
  def main(args: Array[String]): Unit = JobSession.withTables { (_, t) =>
    for (w <- Seq(4, 16)) {
      val rows = ftOverhead(t, w)
      println(table(s"Fig 9: FT overhead (ratio to no-FT), $w workers",
        Seq("query", "cat", "Trino spool", "Quokka spool", "Quokka WAL", "Quokka ckpt"),
        rows.map(r => Seq(r.q.id, r.q.cat, fmt(r.trinoSpool), fmt(r.quokkaSpool),
          fmt(r.wal), fmt(r.ckptIncr)))))
      println(f"geomeans: Trino spool ${geomean(rows.map(_.trinoSpool))}%.2fx, " +
        f"Quokka spool ${geomean(rows.map(_.quokkaSpool))}%.2fx, " +
        f"WAL ${geomean(rows.map(_.wal))}%.2fx, ckpt ${geomean(rows.map(_.ckptIncr))}%.2fx")
      val lin = lineageFootprint(t, w)
      println(table(s"Lineage footprint (supplementary S1), $w workers",
        Seq("query", "lineage KB", "shuffled MB", "backed-up MB", "GCS txns"),
        lin.map(l => Seq(l.q.id, fmt(l.lineageKb), fmt(l.shuffleMb), fmt(l.backupMb),
          l.gcsTxns.toString))))
    }
  }
}

/** Fig 10: fault recovery at 50% kill (a) + Q9 kill-point sweep (b). */
object Fig10 {
  def main(args: Array[String]): Unit = JobSession.withTables { (_, t) =>
    val rows = recovery(t, 16)
    println(table("Fig 10a: recovery overhead, 16 workers, kill at 50%",
      Seq("query", "cat", "Quokka", "SparkSQL", "restart baseline"),
      rows.map(r => Seq(r.q.id, r.q.cat, fmt(r.quokkaOverhead), fmt(r.sparkOverhead),
        fmt(r.restartBaseline)))))
    println(f"geomean overhead: Quokka ${geomean(rows.map(_.quokkaOverhead))}%.3fx, " +
      f"Spark ${geomean(rows.map(_.sparkOverhead))}%.3fx, " +
      f"restart ${geomean(rows.map(_.restartBaseline))}%.3fx")
    val sweep = killSweep(t, 16)
    println(table("Fig 10b: Q9 kill-point sweep, 16 workers",
      Seq("kill at", "Quokka overhead", "Spark overhead", "Quokka e2e (s)", "Spark e2e (s)"),
      sweep.map { case (f, r) => Seq(s"${(f * 100).toInt}%", fmt(r.quokkaOverhead),
        fmt(r.sparkOverhead), fmt(r.quokkaFail), fmt(r.sparkFail)) }))
  }
}

/** Fig 11: 32-worker scalability (normal execution + recovery). */
object Fig11 {
  def main(args: Array[String]): Unit = JobSession.withTables { (_, t) =>
    val rows = normalExec(t, 32)
    println(table("Fig 11a: normal execution, 32 workers (simulated s)",
      Seq("query", "cat", "Quokka", "SparkSQL", "Trino+FT", "vs Spark", "vs Trino"),
      rows.map(r => Seq(r.q.id, r.q.cat, fmt(r.quokka), fmt(r.spark), fmt(r.trino),
        fmt(r.vsSpark) + "x", fmt(r.vsTrino) + "x"))))
    println(f"geomean speedup vs SparkSQL: ${geomean(rows.map(_.vsSpark))}%.2fx; " +
      f"vs Trino: ${geomean(rows.map(_.vsTrino))}%.2fx")
    val rec = recovery(t, 32)
    println(table("Fig 11b: recovery overhead, 32 workers, kill at 50%",
      Seq("query", "cat", "Quokka", "SparkSQL", "restart baseline", "Quokka e2e", "Spark e2e"),
      rec.map(r => Seq(r.q.id, r.q.cat, fmt(r.quokkaOverhead), fmt(r.sparkOverhead),
        fmt(r.restartBaseline), fmt(r.quokkaFail), fmt(r.sparkFail)))))
    println(f"geomean overhead: Quokka ${geomean(rec.map(_.quokkaOverhead))}%.3fx, " +
      f"Spark ${geomean(rec.map(_.sparkOverhead))}%.3fx, " +
      f"restart ${geomean(rec.map(_.restartBaseline))}%.3fx")
  }
}

/** Run a single query on a named system: RunQuery <system> <queryId> [workers]. */
object RunQuery {
  def main(args: Array[String]): Unit = {
    val sys0 = if (args.length > 0) args(0) else "quokka"
    val qid = if (args.length > 1) args(1) else "q1"
    val w = if (args.length > 2) args(2).toInt else 4
    JobSession.withTables { (spark, t) =>
      val cfg = sys0 match {
        case "quokka"    => repro.baselines.Systems.quokka(w)
        case "spark"     => repro.baselines.Systems.sparkLike(w)
        case "trino"     => repro.baselines.Systems.trinoLike(w)
        case "stagewise" => repro.baselines.Systems.quokkaStagewise(w)
        case other       => throw new IllegalArgumentException(s"unknown system $other")
      }
      val q = repro.queries.TpchLite.byId(qid)
      val rr = repro.baselines.EngineRunner.run(cfg, q, t)
      println(f"$qid on $sys0 ($w workers): ${rr.simSeconds}%.2f simulated seconds, " +
        s"${rr.rows.size} result rows, ${rr.metrics.tasks} tasks")
      repro.baselines.EngineRunner.resultDf(spark, rr).show(20, truncate = false)
    }
  }
}

/** Calibration probe: prints every headline shape quickly. */
object Calibrate {
  def main(args: Array[String]): Unit = {
    Fig6.main(args); Fig7.main(args); Fig8.main(args); Fig9.main(args)
    Fig10.main(args); Fig11.main(args)
  }
}
