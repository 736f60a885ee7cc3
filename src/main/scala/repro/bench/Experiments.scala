package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines.{EngineRunner, Systems}
import repro.core._
import repro.queries.{Q, Tables, TpchData, TpchLite}
import scala.collection.mutable

/** The paper's evaluation experiments (Figures 6-11 + Table I), computed on
  * the simulated cluster and returned as structured rows, which the `jobs/`
  * mains print as tables. DESIGN.md §5 lists the paper's shapes these
  * numbers should show.
  */
object Experiments {

  /** Benchmarks run at SF 0.1 by default (cost-model volumeScale maps this
    * to paper-scale volumes; see CostParams).
    */
  def benchSf: Double = sys.env.getOrElse("REPRO_BENCH_SF", "0.1").toDouble

  def load(spark: SparkSession): Tables = TpchData.load(spark, benchSf)

  // clean-run cache shared by all experiments in a JVM, by (config, query id)
  private val cache = mutable.Map.empty[(EngineConfig, String), RunResult]

  def run(cfg: EngineConfig, q: Q, t: Tables): RunResult =
    cache.getOrElseUpdate((cfg, q.id), EngineRunner.run(cfg, q, t))

  def time(cfg: EngineConfig, q: Q, t: Tables): Double = run(cfg, q, t).simSeconds

  def geomean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty)
    math.exp(xs.map(math.log).sum / xs.size)
  }

  // ------------------------------------------------------------ Fig 6 / 11a

  final case class NormalRow(q: Q, quokka: Double, spark: Double, trino: Double) {
    def vsSpark: Double = spark / quokka
    def vsTrino: Double = trino / quokka
  }

  /** Normal-execution comparison: Quokka vs SparkSQL-like vs Trino-like
    * (with spooling FT on, as benchmarked in Fig 6).
    */
  def normalExec(t: Tables, workers: Int): Vector[NormalRow] =
    TpchLite.all.map { q =>
      NormalRow(q,
        time(Systems.quokka(workers), q, t),
        time(Systems.sparkLike(workers), q, t),
        time(Systems.trinoLike(workers), q, t))
    }

  // ----------------------------------------------------------------- Fig 7

  final case class PipeRow(q: Q, pipelined: Double, stagewise: Double) {
    def speedup: Double = stagewise / pipelined
  }

  def pipelinedVsStagewise(t: Tables, workers: Int): Vector[PipeRow] =
    TpchLite.representative.map { q =>
      PipeRow(q,
        time(Systems.quokka(workers), q, t),
        time(Systems.quokkaStagewise(workers), q, t))
    }

  // ----------------------------------------------------------------- Fig 8

  final case class StaticRow(q: Q, dynamic: Double, static8: Double, static128: Double)

  def dynamicVsStatic(t: Tables, workers: Int): Vector[StaticRow] =
    TpchLite.representative.map { q =>
      StaticRow(q,
        time(Systems.quokka(workers), q, t),
        time(Systems.quokkaStatic(workers, 8), q, t),
        time(Systems.quokkaStatic(workers, 128), q, t))
    }

  // ----------------------------------------------------------------- Fig 9

  final case class OverheadRow(
    q: Q, trinoSpool: Double, quokkaSpool: Double, wal: Double, ckptIncr: Double)

  /** FT overhead = runtime with the strategy / runtime with FT off. */
  def ftOverhead(t: Tables, workers: Int): Vector[OverheadRow] =
    TpchLite.representative.map { q =>
      val quokkaNoFt = time(Systems.quokkaNoFt(workers), q, t)
      val trinoNoFt = time(Systems.trinoNoFt(workers), q, t)
      OverheadRow(q,
        trinoSpool = time(Systems.trinoLike(workers), q, t) / trinoNoFt,
        quokkaSpool = time(Systems.quokkaSpool(workers), q, t) / quokkaNoFt,
        wal = time(Systems.quokka(workers), q, t) / quokkaNoFt,
        ckptIncr = time(Systems.quokkaCkpt(workers, intervalS = 2.5, incremental = true), q, t) /
          quokkaNoFt)
    }

  /** §III-A / §IV-B supplementary: lineage vs intermediate data volume. */
  final case class LineageRow(q: Q, lineageKb: Double, shuffleMb: Double, backupMb: Double,
                              gcsTxns: Long)

  def lineageFootprint(t: Tables, workers: Int): Vector[LineageRow] =
    TpchLite.representative.map { q =>
      val rr = run(Systems.quokka(workers), q, t)
      LineageRow(q, rr.gcsLineageBytes / 1024.0,
        rr.metrics.shuffleBytes * Systems.costFor(workers).volumeScale / 1e6,
        rr.metrics.backupBytes * Systems.costFor(workers).volumeScale / 1e6,
        rr.gcsTxns)
    }

  // ----------------------------------------------------------- Fig 10 / 11b

  /** `restartBaseline` is a restart's overhead: the run up to the kill,
    * failure detection, then a clean run, over a clean Quokka run.
    */
  final case class RecoveryRow(
    q: Q, quokkaClean: Double, quokkaFail: Double, sparkClean: Double, sparkFail: Double,
    restartBaseline: Double) {
    def quokkaOverhead: Double = quokkaFail / quokkaClean
    def sparkOverhead: Double = sparkFail / sparkClean
  }

  /** Kill one worker at `frac` of the clean runtime; overhead = failed
    * runtime / clean runtime, per system (paper Fig 10a / 11b).
    */
  def recovery(t: Tables, workers: Int, frac: Double = 0.5): Vector[RecoveryRow] =
    TpchLite.representative.map { q => recoveryOne(t, workers, q, frac) }

  def recoveryOne(t: Tables, workers: Int, q: Q, frac: Double): RecoveryRow = {
    val qCfg = Systems.quokka(workers)
    val sCfg = Systems.sparkLike(workers)
    val qClean = time(qCfg, q, t)
    val sClean = time(sCfg, q, t)
    val victim = 1 % workers
    val qFail = EngineRunner.run(qCfg, q, t, failures = Seq((victim, qClean * frac))).simSeconds
    val sFail = EngineRunner.run(sCfg, q, t, failures = Seq((victim, sClean * frac))).simSeconds
    RecoveryRow(q, qClean, qFail, sClean, sFail, 1 + frac + qCfg.cost.detectS / qClean)
  }

  /** Fig 10b: Q9 killed at varying points. */
  def killSweep(t: Tables, workers: Int,
                fracs: Seq[Double] = Seq(0.25, 0.5, 0.75)): Seq[(Double, RecoveryRow)] =
    fracs.map(f => f -> recoveryOne(t, workers, TpchLite.q9, f))

  // ------------------------------------------------------------- formatting

  def fmt(d: Double): String = f"$d%8.2f"

  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append(s"\n### $title\n\n")
    sb.append(header.mkString("| ", " | ", " |\n"))
    sb.append(header.map(_ => "---").mkString("| ", " | ", " |\n"))
    rows.foreach(r => sb.append(r.mkString("| ", " | ", " |\n")))
    sb.toString
  }

  def tableOneText: String =
    table("Table I: fault tolerance design choices",
      Seq("System", "Description", "Spooling", "State Checkpoint", "Lineage"),
      repro.ft.Ft.tableOne.map(r => Seq(
        r.system, r.description,
        if (r.spooling) "yes" else "no",
        if (r.stateCheckpoint) "yes" else "no",
        if (r.lineage) "yes" else "no")))
}
