package repro.bench

import repro.baselines.{EngineRunner, Systems}
import repro.core._
import repro.queries.{Q, Tables, TpchLite}
import scala.collection.mutable

/** A figure's column: one simulated number per row, printed with `fmt`. */
final case class Col(name: String, cells: Vector[Double], fmt: String = "%8.2f")

/** A summary relation of a figure: the geomean of column `col` over the rows `rows`. */
final case class Rel(name: String, col: String, rows: Vector[Int], fmt: String = "%.2fx")

/** One of the paper's figures as numbers: rows labelled under `head`, named columns
  * and the figure's summary relations (the DESIGN.md §5 shapes). */
final case class Figure(title: String, head: Seq[String], labels: Vector[Seq[String]],
                        cols: Vector[Col], rels: Vector[Rel] = Vector.empty) {
  require(cols.forall(_.cells.size == labels.size), s"$title: a column's length is not the rows'")

  def col(name: String): Vector[Double] =
    cols.find(_.name == name).fold(sys.error(s"$title: no column $name"))(_.cells)

  def value(rel: String): Double = rels.find(_.name == rel)
    .fold(sys.error(s"$title: no relation $rel"))(r => Experiments.geomean(r.rows.map(col(r.col))))

  def text: String =
    Experiments.table(title, head ++ cols.map(_.name),
      labels.indices.map(i => labels(i) ++ cols.map(c => c.fmt.format(c.cells(i))))) +
      rels.map(r => s"geomean ${r.name}: ${r.fmt.format(value(r.name))}\n").mkString
}

/** The paper's evaluation (Figures 6-11 and Table I) on the simulated cluster. Each
  * figure, with its columns and relations, is defined here once; `jobs/` prints them. */
object Experiments {

  /** SF 0.1 by default; `CostParams.volumeScale` maps it to paper-scale volumes. */
  def benchSf: Double = sys.env.getOrElse("REPRO_BENCH_SF", "0.1").toDouble

  // runs shared by all figures in a JVM: by tables (reference identity), then config, query, kills
  private val cache = new java.util.IdentityHashMap[
    Tables, mutable.Map[(EngineConfig, String, Seq[(Int, Double)]), RunResult]]

  def run(cfg: EngineConfig, q: Q, t: Tables, failures: Seq[(Int, Double)] = Nil): RunResult =
    cache.computeIfAbsent(t, _ => mutable.Map.empty)
      .getOrElseUpdate((cfg, q.id, failures), EngineRunner.run(cfg, q, t, failures))

  def time(cfg: EngineConfig, q: Q, t: Tables): Double = run(cfg, q, t).simSeconds

  /** Runtime of `q` with worker 1 killed at `frac` of its clean runtime. */
  def killed(cfg: EngineConfig, q: Q, t: Tables, frac: Double): Double =
    run(cfg, q, t, Seq((1 % cfg.workers, time(cfg, q, t) * frac))).simSeconds

  def geomean(xs: Seq[Double]): Double =
    { require(xs.nonEmpty); math.exp(xs.map(math.log).sum / xs.size) }

  private val X = "%8.2fx"

  /** A figure with one row per query of `qs`, labelled by its id and category. */
  private def perQuery(title: String, qs: Vector[Q], cols: Col*)(rels: Rel*): Figure =
    Figure(title, Seq("query", "cat"), qs.map(q => Seq(q.id, q.cat)), cols.toVector, rels.toVector)

  /** Per query, the runtime on `a` over the runtime on `b`. */
  private def ratio(a: EngineConfig, b: EngineConfig, qs: Vector[Q], t: Tables): Vector[Double] =
    qs.map(q => time(a, q, t) / time(b, q, t))

  private def all(qs: Vector[Q]): Vector[Int] = qs.indices.toVector

  /** The rows of queries with joins: categories II and III. */
  private def joins(qs: Vector[Q]): Vector[Int] = all(qs).filter(i => Set("II", "III")(qs(i).cat))

  /** Fig 6 / 11a: Quokka vs SparkSQL-like vs Trino-like with spooling FT. */
  def normalExec(t: Tables, w: Int, fig: String = "Fig 6"): Figure = {
    val (qs, quokka) = (TpchLite.all, Systems.quokka(w))
    val (spark, trino) = (Systems.sparkLike(w), Systems.trinoLike(w))
    perQuery(s"$fig: normal execution, $w workers (simulated s)", qs,
      Col("Quokka", qs.map(time(quokka, _, t))), Col("SparkSQL", qs.map(time(spark, _, t))),
      Col("Trino+FT", qs.map(time(trino, _, t))), Col("vs Spark", ratio(spark, quokka, qs, t), X),
      Col("vs Trino", ratio(trino, quokka, qs, t), X))(
      Rel("speedup vs SparkSQL", "vs Spark", all(qs)), Rel("speedup vs Trino", "vs Trino", all(qs)))
  }

  /** Fig 7: pipelined vs stagewise Quokka. */
  def pipelinedVsStagewise(t: Tables, w: Int): Figure = {
    val (qs, quokka) = (TpchLite.representative, Systems.quokka(w))
    val stagewise = Systems.quokkaStagewise(w)
    perQuery(s"Fig 7: pipelined vs stagewise, $w workers (simulated s)", qs,
      Col("pipelined", qs.map(time(quokka, _, t))), Col("stagewise", qs.map(time(stagewise, _, t))),
      Col("speedup", ratio(stagewise, quokka, qs, t), X))(
      Rel("speedup on categories II+III", "speedup", joins(qs)))
  }

  /** Fig 8: dynamic vs static task dependencies (batch 8 vs 128). */
  def dynamicVsStatic(t: Tables, w: Int): Figure = {
    val (qs, quokka) = (TpchLite.representative, Systems.quokka(w))
    val (s8, s128) = (Systems.quokkaStatic(w, 8), Systems.quokkaStatic(w, 128))
    perQuery(s"Fig 8: dynamic vs static lineage, $w workers (simulated s)", qs,
      Col("dynamic", qs.map(time(quokka, _, t))), Col("static-8", qs.map(time(s8, _, t))),
      Col("static-128", qs.map(time(s128, _, t))),
      Col("static-128/static-8", ratio(s128, s8, qs, t), X),
      Col("dynamic/best-static",
        qs.map(q => time(quokka, q, t) / math.min(time(s8, q, t), time(s128, q, t))), X))(
      Rel("static-128/static-8 (II+III)", "static-128/static-8", joins(qs)),
      Rel("dynamic/best-static (II+III)", "dynamic/best-static", joins(qs)))
  }

  /** Fig 9: FT overhead = runtime with the strategy / runtime with FT off. */
  def ftOverhead(t: Tables, w: Int): Figure = {
    val (qs, noFt) = (TpchLite.representative, Systems.quokkaNoFt(w))
    val ckpt = Systems.quokkaCkpt(w, intervalS = 2.5, incremental = true)
    perQuery(s"Fig 9: FT overhead (ratio to no-FT), $w workers", qs,
      Col("Trino spool", ratio(Systems.trinoLike(w), Systems.trinoNoFt(w), qs, t)),
      Col("Quokka spool", ratio(Systems.quokkaSpool(w), noFt, qs, t)),
      Col("Quokka WAL", ratio(Systems.quokka(w), noFt, qs, t)),
      Col("Quokka ckpt", ratio(ckpt, noFt, qs, t)))(
      Rel("Trino spool", "Trino spool", all(qs)), Rel("Quokka spool", "Quokka spool", all(qs)),
      Rel("WAL", "Quokka WAL", all(qs)), Rel("ckpt", "Quokka ckpt", all(qs)))
  }

  /** §III-A / §IV-B supplementary (S1): lineage vs intermediate data volume. */
  def lineageFootprint(t: Tables, w: Int): Figure = {
    val (qs, scale) = (TpchLite.representative, Systems.costFor(w).volumeScale)
    val rr = qs.map(run(Systems.quokka(w), _, t))
    perQuery(s"Lineage footprint (supplementary S1), $w workers", qs,
      Col("lineage KB", rr.map(_.gcsLineageBytes / 1024.0)),
      Col("shuffled MB", rr.map(_.metrics.shuffleBytes * scale / 1e6)),
      Col("backed-up MB", rr.map(_.metrics.backupBytes * scale / 1e6)),
      Col("GCS txns", rr.map(_.gcsTxns.toDouble), "%8.0f"))()
  }

  /** Fig 10a / 11b: one worker killed at half the clean runtime; overhead =
    * killed runtime / clean runtime. A restart's overhead is the run up to
    * the kill, failure detection, then a clean run, over a clean Quokka run.
    */
  def recovery(t: Tables, w: Int, fig: String = "Fig 10a"): Figure = {
    val (qs, quokka, spark) = (TpchLite.representative, Systems.quokka(w), Systems.sparkLike(w))
    val frac = 0.5
    def overhead(cfg: EngineConfig) = qs.map(q => killed(cfg, q, t, frac) / time(cfg, q, t))
    perQuery(s"$fig: recovery overhead, $w workers, kill at 50%", qs,
      Col("Quokka", overhead(quokka)), Col("SparkSQL", overhead(spark)),
      Col("restart baseline", qs.map(q => 1 + frac + quokka.cost.detectS / time(quokka, q, t))),
      Col("Quokka e2e", qs.map(killed(quokka, _, t, frac))),
      Col("Spark e2e", qs.map(killed(spark, _, t, frac))))(
      Rel("Quokka overhead", "Quokka", all(qs), "%.3fx"),
      Rel("Spark overhead", "SparkSQL", all(qs), "%.3fx"),
      Rel("restart overhead", "restart baseline", all(qs), "%.3fx"))
  }

  /** Fig 10b: Q9 killed at varying points. */
  def killSweep(t: Tables, w: Int, fracs: Vector[Double] = Vector(0.25, 0.5, 0.75)): Figure = {
    val (q, quokka, spark) = (TpchLite.q9, Systems.quokka(w), Systems.sparkLike(w))
    Figure(s"Fig 10b: Q9 kill-point sweep, $w workers", Seq("kill at"),
      fracs.map(f => Seq(s"${(f * 100).toInt}%")), Vector(
        Col("Quokka overhead", fracs.map(killed(quokka, q, t, _) / time(quokka, q, t))),
        Col("Spark overhead", fracs.map(killed(spark, q, t, _) / time(spark, q, t))),
        Col("Quokka e2e (s)", fracs.map(killed(quokka, q, t, _))),
        Col("Spark e2e (s)", fracs.map(killed(spark, q, t, _)))))
  }

  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): String =
    (Seq(header, header.map(_ => "---")) ++ rows).map(_.mkString("| ", " | ", " |\n"))
      .mkString(s"\n### $title\n\n", "", "")

  def tableOneText: String = table("Table I: fault tolerance design choices",
    Seq("System", "Description", "Spooling", "State Checkpoint", "Lineage"),
    repro.ft.Ft.tableOne.map(r => Seq(r.system, r.description) ++
      Seq(r.spooling, r.stateCheckpoint, r.lineage).map(if (_) "yes" else "no")))
}
