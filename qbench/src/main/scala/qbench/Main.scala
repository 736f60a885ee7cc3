package qbench

import java.io.File
import java.lang.management.ManagementFactory
import java.sql.DriverManager
import org.duckdb.DuckDBConnection
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.baselines.Systems
import repro.core._
import repro.queries.{Q, Tables, TpchLite}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random
import scala.util.control.NonFatal

/** Closed-loop query benchmark of the pipelined engine.
  *
  * One client runs the paper's 8 representative TPC-H-lite queries
  * back-to-back ("a pass"), starting each query when the previous one has
  * returned, for a fixed number of seconds. Every execution is checked
  * against a reference answer computed by DuckDB before timing starts.
  * Usage:
  *
  *   qbench.Main --workload tpch-4w|recovery-16w --seed N
  *               --seconds S --trace 0|1 [--out DIR]
  *
  * With `--trace 0` the last stdout line holds the end-to-end metrics; with
  * `--trace 1` it holds the per-layer metrics of a traced run, whose spans
  * are written to DIR.
  */
object Main {
  val Sf = 0.05
  /** Partitions of the generated tables; fixed so the data does not depend
    * on the machine (`rand(seed)` is seeded per partition).
    */
  val DataPartitions = 4
  /** Set-ups per run; `setup_s` is their median. */
  val SetupRepeats = 3
  val queries: Vector[Q] = TpchLite.representative

  /** `failing`: one worker is killed during every query. */
  final case class Workload(name: String, workers: Int, failing: Boolean) {
    val cfg: EngineConfig = Systems.quokka(workers)
    val noFtCfg: EngineConfig = Systems.quokkaNoFt(workers)
  }

  val workloads: Vector[Workload] = Vector(
    Workload("tpch-4w", 4, failing = false),
    Workload("recovery-16w", 16, failing = true))

  // ------------------------------------------------------------------ inputs

  def startSpark(dir: File): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${math.min(DataPartitions, Runtime.getRuntime.availableProcessors)}]")
      .appName("qbench")
      .config("spark.default.parallelism", DataPartitions.toLong)
      .config("spark.sql.shuffle.partitions", DataPartitions.toLong)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(dir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(dir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** TPC-H-lite tables at [[Sf]] from the workload seed, as Spark frames.
    * Seed 0 gives the generators' default seeds, i.e. the tables
    * `TpchData.load` builds at this scale.
    */
  def generate(spark: SparkSession, seed: Long): Vector[(String, DataFrame)] = {
    val b = seed * 1000
    Vector(
      "lineitem" -> SynthData.lineitem(spark, Sf, b),
      "orders"   -> SynthData.orders(spark, Sf, b + 1),
      "customer" -> SynthData.customer(spark, Sf, b + 2),
      "part"     -> SynthData.part(spark, Sf, b + 5),
      "supplier" -> SynthData.supplier(spark, Sf, b + 6),
      "partsupp" -> SynthData.partsupp(spark, Sf),
      "nation"   -> SynthData.nation(spark),
      "region"   -> SynthData.region(spark))
  }

  def ingest(dfs: Vector[(String, DataFrame)]): Tables = {
    val ingested = dfs.map { case (n, df) => n -> Rows.ingest(df) }
    Tables(ingested.map { case (n, (s, _)) => n -> s }.toMap,
           ingested.map { case (n, (_, r)) => n -> r }.toMap)
  }

  /** Reference answers from DuckDB, the repository's test oracle
    * (`repro.Oracle`): every table is loaded as all-VARCHAR `<table>_raw`,
    * as the oracle loads it, and each query's `duckSql` runs over it.
    */
  def reference(t: Tables): Map[String, Vector[String]] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:").unwrap(classOf[DuckDBConnection])
    try {
      queries.flatMap(_.tables).distinct.foreach { n =>
        val cols = t.sch(n).names
        conn.createStatement.execute(s"CREATE TABLE ${n}_raw (${cols.map(_ + " VARCHAR").mkString(", ")})")
        val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, n + "_raw")
        try t.rows(n).foreach { r =>
          app.beginRow()
          r.foreach(v => app.append(String.valueOf(v)))
          app.endRow()
        } finally app.close()
      }
      queries.map { q =>
        val rs = conn.createStatement.executeQuery(q.duckSql)
        val n = rs.getMetaData.getColumnCount
        val rows = Iterator.continually(rs).takeWhile(_.next())
          .map(r => Array.tabulate[Any](n)(i => r.getObject(i + 1))).toVector
        q.id -> canon(rows)
      }.toMap
    } finally conn.close()
  }

  /** Victim worker and kill point (fraction of the query's clean simulated
    * runtime) per query. Seed 0 is the paper's Fig 10a set-up.
    */
  def failureSchedule(seed: Long, workers: Int): Vector[(Int, Double)] =
    if (seed == 0) queries.map(_ => (1 % workers, 0.5))
    else {
      val rng = new Random(seed)
      queries.map(_ => (rng.nextInt(workers), 0.45 + 0.1 * rng.nextDouble()))
    }

  // ------------------------------------------------------------- checking

  private def fmt(v: Any): String = v match {
    case d: Double               => f"$d%.6f"
    case f: Float                => f"${f.toDouble}%.6f"
    case b: java.math.BigDecimal => f"${b.doubleValue}%.6f"
    case b: BigDecimal           => f"${b.doubleValue}%.6f"
    case null                    => "∅"
    case x                       => x.toString
  }

  /** Order-insensitive canonical form of a result multiset. */
  def canon(rows: Seq[Array[Any]]): Vector[String] =
    rows.map(_.map(fmt).mkString("|")).toVector.sorted

  // ----------------------------------------------------------- measuring

  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector
  private def gcMs: Long = gcBeans.map(_.getCollectionTime).sum
  private def gcCount: Long = gcBeans.map(_.getCollectionCount).sum
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def usedHeapAfterGc(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }
  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Linear-interpolated median; NaN when `xs` is empty. */
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      (s((s.size - 1) / 2) + s(s.size / 2)) / 2
    }

  def geomean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)

  /** One query execution: plan building, engine construction and `run()`
    * are timed; the result check is not.
    */
  final case class Exec(q: Q, ms: Double, rr: Option[RunResult], correct: Boolean,
                        allocBytes: Long)

  /** Executes queries over one set of tables and checks each result
    * against `refs`.
    */
  final class Runner(t: Tables, refs: Map[String, Vector[String]], tr: Trace) {
    private var nextExec = 0
    /** When set, the last engine stays reachable until `release()`. */
    var keepEngine = false
    private var kept: Engine = null
    def release(): Unit = kept = null

    def exec(q: Q, cfg: EngineConfig, failures: Seq[(Int, Double)]): Exec = {
      tr.exec = nextExec; nextExec += 1
      tr.span("query") {
        val t0 = System.nanoTime()
        var alloc = 0L
        val rr = try {
          val plan = tr.span("queries.plan")(q.mkPlan(t))
          val eng = tr.span("core.init")(new Engine(cfg, plan, t.rows, failures))
          val a0 = threads.getCurrentThreadAllocatedBytes
          val r = tr.span("core.run")(eng.run())
          alloc = threads.getCurrentThreadAllocatedBytes - a0
          if (keepEngine) kept = eng
          Some(r)
        } catch {
          case NonFatal(e) =>
            System.err.println(s"${q.id} failed: " +
              Option(e.getMessage).flatMap(_.linesIterator.nextOption()).getOrElse(e.toString))
            None
        }
        val e = Exec(q, (System.nanoTime() - t0) / 1e6, rr, correct = false, alloc)
        tr.span("check") {
          val ok = rr.exists(r => canon(r.rows) == refs(q.id))
          if (rr.isDefined && !ok) System.err.println(s"${q.id}: result differs from the reference")
          e.copy(correct = ok)
        }
      }
    }

    /** Input kernels alone: each input stage's `fuse` over its batches. */
    def fuseProbe(q: Q, batchRows: Int): Unit = {
      val inputs = q.mkPlan(t).stages.collect {
        case Stage(_, InputOp(table, fuse), _, _, _) => t.rows(table).grouped(batchRows).toVector -> fuse
      }
      tr.span("queries.fuse")(inputs.foreach { case (bs, fuse) => bs.foreach(fuse) })
    }
  }

  // ------------------------------------------------------------------ main

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val wl = workloads.find(_.name == opts.getOrElse("workload", ""))
      .getOrElse(sys.error(s"--workload must be one of ${workloads.map(_.name).mkString(", ")}"))
    val seed = opts.getOrElse("seed", "0").toLong
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val traced = opts.getOrElse("trace", "0") == "1"
    val outDir = new File(opts.getOrElse("out", "qbench/target"))
    val tr = new Trace(traced)
    println(s"qbench workload=${wl.name} seed=$seed seconds=$seconds trace=${if (traced) 1 else 0} " +
      s"sf=$Sf workers=${wl.workers}")
    var correct = true
    def note(es: Vector[Exec]): Vector[Exec] = { correct &&= es.forall(_.correct); es }

    // ---- set-up, [[SetupRepeats]] times one after another, each timed
    // with nothing else running: Spark start, data generation and ingest,
    // then Spark is stopped. The first copy of the tables is kept. The
    // reference answers are computed from it afterwards, untimed.
    var tables: Tables = null
    val setups = Vector.fill(SetupRepeats) {
      val t0 = System.nanoTime()
      val spark = tr.span("setup.spark")(startSpark(outDir))
      val t1 = System.nanoTime()
      val t = tr.span("setup.load")(ingest(generate(spark, seed)))
      val t2 = System.nanoTime()
      spark.stop()
      if (tables == null) tables = t
      ((t2 - t0) / 1e9, (t1 - t0) / 1e9, (t2 - t1) / 1e9)
    }
    val setupS = median(setups.map(_._1))
    val sparkS = median(setups.map(_._2))
    val loadS = median(setups.map(_._3))
    val r0 = System.nanoTime()
    val run = new Runner(tables, tr.span("setup.reference")(reference(tables)), tr)
    val referenceS = secondsSince(r0)

    // ---- untimed passes, one after another, which also warm the JIT: the
    // FT-off runs that are sim_overhead's base; on failing workloads the
    // clean runs that fix each kill time; then the retained heap of each
    // finished engine (whose runs are the clean runs of clean workloads).
    val warm0 = System.nanoTime()
    val schedule = failureSchedule(seed, wl.workers)
    val noFt = note(queries.map(q => run.exec(q, wl.noFtCfg, Nil)))
    var clean = if (wl.failing) note(queries.map(q => run.exec(q, wl.cfg, Nil))) else Vector.empty[Exec]
    def failuresOf(i: Int): Seq[(Int, Double)] =
      if (!wl.failing) Nil
      else Seq((schedule(i)._1, clean(i).rr.fold(0.0)(_.simSeconds) * schedule(i)._2))

    val heapBase = usedHeapAfterGc()
    run.keepEngine = true
    val heapPass = queries.indices.toVector.map { i =>
      val e = run.exec(queries(i), wl.cfg, failuresOf(i))
      val held = usedHeapAfterGc()
      run.release()
      (e, (held - heapBase) / 1e6)
    }
    run.keepEngine = false
    note(heapPass.map(_._1))
    val retained = heapPass.map(_._2)
    val warmPasses = Vector(noFt, clean, heapPass.map(_._1)).filter(_.nonEmpty).map(_.map(_.ms).sum)
    if (!wl.failing) clean = heapPass.map(_._1)
    // wall time of clean runs, for recovery.extra_wall_ms
    val cleanWall = if (traced && wl.failing) note(queries.map(q => run.exec(q, wl.cfg, Nil))) else clean
    val warmupS = secondsSince(warm0)
    System.gc()

    // ---- timed closed loop: whole passes until `seconds` have elapsed,
    // and at least two, so each query's median has two samples. The loop
    // clock stops while a result is checked. In the traced run, untraced
    // and traced passes alternate.
    val untracedExecs, tracedExecs = mutable.ArrayBuffer.empty[Exec]
    val tracedExecIds = mutable.Set.empty[Int]
    val passMs = mutable.ArrayBuffer.empty[Double]
    var loopNs = 0L
    val gc0 = (gcMs, gcCount)
    var tracedGc = (0L, 0L)
    var k = 0
    while (loopNs / 1e9 < seconds || untracedExecs.size < 2 * queries.size ||
           (traced && tracedExecs.isEmpty)) {
      val tracing = traced && k % 2 == 1
      val g0 = (gcMs, gcCount)
      val es = queries.indices.toVector.map { i =>
        val e = run.exec(queries(i), wl.cfg, failuresOf(i))
        loopNs += (e.ms * 1e6).toLong
        if (tracing) tracedExecIds += tr.exec
        e
      }
      passMs += es.map(_.ms).sum
      if (tracing) {
        tracedExecs ++= es
        tracedGc = (tracedGc._1 + gcMs - g0._1, tracedGc._2 + gcCount - g0._2)
      } else untracedExecs ++= es
      k += 1
    }
    val loopGc = (gcMs - gc0._1, gcCount - gc0._2)
    val execs = untracedExecs.toVector
    val all = execs ++ tracedExecs
    val failed = all.count(!_.correct)
    correct &&= failed == 0

    // ---- end-to-end metrics, from the correct untraced executions only.
    // The median is taken over the pass's query mix, each query at the
    // median of its samples: the mix has 8 equally weighted latencies, and
    // one GC pause cannot move a median that falls between two queries.
    // No tail percentile is reported: a run holds 16-40 executions, too
    // few for any percentile above the median to have 10 samples beyond it.
    val ok = execs.filter(_.correct)
    val perQueryMs = queries.map(q => median(ok.filter(_.q eq q).map(_.ms)))
    val simS = geomean(ok.map(_.rr.get.simSeconds))
    val noFtSim = noFt.map(_.rr.fold(Double.NaN)(_.simSeconds))
    val simOverhead = geomean(ok.map(e => e.rr.get.simSeconds / noFtSim(queries.indexOf(e.q))))
    val e2e = Vector(
      ("latency_ms_p50", median(perQueryMs), "ms"),
      ("queries_per_s", ok.size / (execs.map(_.ms).sum / 1e3), "1/s"),
      ("sim_s", simS, "sim_s"),
      ("sim_overhead", simOverhead, "ratio"),
      ("engine_heap_mb", retained.max, "MB"),
      ("setup_s", setupS, "s"))

    println(f"set-up: ${setups.map(s => f"${s._1}%.2f").mkString(", ")} s (median: Spark $sparkS%.2f s, " +
      f"load $loadS%.2f s); reference $referenceS%.2f s; " +
      f"warm-up $warmupS%.2f s, passes ${warmPasses.map(p => f"${p / 1e3}%.2f").mkString(", ")} s")
    if (wl.failing) println("failure schedule: " + queries.indices.map { i =>
      f"${queries(i).id} w${schedule(i)._1}@${schedule(i)._2}%.2f" }.mkString(" "))
    println(f"timed loop: ${execs.size} untraced executions in ${loopNs / 1e9}%.2f s, " +
      s"passes ${passMs.map(p => f"${p / 1e3}%.2f").mkString(", ")} s; " +
      f"failed_frac ${failed.toDouble / all.size}%.4f ($failed of ${all.size}); " +
      s"GC ${loopGc._1} ms in ${loopGc._2} collections")
    println("median latency per query: " +
      queries.indices.map(i => f"${queries(i).id} ${perQueryMs(i)}%.1f ms").mkString(", "))
    e2e.foreach { case (name, v, unit) => println(f"  $name%-16s $v%12.4f $unit") }

    val metrics =
      if (!traced) e2e
      else {
        val perLayer = layerMetrics(wl, tr, tracedExecs.toVector, tracedExecIds.toSet, execs,
          clean, cleanWall, retained, tracedGc, sparkS, loadS, referenceS, warmupS, run)
        val file = new File(outDir, s"trace/${wl.name}-seed$seed.jsonl")
        tr.write(file)
        println(s"spans: ${tr.spans.size} written to $file; self time per layer:")
        tr.selfNs.toVector.sortBy(-_._2).foreach { case (name, ns) =>
          println(f"  $name%-16s ${ns / 1e6}%10.1f ms") }
        perLayer.foreach { case (name, v, unit) => println(f"  $name%-28s $v%14.4f $unit") }
        perLayer
      }
    println(json(correct, all.size, failed, metrics))
    if (!correct) sys.exit(1)
  }

  def layerMetrics(wl: Workload, tr: Trace, traced: Vector[Exec], tracedIds: Set[Int],
                   untraced: Vector[Exec], clean: Vector[Exec], cleanWall: Vector[Exec],
                   retained: Vector[Double], gc: (Long, Long), sparkS: Double, loadS: Double,
                   referenceS: Double, warmupS: Double, run: Runner): Vector[(String, Double, String)] = {
    val passes = traced.size / queries.size
    def perPassMs(span: String) = tr.totalNs(span, tracedIds) / 1e6 / passes
    // counters are deterministic; take them from one traced pass
    val onePass = traced.take(queries.size).flatMap(_.rr)
    def sum(f: Metrics => Long) = onePass.map(r => f(r.metrics)).sum.toDouble
    val tasks = sum(_.tasks)
    val txns = onePass.map(_.gcsTxns).sum.toDouble
    // input kernels in isolation, outside the query spans
    tr.exec = -1
    queries.foreach(q => run.fuseProbe(q, wl.cfg.inputBatchRows))
    val fuseMs = tr.totalNs("queries.fuse") / 1e6
    val runMs = perPassMs("core.run")
    val cleanSim = clean.map(_.rr.fold(Double.NaN)(_.simSeconds))
    val byQuery = queries.indices.flatMap { i =>
      val id = queries(i).id
      val es = traced.filter(_.q eq queries(i))
      Vector((s"query.$id.ms", median(es.map(_.ms)), "ms"),
             (s"query.$id.sim_s", es.head.rr.fold(Double.NaN)(_.simSeconds), "sim_s"))
    }
    val extraWallMs =
      if (!wl.failing) 0.0
      else queries.indices.map { i =>
        median(traced.filter(_.q eq queries(i)).map(_.ms)) - cleanWall(i).ms }.sum / queries.size
    val simRatio = geomean(queries.indices.map(i =>
      traced.find(_.q eq queries(i)).flatMap(_.rr).fold(Double.NaN)(_.simSeconds) / cleanSim(i)))
    val meanMs = (es: Vector[Exec]) => es.map(_.ms).sum / es.size
    Vector(
      ("setup.spark_s", sparkS, "s"),
      ("setup.load_s", loadS, "s"),
      ("setup.reference_s", referenceS, "s"),
      ("setup.warmup_s", warmupS, "s"),
      ("queries.plan_ms", perPassMs("queries.plan"), "ms"),
      ("queries.fuse_ms", fuseMs, "ms"),
      ("queries.fuse_share", fuseMs / runMs, "ratio"),
      ("core.init_ms", perPassMs("core.init"), "ms"),
      ("core.run_ms", runMs, "ms"),
      ("core.tasks", tasks, "count"),
      ("core.us_per_task", runMs * 1000 / tasks, "us"),
      ("core.aborted_tasks", sum(_.abortedTasks), "count"),
      ("core.useful_task_ratio", (tasks - sum(_.abortedTasks) - sum(_.replayTasks)) / tasks, "ratio"),
      ("core.shuffle_mb", sum(_.shuffleBytes) / 1e6, "MB"),
      ("core.backup_mb", sum(_.backupBytes) / 1e6, "MB"),
      ("core.alloc_mb", traced.map(_.allocBytes).sum / 1e6 / passes, "MB"),
      ("core.retained_mb", retained.sum / retained.size, "MB"),
      ("gcs.txns", txns, "count"),
      ("gcs.txns_per_task", txns / tasks, "ratio"),
      ("gcs.lineage_kb", onePass.map(_.gcsLineageBytes).sum / 1024.0, "KB"),
      ("recovery.rewound_channels", sum(_.rewoundChannels), "count"),
      ("recovery.replay_tasks", sum(_.replayTasks), "count"),
      ("recovery.recovered_partitions", sum(_.recoveredPartitions), "count"),
      ("recovery.repush_jobs", sum(_.repushJobs), "count"),
      ("recovery.reread_jobs", sum(_.rereadJobs), "count"),
      ("recovery.sim_ratio", simRatio, "ratio"),
      ("recovery.extra_wall_ms", extraWallMs, "ms"),
    ) ++ byQuery ++ Vector(
      ("jvm.gc_ms", gc._1.toDouble / passes, "ms"),
      ("jvm.gc_count", gc._2.toDouble / passes, "count"),
      ("trace.overhead", meanMs(traced) / meanMs(untraced), "ratio"))
  }

  def json(correct: Boolean, attempted: Int, failed: Int,
           metrics: Seq[(String, Double, String)]): String = {
    def num(d: Double) = if (d.isNaN || d.isInfinite) "null" else d.toString
    metrics.map { case (name, v, unit) => s""""$name": {"value": ${num(v)}, "unit": "$unit"}""" }
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""",
        ", ", "}}")
  }
}
