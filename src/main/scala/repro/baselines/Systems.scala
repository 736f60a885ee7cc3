package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.ft._
import repro.queries.{Q, Tables}

/** Named engine configurations — the "systems" compared in the evaluation.
  *
  * Quokka is [[EngineConfig]]'s defaults on its cluster's [[CostParams]];
  * the other systems set only what differs (kernelFactor, stageOverheadS,
  * lineage, FT). See DESIGN.md §5 for the shapes and the `jobs/` mains for
  * measured values.
  */
object Systems {

  /** Cluster preset for a worker count (paper §V: 4 × r6id.2xlarge,
    * 16/32 × r6id.xlarge).
    */
  def costFor(workers: Int): CostParams = workers match {
    case w if w <= 4 => CostParams.fourWorkers
    case 16          => CostParams.sixteenWorkers
    case _           => CostParams.thirtyTwoWorkers
  }

  /** Quokka: dynamic pipelined execution + write-ahead lineage. The
    * dynamic strategy accumulates at least `Dynamic.MinRun` outputs per
    * task (maximize-batch, paper §IV-A).
    */
  def quokka(workers: Int): EngineConfig = EngineConfig(workers, cost = costFor(workers))

  /** Quokka with fault tolerance off — the overhead denominator of Fig 9. */
  def quokkaNoFt(workers: Int): EngineConfig = quokka(workers).copy(ft = NoFt)

  /** Quokka with S3 spooling instead of write-ahead lineage (Fig 9). */
  def quokkaSpool(workers: Int): EngineConfig = quokka(workers).copy(ft = Spool)

  /** Quokka with periodic state checkpointing to S3 (Fig 9 / §V-C text). */
  def quokkaCkpt(workers: Int, intervalS: Double, incremental: Boolean): EngineConfig =
    quokka(workers).copy(ft = Ckpt(intervalS, incremental))

  /** Quokka forced into stage-wise (blocking) execution — Fig 7 ablation. */
  def quokkaStagewise(workers: Int): EngineConfig = quokka(workers).copy(mode = Stagewise)

  /** Quokka with a static lineage strategy of batch size k — Fig 8 ablation. */
  def quokkaStatic(workers: Int, k: Int): EngineConfig =
    quokka(workers).copy(batching = StaticBatch(k), staticLineage = true)

  /** SparkSQL-like baseline: stage-wise execution with per-stage scheduling
    * barriers, slower row-oriented kernels, statically-determined lineage
    * with upstream backup (shuffle files), data-parallel recovery.
    */
  def sparkLike(workers: Int): EngineConfig = EngineConfig(
    workers, Stagewise, Dynamic, Wal, costFor(workers),
    kernelFactor = 1.8, stageOverheadS = 0.6, staticLineage = true,
    channelsPerWorker = 2)

  /** Trino-like baseline: pipelined execution with static task dependencies
    * and spooling-based fault tolerance (HDFS/S3 shuffle persistence).
    */
  def trinoLike(workers: Int): EngineConfig = EngineConfig(
    workers, Pipelined, StaticBatch(16), Spool, costFor(workers),
    kernelFactor = 0.85, staticLineage = true)

  /** Trino with fault tolerance disabled (Fig 9's spooling-overhead base). */
  def trinoNoFt(workers: Int): EngineConfig = trinoLike(workers).copy(ft = NoFt)
}

/** Convenience wrappers to execute a query on the engine and to hand the
  * result to Spark / the oracle.
  */
object EngineRunner {
  def run(cfg: EngineConfig, q: Q, t: Tables,
          failures: Seq[(Int, Double)] = Nil): RunResult =
    new Engine(cfg, q.mkPlan(t), t.rows, failures).run()

  def resultDf(spark: SparkSession, rr: RunResult): DataFrame =
    Rows.toDf(spark, rr.schema, rr.rows)
}
