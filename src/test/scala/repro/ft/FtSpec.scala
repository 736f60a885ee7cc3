package repro.ft

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.baselines.EngineRunner
import repro.core.{CostParams, EngineConfig}
import repro.queries.{TpchData, TpchLite}

/** Table I (design-choice matrix) plus the strategy-level claims of §II-B:
  * what each strategy persists during normal operation.
  */
class FtSpec extends AnyFunSuite {

  test("Table I: Quokka = lineage only, no spooling, no state checkpoints") {
    val q = Ft.tableOne.find(_.system == "Quokka").get
    assert(!q.spooling && !q.stateCheckpoint && q.lineage)
    assert(q.description == "Pipelined SQL")
  }

  test("Table I: Trino spools, Spark tracks lineage only, Flink has no lineage") {
    val byName = Ft.tableOne.map(r => r.system -> r).toMap
    assert(byName("Trino").spooling && !byName("Trino").stateCheckpoint && byName("Trino").lineage)
    assert(!byName("SparkSQL").spooling && !byName("SparkSQL").stateCheckpoint && byName("SparkSQL").lineage)
    assert(!byName("Flink").lineage && byName("Flink").stateCheckpoint)
    assert(byName("Kafka Streams").spooling && byName("Kafka Streams").stateCheckpoint)
    assert(byName("StreamScope").stateCheckpoint && byName("StreamScope").lineage)
  }
}

class FtBehaviourSpec extends SparkSpec {
  private lazy val t = TpchData.load(spark, 0.005)
  private def base = EngineConfig(
    workers = 3, cost = CostParams(coresPerWorker = 4), inputBatchRows = 1024)

  test("WAL writes local backups and lineage, but nothing to the reliable store") {
    val rr = EngineRunner.run(base, TpchLite.q9, t)
    assert(rr.metrics.backupBytes > 0)
    // Quokka's Table I row (lineage only, pinned above) is what WAL does
    val q = Ft.tableOne.find(_.system == "Quokka").get
    assert(q.spooling == (rr.metrics.spoolBytes > 0))
    assert(q.stateCheckpoint == (rr.metrics.ckptBytes > 0))
    assert(q.lineage == (rr.gcsLineageBytes > 0))
  }

  test("spooling writes every shuffle partition to the reliable store") {
    val rr = EngineRunner.run(base.copy(ft = Spool), TpchLite.q9, t)
    assert(rr.metrics.spoolBytes > 0)
    assert(rr.metrics.backupBytes == 0)
    // everything shuffled is spooled
    assert(rr.metrics.spoolBytes >= rr.metrics.shuffleBytes / 2)
  }

  test("NoFt persists nothing") {
    val rr = EngineRunner.run(base.copy(ft = NoFt), TpchLite.q3, t)
    assert(rr.metrics.backupBytes == 0 && rr.metrics.spoolBytes == 0)
  }

  test("lineage is KB-sized while intermediates are MB-sized (§III-A claim)") {
    val rr = EngineRunner.run(base, TpchLite.q9, t)
    assert(rr.gcsLineageBytes < 100 * 1024, s"lineage ${rr.gcsLineageBytes}B not KB-sized")
    assert(rr.metrics.shuffleBytes > 20L * rr.gcsLineageBytes,
      s"shuffle ${rr.metrics.shuffleBytes}B vs lineage ${rr.gcsLineageBytes}B: " +
        "expected orders-of-magnitude gap")
  }

  test("checkpointing cost grows with state: full > incremental on a join build") {
    val full = EngineRunner.run(base.copy(ft = Ckpt(0.5, incremental = false)), TpchLite.q9, t)
    val incr = EngineRunner.run(base.copy(ft = Ckpt(0.5, incremental = true)), TpchLite.q9, t)
    assert(full.metrics.ckptBytes > incr.metrics.ckptBytes,
      "full checkpoints must write more than incremental ones")
    assert(incr.metrics.ckptBytes > 0)
  }

  test("static lineage skips the per-task GCS write-ahead cost") {
    val dyn = EngineRunner.run(base, TpchLite.q3, t)
    val stat = EngineRunner.run(base.copy(staticLineage = true), TpchLite.q3, t)
    // same work, but the dynamic engine pays gcsTxnS on every commit path
    assert(stat.simSeconds <= dyn.simSeconds)
  }
}
