package repro.ft

/** Fault-tolerance strategy of an engine run — the design-choice axes of
  * the paper's Table I (spooling / state checkpointing / lineage).
  */
sealed trait Ft {
  /** Shuffle partitions persisted to a reliable store (Trino, Kafka Streams). */
  def spooling: Boolean
  /** State variables periodically persisted (Flink, Kafka Streams, StreamScope). */
  def stateCheckpoint: Boolean
  /** Lineage tracked and consulted on recovery (Trino, Spark, Quokka). */
  def lineage: Boolean
  /** Task outputs backed up unreliably on producer-local disk (Spark, Quokka). */
  def upstreamBackup: Boolean
}

/** No intra-query fault tolerance: a failure restarts the whole query
  * (Snowflake/Redshift behaviour per the paper). Used as the zero-overhead
  * denominator in the Fig 9 overhead experiment.
  */
case object NoFt extends Ft {
  val spooling = false; val stateCheckpoint = false; val lineage = false
  val upstreamBackup = false
}

/** Write-ahead lineage (the paper's contribution): dynamically determined
  * lineage is committed to the GCS before outputs may be consumed; task
  * outputs are backed up to producer-local disk; recovery replays from
  * lineage with pipelined parallelism (Algorithms 1 and 2).
  */
case object Wal extends Ft {
  val spooling = false; val stateCheckpoint = false; val lineage = true
  val upstreamBackup = true
}

/** Spooling: every task's output is put to the reliable store (S3/HDFS),
  * one object per consumer channel, and kept as a store copy that no
  * failure drops. On failure, channels on the dead worker restart from
  * their initial state (state variables were not persisted — paper Fig 2)
  * and re-consume their input partitions, each pushed from the store over
  * its consumer's own store link; nothing is re-read.
  */
case object Spool extends Ft {
  val spooling = true; val stateCheckpoint = false; val lineage = true
  val upstreamBackup = false
}

/** Periodic state checkpointing on top of write-ahead logging of outputs.
  * `incremental` checkpoints only the state delta since the previous
  * checkpoint; otherwise the full state is serialized each time — the
  * O(N^2) storage cost the paper describes for growing join state.
  */
final case class Ckpt(intervalS: Double, incremental: Boolean) extends Ft {
  val spooling = false; val stateCheckpoint = true; val lineage = true
  val upstreamBackup = true
}

/** One row of the paper's Table I. */
final case class TableOneRow(
  system: String, description: String,
  spooling: Boolean, stateCheckpoint: Boolean, lineage: Boolean)

object Ft {
  /** The paper's Table I, as data. Quokka's row is derived from the [[Wal]]
    * strategy flags so the implementation and the claimed design agree by
    * construction (checked in FtSpec).
    */
  val tableOne: Vector[TableOneRow] = Vector(
    TableOneRow("Trino", "Pipelined SQL",
      spooling = Spool.spooling, stateCheckpoint = false, lineage = true),
    TableOneRow("SparkSQL", "Stagewise SQL",
      spooling = false, stateCheckpoint = false, lineage = true),
    TableOneRow("Kafka Streams", "Dataflow",
      spooling = true, stateCheckpoint = true, lineage = true),
    TableOneRow("Flink", "Dataflow",
      spooling = false, stateCheckpoint = true, lineage = false),
    TableOneRow("StreamScope", "Dataflow",
      spooling = false, stateCheckpoint = true, lineage = true),
    TableOneRow("Quokka", "Pipelined SQL",
      spooling = Wal.spooling, stateCheckpoint = Wal.stateCheckpoint, lineage = Wal.lineage),
  )
}
