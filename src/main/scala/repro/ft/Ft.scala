package repro.ft

/** Fault-tolerance strategy of an engine run: what a task persists (`Engine.persist`). */
sealed trait Ft

/** No intra-query fault tolerance: a failure restarts the whole query
  * (Snowflake/Redshift behaviour per the paper). Used as the zero-overhead
  * denominator in the Fig 9 overhead experiment.
  */
case object NoFt extends Ft

/** Write-ahead lineage (the paper's contribution): dynamically determined
  * lineage is committed to the GCS before outputs may be consumed; task
  * outputs are backed up to producer-local disk; recovery replays from
  * lineage with pipelined parallelism (Algorithms 1 and 2).
  */
case object Wal extends Ft

/** Spooling: every task's output is put to the reliable store (S3/HDFS),
  * one object per consumer channel, and kept as a store copy that no
  * failure drops. On failure, channels on the dead worker restart from
  * their initial state (state variables were not persisted — paper Fig 2)
  * and re-consume their input partitions, each pushed from the store over
  * its consumer's own store link; nothing is re-read.
  */
case object Spool extends Ft

/** Periodic state checkpointing on top of write-ahead logging of outputs.
  * `incremental` checkpoints only the state delta since the previous
  * checkpoint; otherwise the full state is serialized each time — the
  * O(N^2) storage cost the paper describes for growing join state.
  */
final case class Ckpt(intervalS: Double, incremental: Boolean) extends Ft

/** One row of the paper's Table I. */
final case class TableOneRow(
  system: String, description: String,
  spooling: Boolean, stateCheckpoint: Boolean, lineage: Boolean)

object Ft {
  /** The paper's Table I (spooling / state checkpointing / lineage per
    * system). FtBehaviourSpec checks Quokka's row against what [[Wal]] does.
    */
  val tableOne: Vector[TableOneRow] = Vector(
    //          system           description      spooling state ckpt lineage
    TableOneRow("Trino",         "Pipelined SQL", true,    false,     true),
    TableOneRow("SparkSQL",      "Stagewise SQL", false,   false,     true),
    TableOneRow("Kafka Streams", "Dataflow",      true,    true,      true),
    TableOneRow("Flink",         "Dataflow",      false,   true,      false),
    TableOneRow("StreamScope",   "Dataflow",      false,   true,      true),
    TableOneRow("Quokka",        "Pipelined SQL", false,   false,     true),
  )
}
