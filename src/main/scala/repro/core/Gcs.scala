package repro.core

import scala.collection.mutable

/** Lineage record of one committed task (paper §III-A naming scheme).
  *
  * Thanks to in-order consumption, a stateful task's lineage is just
  * "(which upstream channel, how many outputs)" — two small integers —
  * instead of a list of unique object names. `byteSize` is the serialized
  * size charged to the GCS log (the KB-sized-lineage claim).
  */
sealed trait LineageRec { def byteSize: Int }
/** Input task (c, seq): its name says what it read (`Engine.batchOf`). */
case object ReadRec extends LineageRec { val byteSize = 16 }
/** Stateful task: consumed the next `k` outputs of upstream position `p`,
  * the p-th upstream channel in (upstream, channel) order, from its watermark.
  */
final case class ConsumeRec(p: Int, k: Int) extends LineageRec {
  require(k > 0); val byteSize = 20
}
/** Aggregation flush task (no inputs; emits the channel's final state). */
case object FlushRec extends LineageRec { val byteSize = 12 }

/** Global Control Store — the transactional metadata store of paper §IV-B
  * (Redis on the head node; assumed not to fail, like Spark's driver).
  *
  * Holds the committed lineage log `G.L` as per-channel committed
  * prefixes (commits are sequential within a channel), the commits
  * buffered past a gap in a prefix, and channel-done markers. `commit` is
  * the single transaction of Algorithm 1; the engine charges it one commit
  * latency (`CostParams.gcsTxnS`).
  *
  * Channels are named by one dense index, `index(stage, ch)` =
  * `stage * channels + ch`, so every per-channel table is an array and a
  * channel's lineage is a buffer indexed by seq: the committed count is
  * that buffer's length.
  *
  * Out-of-order commits (a task whose push to a failed worker was held
  * back while its successor finished) are buffered and applied once the
  * prefix is complete, preserving the committed-prefix invariant consumers
  * rely on.
  */
final class Gcs(stages: Int, channels: Int) {
  private val recs = Array.fill(stages * channels)(mutable.ArrayBuffer.empty[LineageRec])
  /** Commits buffered past a gap in each channel's committed prefix, by seq. */
  private val pending = Array.fill(stages * channels)(new SeqBuf[LineageRec])
  /** Committed count at which a channel becomes done (done-marking commit). */
  private val doneAt = Array.fill(stages * channels)(Int.MaxValue)
  private val done = new Array[Boolean](stages * channels)

  /** Telemetry for the overhead experiments. */
  var txns: Long = 0L
  var lineageBytes: Long = 0L

  def index(stage: Int, ch: Int): Int = stage * channels + ch

  /** Number of committed tasks of channel `i` (a dense prefix of seq numbers). */
  def committedCount(i: Int): Int = recs(i).length

  def isCommitted(i: Int, seq: Int): Boolean = seq < recs(i).length

  def rec(i: Int, seq: Int): LineageRec =
    if (isCommitted(i, seq)) recs(i)(seq)
    else throw new NoSuchElementException(
      s"no committed lineage for (${i / channels},${i % channels},$seq)")

  def channelDone(i: Int): Boolean = done(i)

  /** Single transaction: commit lineage of task (i, seq) and optionally
    * mark the channel done. Buffered if an earlier seq of the channel has
    * not committed yet; done-ness only takes effect once the committed
    * prefix reaches the done-marking task.
    * Returns true iff the channel became done by this commit.
    */
  def commit(i: Int, seq: Int, r: LineageRec, markDone: Boolean = false): Boolean = {
    txns += 1
    lineageBytes += r.byteSize
    val log = recs(i)
    if (markDone) doneAt(i) = seq + 1
    if (seq == log.length) {
      log += r
      // drain any buffered successors
      var next = pending(i).remove(log.length)
      while (next != null) { log += next; next = pending(i).remove(log.length) }
    } else if (seq > log.length) {
      pending(i)(seq) = r
    } // seq < committedCount: replay of an already-committed task — no-op
    val becameDone = !done(i) && doneAt(i) <= log.length
    if (becameDone) done(i) = true
    becameDone
  }

  /** Drop channel `i`'s buffered out-of-order commits and pending done
    * mark: the channel was rewound, and the tasks past its committed prefix
    * run and commit again.
    */
  def rewind(i: Int): Unit = {
    pending(i).clear()
    doneAt(i) = Int.MaxValue
  }

  /** Mark a channel done without a new lineage record (stateful channels
    * whose inputs are exhausted, or input channels with no batches).
    * Returns true iff the channel was not already done.
    */
  def markDone(i: Int): Boolean = {
    txns += 1
    val became = !done(i)
    done(i) = true
    became
  }
}
