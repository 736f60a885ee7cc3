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
/** Input task: read batch `batch` of its stage's table. */
final case class ReadRec(batch: Int) extends LineageRec { val byteSize = 16 }
/** Stateful task: consumed outputs [from, from+k) of upstream (uStage, uCh). */
final case class ConsumeRec(uStage: Int, uCh: Int, from: Int, k: Int) extends LineageRec {
  require(k > 0); val byteSize = 20
}
/** Aggregation flush task (no inputs; emits the channel's final state). */
case object FlushRec extends LineageRec { val byteSize = 12 }

/** Global Control Store — the transactional metadata store of paper §IV-B
  * (Redis on the head node; assumed not to fail, like Spark's driver).
  *
  * Holds the committed lineage log `G.L` (as per-channel committed
  * prefixes: commits are sequential within a channel), the outstanding-task
  * view, and channel-done markers. `commit` models the single transaction
  * of Algorithm 1: lineage append + task-queue update together.
  *
  * Out-of-order commits (a task whose push to a failed worker was held
  * back while its successor finished) are buffered and applied once the
  * prefix is complete, preserving the committed-prefix invariant consumers
  * rely on.
  */
final class Gcs {
  type Ch = (Int, Int) // (stage, channel)

  private val committed = mutable.HashMap.empty[Ch, Int]
  private val recs = mutable.HashMap.empty[(Int, Int, Int), LineageRec]
  private val pending = mutable.HashMap.empty[(Int, Int, Int), LineageRec]
  private val done = mutable.HashSet.empty[Ch]

  /** Telemetry for the overhead experiments. */
  var txns: Long = 0L
  var lineageBytes: Long = 0L

  /** Number of committed tasks of `ch` (a dense prefix of seq numbers). */
  def committedCount(ch: Ch): Int = committed.getOrElse(ch, 0)

  def isCommitted(stage: Int, chan: Int, seq: Int): Boolean =
    seq < committedCount((stage, chan))

  def rec(stage: Int, chan: Int, seq: Int): LineageRec =
    recs.getOrElse((stage, chan, seq),
      throw new NoSuchElementException(s"no committed lineage for ($stage,$chan,$seq)"))

  /** Committed lineage records of a channel, in seq order. */
  def channelLog(ch: Ch): Vector[LineageRec] =
    (0 until committedCount(ch)).map(s => rec(ch._1, ch._2, s)).toVector

  def channelDone(ch: Ch): Boolean = done.contains(ch)

  private val pendingDone = mutable.HashMap.empty[Ch, Int]

  /** Single transaction: commit lineage of task (stage, chan, seq), remove it
    * from the outstanding set, optionally mark the channel done. Buffered if
    * an earlier seq of the channel has not committed yet; done-ness only
    * takes effect once the committed prefix reaches the done-marking task.
    * Returns true iff the channel became done by this commit.
    */
  def commit(stage: Int, chan: Int, seq: Int, r: LineageRec, markDone: Boolean = false): Boolean = {
    txns += 1
    lineageBytes += r.byteSize
    val ch = (stage, chan)
    if (markDone) pendingDone(ch) = seq + 1
    if (seq == committedCount(ch)) {
      recs((stage, chan, seq)) = r
      committed(ch) = seq + 1
      // drain any buffered successors
      var next = seq + 1
      while (pending.contains((stage, chan, next))) {
        recs((stage, chan, next)) = pending.remove((stage, chan, next)).get
        committed(ch) = next + 1
        next += 1
      }
    } else if (seq > committedCount(ch)) {
      pending((stage, chan, seq)) = r
    } // seq < committedCount: replay of an already-committed task — no-op
    val becameDone = !done.contains(ch) &&
      pendingDone.get(ch).exists(_ <= committedCount(ch))
    if (becameDone) done += ch
    becameDone
  }

  /** Mark a channel done without a new lineage record (stateful channels
    * whose inputs are exhausted, or input channels with no batches).
    * Returns true iff the channel was not already done.
    */
  def markDone(ch: Ch): Boolean = {
    txns += 1
    val became = !done.contains(ch)
    done += ch
    became
  }
}
